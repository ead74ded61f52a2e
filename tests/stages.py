"""A model's two stages run end to end, as training runs them."""

from vsr.model import (fusion_backward_batch, fusion_forward_batch,
                       stream_backward_batch, stream_forward_batch)


def forward(model, streams, keep_cache=True):
    """(logits, cache) of a batch given as {kind: sequences}; None for the
    cache without keep_cache."""
    feats, stream_cache = stream_forward_batch(model, streams, keep_cache)
    lengths = [len(seq) for seq in next(iter(streams.values()))]
    logits, cache = fusion_forward_batch(model, feats, lengths, keep_cache)
    return logits, (stream_cache, cache) if keep_cache else None


def backward(model, cache, d_logits):
    """Every parameter's gradient by name, from forward's cache."""
    stream_cache, fusion_cache = cache
    d_feats, grads = fusion_backward_batch(model, fusion_cache, d_logits)
    stream_backward_batch(model, stream_cache, d_feats, grads)
    return grads
