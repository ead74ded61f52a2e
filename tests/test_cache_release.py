"""A backward pass frees each piece of forward state once it has used it.

A cache serves one backward, which consumes it. These tests hold only
weak references to the cached arrays and check, at the point where the
next piece of the backward starts, that the state already used is gone:
the peak memory of a training step is set while the gradients form, so
forward state kept past its use adds to that peak.
"""

import weakref

import numpy as np

import vsr.layers
import vsr.model
import vsr.training as training
from vsr.layers import blstm_backward, blstm_forward, blstm_init
from vsr.model import build_fusion, build_stream
from vsr.numerics import Rng
from vsr.training import SeqSample, make_batches


def array_refs(cache) -> list:
    """Weak references to every array of a (nested) cache."""
    if isinstance(cache, np.ndarray):
        return [weakref.ref(cache)]
    if isinstance(cache, (tuple, list)):
        return [ref for item in cache for ref in array_refs(item)]
    return []


def alive(refs) -> int:
    return sum(ref() is not None for ref in refs)


def tiny_fusion():
    streams = [build_stream(input_dim=6, classes=3, hidden=3, rng=Rng(seed), stream_kind=kind,
                            encoder_sizes=(5, 4), bottleneck=2, dtype=np.float64)
               for seed, kind in ((0, "raw"), (1, "diff"))]
    return build_fusion(*streams, hidden=2, rng=Rng(2))


def one_batch(model):
    rng = Rng(3)
    samples = [SeqSample(streams={k: rng.normal((t_len, 6)) for k in ("raw", "diff")},
                         label=i % 3) for i, t_len in enumerate((4, 2, 5))]
    [batch] = make_batches(samples, len(samples), Rng(4))
    return batch


def test_blstm_backward_frees_each_direction_once_its_backward_has_run(monkeypatch):
    rng = Rng(5)
    bl = blstm_init(3, 4, rng, dtype=np.float64)
    lengths = [4, 1, 3]
    seq = rng.normal((sum(lengths), 3))
    _, cache = blstm_forward(bl, seq, lengths)
    fwd_refs = array_refs(cache[0])
    seen = []
    real = vsr.layers.lstm_backward

    def probe(p, *args):
        seen.append((p is bl.fwd, alive(fwd_refs)))
        return real(p, *args)

    monkeypatch.setattr(vsr.layers, "lstm_backward", probe)
    blstm_backward(bl, cache, rng.normal((sum(lengths), 8)))
    assert seen == [(True, len(fwd_refs)), (False, 0)]
    assert cache == []


def test_each_layer_cache_is_gone_before_the_layer_below_runs_its_backward(monkeypatch):
    """In each stream net, the BLSTM's cache is gone before the encoder's
    backward starts, and encoder layer k+1's output before layer k's
    backward runs (layer k's own output is layer k+1's input)."""
    model = tiny_fusion()
    nets = [model.raw, model.diff]
    outputs, blstm_refs, checks = {}, {}, []
    real_forward, real_fc_backward = training.stream_forward_batch, vsr.model.fc_backward

    def forward(*args, **kwargs):
        feats, cache = real_forward(*args, **kwargs)
        for net, (enc_caches, bl_cache) in zip(nets, cache[1]):
            outputs[id(net)] = [weakref.ref(y) for _, y in enc_caches]
            blstm_refs[id(net)] = array_refs(bl_cache)
        return feats, cache

    def fc_backward(layer, cache, d_out, **kwargs):
        for net in nets:
            for k, enc_layer in enumerate(net.encoder):
                if enc_layer is layer:
                    later = outputs[id(net)][k + 1:]
                    checks.append((k, alive(later), alive(blstm_refs[id(net)])))
        return real_fc_backward(layer, cache, d_out, **kwargs)

    monkeypatch.setattr(training, "stream_forward_batch", forward)
    monkeypatch.setattr(vsr.model, "fc_backward", fc_backward)
    training._forward_backward(model, one_batch(model), freeze_streams=False)
    depth = len(model.raw.encoder)
    assert depth > 1
    assert checks == [(k, 0, 0) for k in range(depth - 1, -1, -1)] * 2


def test_the_fusion_stage_state_is_gone_before_the_stream_backward_starts(monkeypatch):
    model = tiny_fusion()
    fusion_refs, at_stream_backward = [], []
    real_forward, real_backward = training.fusion_forward_batch, training.stream_backward_batch

    def forward(*args, **kwargs):
        logits, cache = real_forward(*args, **kwargs)
        fusion_refs.extend(array_refs([logits, cache]))
        return logits, cache

    def stream_backward(*args):
        at_stream_backward.append(alive(fusion_refs))
        return real_backward(*args)

    monkeypatch.setattr(training, "fusion_forward_batch", forward)
    monkeypatch.setattr(training, "stream_backward_batch", stream_backward)
    training._forward_backward(model, one_batch(model), freeze_streams=False)
    assert len(fusion_refs) > 10
    assert at_stream_backward == [0]
