"""Network assembly, end-to-end forward/backward, prediction, checkpoints.

A stream net encodes each frame with a small FC stack, appends delta and
delta-delta features to the bottleneck sequence, and runs a BLSTM over the
result. A single-stream model puts a linear head on one stream net; a
fusion model runs a further BLSTM over its raw and diff nets' outputs,
concatenated per frame, and a linear output layer after it.

Every model runs the same two stages: `stream_forward_batch` runs each
stream net over its own kind's sequences and concatenates their outputs,
`fusion_forward_batch` the fusion BLSTM, if any, and the output layer.
`fusion_backward_batch` returns the gradient of the stream outputs, and
`stream_backward_batch` adds the stream nets' gradients; a fit that
freezes the streams skips it, and the fusion stage then forms no input
gradient. A cache serves one backward, which consumes it: the stream
backward takes each net's caches out of the stream cache, and each
layer's cache is freed once its backward has run, so the gradients form
as the forward state goes. Each layer runs once over a batch's frames
concatenated [sum(T), D], the deltas and BLSTMs with the per-sequence
lengths; logits come back stacked [sum(T), K] in the order of the input.

`_parts(model)` is the one place that tells the model kinds apart, and
`_layers(model)` names every parameterised layer of a model or an encoder
stack in checkpoint order. Parameter names (`named_params`) and the
checkpoint's `*.activation` metadata derive from it. Loading, and the dtype
cast (`astype_model`), check every tensor's shape along the encoder ->
BLSTM -> head chain and refuse a tensor the table does not list.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .layers import (ACTIVATIONS, MAX_THETA, Blstm, DeltaWindow, FcLayer, LstmParams,
                     append_deltas, append_deltas_backward, blstm_backward,
                     blstm_forward, blstm_init, fc_backward, fc_forward,
                     fc_init, softmax_rows)
from .fileio import read_tensors, write_tensors
from .numerics import DEFAULT_DTYPE, Rng, require_finite

DEFAULT_ENCODER_SIZES = (2000, 1000, 500)
DEFAULT_BOTTLENECK = 50
DEFAULT_HIDDEN = 250

STREAM_KINDS = ("raw", "diff")


@dataclass
class StreamNet:
    encoder: list[FcLayer]  # relu stack ending in a linear bottleneck
    delta: DeltaWindow
    blstm: Blstm
    stream_kind: str


@dataclass
class SingleStreamModel:
    net: StreamNet
    head: FcLayer  # linear, [classes, 2H]
    meta: dict[str, str] = field(default_factory=dict)

    @property
    def classes(self) -> int:
        return self.head.w.shape[0]


@dataclass
class FusionModel:
    raw: StreamNet
    diff: StreamNet
    fusion_blstm: Blstm
    out: FcLayer  # linear, [classes, 2H_fusion]
    meta: dict[str, str] = field(default_factory=dict)

    @property
    def classes(self) -> int:
        return self.out.w.shape[0]


@dataclass
class EncoderStack:
    """A pretrained frame encoder on its own, as stored by pretraining."""

    layers: list[FcLayer]
    meta: dict[str, str] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def build_stream(input_dim: int, classes: int, hidden: int = DEFAULT_HIDDEN,
                 rng: Rng | None = None, stream_kind: str = "raw",
                 encoder_init: list[FcLayer] | None = None,
                 encoder_sizes: tuple[int, ...] = DEFAULT_ENCODER_SIZES,
                 bottleneck: int = DEFAULT_BOTTLENECK, theta: int = DeltaWindow.theta,
                 dtype=DEFAULT_DTYPE) -> SingleStreamModel:
    """Assemble a single-stream model with a fresh classifier head.

    Draw order from rng is fixed: encoder layers front to back, then the
    BLSTM (forward half first), then the head, so equal seeds give equal
    parameters.
    """
    if stream_kind not in STREAM_KINDS:
        raise ValueError(f"unknown stream kind {stream_kind!r}")
    if rng is None:
        rng = Rng(0)
    widths = (input_dim, *encoder_sizes, bottleneck)
    if encoder_init is not None:
        expected = list(zip(widths[1:], widths[:-1]))
        got = [layer.w.shape for layer in encoder_init]
        if got != expected:
            raise ValueError(f"pretrained encoder shapes {got} do not match {expected}")
        encoder = [FcLayer(layer.w.astype(dtype), layer.b.astype(dtype),
                           layer.activation) for layer in encoder_init]
    else:
        encoder = []
        for k in range(len(widths) - 1):
            act = "linear" if k == len(widths) - 2 else "relu"
            encoder.append(fc_init(widths[k], widths[k + 1], rng, act, dtype))
    blstm = blstm_init(3 * bottleneck, hidden, rng, dtype)
    head = fc_init(2 * hidden, classes, rng, "linear", dtype)
    net = StreamNet(encoder=encoder, delta=DeltaWindow(theta), blstm=blstm,
                    stream_kind=stream_kind)
    meta = {"kind": "stream", "stream": stream_kind, "theta": str(theta)}
    return SingleStreamModel(net=net, head=head, meta=meta)


def build_fusion(raw: SingleStreamModel, diff: SingleStreamModel,
                 hidden: int | None = None, rng: Rng | None = None,
                 dtype=None) -> FusionModel:
    """Fuse two trained streams; their classifier heads are dropped.

    The fusion BLSTM is hidden wide, by default as wide as the raw stream's
    BLSTM. Stream weights are copied in dtype, by default the raw stream's,
    so the model holds one precision and later fine-tuning leaves the
    source models untouched.
    """
    if raw.net.stream_kind != "raw" or diff.net.stream_kind != "diff":
        raise ValueError(f"expected a raw and a diff stream, got "
                         f"{raw.net.stream_kind!r} and {diff.net.stream_kind!r}")
    if raw.classes != diff.classes:
        raise ValueError(f"streams disagree on class count: {raw.classes} vs {diff.classes}")
    if raw.net.delta.theta != diff.net.delta.theta:
        raise ValueError("streams disagree on the delta window")
    if rng is None:
        rng = Rng(0)
    hidden = raw.net.blstm.hidden if hidden is None else hidden
    dtype = raw.head.w.dtype if dtype is None else dtype
    width = 2 * raw.net.blstm.hidden + 2 * diff.net.blstm.hidden
    fusion_blstm = blstm_init(width, hidden, rng, dtype)
    out = fc_init(2 * hidden, raw.classes, rng, "linear", dtype)
    meta = {"kind": "fusion", "theta": str(raw.net.delta.theta)}
    return FusionModel(raw=astype_model(raw, dtype).net, diff=astype_model(diff, dtype).net,
                       fusion_blstm=fusion_blstm, out=out, meta=meta)


# ---------------------------------------------------------------------------
# parameter naming
# ---------------------------------------------------------------------------

def _blstm_layers(prefix: str, bl: Blstm):
    return [(f"{prefix}.fwd", bl.fwd), (f"{prefix}.bwd", bl.bwd)]


def _net_layers(net: StreamNet, prefix: str = ""):
    return [*((f"{prefix}enc{k}", layer) for k, layer in enumerate(net.encoder)),
            *_blstm_layers(f"{prefix}blstm", net.blstm)]


def _parts(model):
    """(stream nets with their name prefixes, fusion BLSTM or None, named output layer)."""
    if isinstance(model, SingleStreamModel):
        return [("", model.net)], None, ("head", model.head)
    if isinstance(model, FusionModel):
        return ([("raw.", model.raw), ("diff.", model.diff)], model.fusion_blstm,
                ("out", model.out))
    raise TypeError(f"{type(model).__name__} is not a stream or fusion model")


def _layers(model) -> list[tuple[str, FcLayer | LstmParams]]:
    """Every parameterised layer of a model by name, in checkpoint order."""
    if isinstance(model, EncoderStack):
        return [(f"enc{k}", layer) for k, layer in enumerate(model.layers)]
    nets, fusion_blstm, out = _parts(model)
    layers = [layer for prefix, net in nets for layer in _net_layers(net, prefix)]
    if fusion_blstm is not None:
        layers += _blstm_layers("fusion_blstm", fusion_blstm)
    return [*layers, out]


def stream_kinds(model) -> tuple[str, ...]:
    """The stream kinds a model reads, in the order its nets run."""
    return tuple(net.stream_kind for _, net in _parts(model)[0])


# the tensor fields of each layer type, in checkpoint order
_FIELDS = {FcLayer: ("w", "b"), LstmParams: ("wx", "wh", "b")}


def named_params(model) -> dict[str, np.ndarray]:
    """Flat "{layer}.{field}" -> live array of every trainable parameter.

    Names and order come from the layer table, so they are the tensor names
    and the tensor order of the model's checkpoint.
    """
    return {f"{name}.{field}": getattr(layer, field)
            for name, layer in _layers(model) for field in _FIELDS[type(layer)]}


def clip_group(names) -> list[str]:
    """Parameter names whose gradients fall under the recurrent-norm clip."""
    return [n for n in names if "blstm" in n]


# ---------------------------------------------------------------------------
# forward / backward
# ---------------------------------------------------------------------------

def _encoder_forward(layers: list[FcLayer], x: np.ndarray, keep_cache: bool = True):
    caches = []
    for layer in layers:
        x, cache = fc_forward(layer, x)
        if keep_cache:
            caches.append(cache)
        del cache  # without keep_cache, the last reference to the layer's input
    return x, caches


def _encoder_backward(layers: list[FcLayer], caches: list, d_out: np.ndarray,
                      grads: dict[str, np.ndarray], prefix: str) -> None:
    """Consumes caches, popping each layer's (x, y) as its backward runs."""
    d = d_out
    for k in range(len(layers) - 1, -1, -1):
        # nothing consumes the gradient of the input frames
        d, d_w, d_b = fc_backward(layers[k], caches.pop(), d, input_grad=k > 0)
        grads[f"{prefix}enc{k}.w"] = d_w
        grads[f"{prefix}enc{k}.b"] = d_b


def _lengths(seqs: list[np.ndarray]) -> np.ndarray:
    if not seqs:
        raise ValueError("a batch needs at least one sequence")
    return np.array([s.shape[0] for s in seqs], dtype=np.intp)


def _net_forward(net: StreamNet, seqs: list[np.ndarray], lengths: np.ndarray,
                 keep_cache: bool = True):
    """Encoder, deltas and BLSTM over the concatenated frames; returns [sum(T), 2H]."""
    enc_out, enc_caches = _encoder_forward(net.encoder, np.concatenate(seqs, axis=0),
                                           keep_cache)
    feat = append_deltas(enc_out, net.delta, lengths)
    out, bl_cache = blstm_forward(net.blstm, feat, lengths, keep_cache)
    return out, (enc_caches, bl_cache) if keep_cache else None


def stream_forward_batch(model, streams: dict[str, list[np.ndarray]], keep_cache: bool = True):
    """Each stream net over its own kind's sequences; returns their outputs
    concatenated per frame, [sum(T), sum of 2H], and the cache.

    Without keep_cache the cache is None: the same layers run in the same
    order, but each layer's cache is dropped as soon as the layer has run,
    so a pass that runs no backward holds a fraction of the memory.
    """
    nets = _parts(model)[0]
    lengths = [_lengths(streams[net.stream_kind]) for _, net in nets]
    if any(not np.array_equal(n, lengths[0]) for n in lengths):
        raise ValueError("stream length mismatch: " + ", ".join(
            f"{net.stream_kind} {n.tolist()}" for (_, net), n in zip(nets, lengths)))
    outs, caches = [], []
    for _, net in nets:
        out, cache = _net_forward(net, streams[net.stream_kind], lengths[0], keep_cache)
        outs.append(out)
        caches.append(cache)
    feats = outs[0] if len(outs) == 1 else np.concatenate(outs, axis=1)
    return feats, (lengths[0], caches) if keep_cache else None


def fusion_forward_batch(model, feats: np.ndarray, lengths, keep_cache: bool = True):
    """Logits [sum(T), K] from the stream outputs: the fusion BLSTM, if the model
    has one, then the output layer; and the cache, None without keep_cache."""
    _, fusion_blstm, (_, out) = _parts(model)
    fb_cache = None
    if fusion_blstm is not None:
        feats, fb_cache = blstm_forward(fusion_blstm, feats, lengths, keep_cache)
    logits, out_cache = fc_forward(out, feats)
    require_finite(logits, "model logits")
    return logits, (fb_cache, out_cache) if keep_cache else None


def fusion_backward_batch(model, cache, d_logits: np.ndarray, input_grad: bool = True):
    """(d_feats, grads): the stream outputs' gradient, and the fusion stage's by name.

    Without input_grad a fusion model's d_feats is None: a fit whose
    streams are frozen has no use for it.
    """
    _, fusion_blstm, (out_name, out) = _parts(model)
    fb_cache, out_cache = cache
    d_feats, d_w, d_b = fc_backward(out, out_cache, d_logits)
    grads = {f"{out_name}.w": d_w, f"{out_name}.b": d_b}
    if fusion_blstm is not None:
        d_feats, g = blstm_backward(fusion_blstm, fb_cache, d_feats, input_grad)
        grads.update((f"fusion_blstm.{name}", v) for name, v in g.items())
    return d_feats, grads


def stream_backward_batch(model, cache, d_feats: np.ndarray, grads: dict[str, np.ndarray]):
    """Add each stream net's parameter gradients to grads, from its columns of d_feats.

    Consumes cache: each net's caches leave it as that net's backward starts.
    """
    lengths, net_caches = cache
    start = 0
    for prefix, net in _parts(model)[0]:
        enc_caches, bl_cache = net_caches.pop(0)
        width = 2 * net.blstm.hidden
        d_feat, g = blstm_backward(net.blstm, bl_cache, d_feats[:, start:start + width])
        grads.update((f"{prefix}blstm.{name}", v) for name, v in g.items())
        d_enc = append_deltas_backward(d_feat, net.delta, lengths)
        _encoder_backward(net.encoder, enc_caches, d_enc, grads, prefix)
        del d_feat, d_enc  # gone before the next stream's backward allocates its own
        start += width


# ---------------------------------------------------------------------------
# prediction
# ---------------------------------------------------------------------------

def predict_label(logits: np.ndarray) -> int:
    """Label an utterance by the modal per-frame argmax of its logits.

    Vote ties break to the class with the larger summed softmax posterior
    over the whole utterance; an exact posterior tie breaks to the smaller
    class index.
    """
    if logits.ndim != 2 or logits.shape[0] < 1:
        raise ValueError("predict_label expects [T, K] logits with T >= 1")
    k = logits.shape[1]
    preds = logits.argmax(axis=1)
    votes = np.bincount(preds, minlength=k)
    tied = np.flatnonzero(votes == votes.max())
    if tied.size == 1:
        return int(tied[0])
    posterior = softmax_rows(logits.astype(np.float64)).sum(axis=0)
    best = tied[np.argmax(posterior[tied])]  # argmax takes the smaller index on ties
    return int(best)


# ---------------------------------------------------------------------------
# checkpoint serialization
# ---------------------------------------------------------------------------

class CheckpointError(ValueError):
    pass


def _checkpoint_meta(model, extra_meta: dict[str, str] | None = None) -> dict[str, str]:
    """A model's checkpoint metadata: kind or classes, meta, extra_meta, activations."""
    meta = ({"kind": "encoder"} if isinstance(model, EncoderStack)
            else {"classes": str(model.classes)})
    meta.update(model.meta)
    meta.update(extra_meta or {})
    meta.update({f"{name}.activation": layer.activation
                 for name, layer in _layers(model) if isinstance(layer, FcLayer)})
    return meta


def save_checkpoint(path, model, extra_meta: dict[str, str] | None = None) -> None:
    """Write the model's metadata and tensors with fileio.write_tensors, in the
    model's precision: a float32 model as version 1, a float64 one as version 2."""
    write_tensors(path, _checkpoint_meta(model, extra_meta), list(named_params(model).items()))


def _tensor(tensors: dict[str, np.ndarray], name: str, shape: tuple) -> np.ndarray:
    """The named tensor, checked against shape (None matches any width)."""
    if name not in tensors:
        raise CheckpointError(f"missing tensor {name!r}")
    got = tensors[name].shape
    if len(got) != len(shape) or any(w not in (None, g) for g, w in zip(got, shape)):
        want = "x".join("?" if w is None else str(w) for w in shape)
        raise CheckpointError(f"tensor {name!r} has shape "
                              f"{'x'.join(map(str, got)) or 'scalar'}, expected {want}")
    return tensors[name]


def _meta_value(meta, key: str, valid=lambda v: True, expected: str = "") -> str:
    """A metadata value that save_checkpoint always writes, refused unless valid."""
    if key not in meta:
        raise CheckpointError(f"missing metadata key {key!r}")
    if not valid(meta[key]):
        raise CheckpointError(f"metadata {key} is {meta[key]!r}, expected {expected}")
    return meta[key]


def _read_fc(meta, tensors, name: str, d_in: int | None) -> FcLayer:
    act = _meta_value(meta, f"{name}.activation")
    if act not in ACTIVATIONS:
        raise CheckpointError(f"unknown activation {act!r} for {name}")
    w = _tensor(tensors, f"{name}.w", (None, d_in))
    return FcLayer(w, _tensor(tensors, f"{name}.b", (w.shape[0],)), act)


def _read_encoder(meta, tensors, prefix: str = "") -> list[FcLayer]:
    """Each layer's input width must be the previous layer's output width."""
    layers: list[FcLayer] = []
    while f"{prefix}enc{len(layers)}.w" in tensors:
        layers.append(_read_fc(meta, tensors, f"{prefix}enc{len(layers)}",
                               layers[-1].w.shape[0] if layers else None))
    if not layers:
        raise CheckpointError(f"no {prefix}enc0.w tensor")
    return layers


def _read_blstm(tensors, prefix: str, d_in: int) -> Blstm:
    """Both halves must take d_in-wide input at the forward half's width H."""
    h = _tensor(tensors, f"{prefix}.fwd.wh", (None, None)).shape[1]
    shapes = {"wh": (4 * h, h), "wx": (4 * h, d_in), "b": (4 * h,)}
    halves = {half: LstmParams(**{field: _tensor(tensors, f"{prefix}.{half}.{field}", shape)
                                  for field, shape in shapes.items()})
              for half in ("fwd", "bwd")}
    return Blstm(**halves)


def _read_delta(meta) -> DeltaWindow:
    """The delta half-window, a decimal integer from 1 to MAX_THETA; one wider
    than every sequence is valid, as frame indices clamp to the edges."""
    theta = _meta_value(meta, "theta", lambda v: v.isascii() and v.isdigit()
                        and len(v) <= len(str(MAX_THETA)) and 1 <= int(v) <= MAX_THETA,
                        f"an integer from 1 to {MAX_THETA}")
    return DeltaWindow(int(theta))


def _read_net(meta, tensors, stream_kind: str, delta: DeltaWindow,
              prefix: str = "") -> StreamNet:
    encoder = _read_encoder(meta, tensors, prefix)
    return StreamNet(encoder=encoder, delta=delta,
                     blstm=_read_blstm(tensors, f"{prefix}blstm", 3 * encoder[-1].w.shape[0]),
                     stream_kind=stream_kind)


def load_checkpoint(path, expect: dict[str, str] | None = None):
    """Read a checkpoint back into its model object.

    `expect` asserts metadata values, e.g. {"classes": "26"}; a differing
    stored value raises CheckpointError naming both. Every CheckpointError
    starts `checkpoint <path>: `.
    """
    try:
        meta, tensors = read_tensors(path, CheckpointError)
        for key, want in (expect or {}).items():
            if meta.get(key) != want:
                raise CheckpointError(f"metadata mismatch: {key} is {meta.get(key)!r}, "
                                      f"expected {want!r}")
        return _assemble(meta, tensors)
    except CheckpointError as exc:
        exc.args = (f"checkpoint {path}: {exc}",)
        raise


def _assemble(meta: dict[str, str], tensors: dict[str, np.ndarray]):
    kind = meta.get("kind")
    if kind == "encoder":
        model = EncoderStack(layers=_read_encoder(meta, tensors), meta=meta)
    elif kind == "stream":
        stream = _meta_value(meta, "stream", STREAM_KINDS.__contains__,
                             f"one of {'/'.join(STREAM_KINDS)}")
        net = _read_net(meta, tensors, stream, _read_delta(meta))
        head = _read_fc(meta, tensors, "head", 2 * net.blstm.hidden)
        model = SingleStreamModel(net=net, head=head, meta=meta)
    elif kind == "fusion":
        delta = _read_delta(meta)
        raw = _read_net(meta, tensors, "raw", delta, "raw.")
        diff = _read_net(meta, tensors, "diff", delta, "diff.")
        fusion_blstm = _read_blstm(tensors, "fusion_blstm",
                                   2 * raw.blstm.hidden + 2 * diff.blstm.hidden)
        out = _read_fc(meta, tensors, "out", 2 * fusion_blstm.hidden)
        model = FusionModel(raw=raw, diff=diff, fusion_blstm=fusion_blstm, out=out, meta=meta)
    else:
        raise CheckpointError(f"kind {kind!r} is not one of encoder/stream/fusion")
    unknown = sorted(set(tensors) - set(named_params(model)))
    if unknown:
        raise CheckpointError(f"holds tensors a {kind} model does not have: {unknown}")
    if kind != "encoder" and meta.get("classes", str(model.classes)) != str(model.classes):
        raise CheckpointError(f"metadata says {meta['classes']} classes, but "
                              f"{_layers(model)[-1][0]}.w has {model.classes} rows")
    return model


def astype_model(model, dtype):
    """A copy of a model with every parameter cast to dtype (for 64-bit runs),
    assembled from its checkpoint metadata and cast tensors as a loaded
    checkpoint is; it shares no array with the source."""
    return _assemble(_checkpoint_meta(model),
                     {name: p.astype(dtype) for name, p in named_params(model).items()})
