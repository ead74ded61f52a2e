"""Network assembly, end-to-end forward/backward, prediction, checkpoints.

A stream net encodes each frame with a small FC stack, appends delta and
delta-delta features to the bottleneck sequence, and runs a BLSTM over the
result. Single-stream models put a linear classifier head on the BLSTM
output; the fusion model concatenates the two stream BLSTM outputs per
frame, runs a further BLSTM, and classifies per frame.

Entry points take a list of variable-length sequences. The frame encoder
runs as one matrix product over the concatenated valid frames; its output
is then zero-padded into a time-major [T_max, B, D] batch with per-sequence
lengths, and the deltas and every BLSTM run once over the whole batch.
That layout (`_Layout`) is the only place the program pads.
Logits come back stacked [sum(T), K] in the order of the input list.

`_layers(model)` is the one place that knows how each model kind is laid
out and named: it lists every parameterised layer of a single-stream model,
a fusion model or an encoder stack by name, in checkpoint order. Parameter
names (`named_params`), the checkpoint's `*.activation` metadata and the
dtype cast (`astype_model`) are all derived from it. Loading checks every
tensor's shape along the encoder -> BLSTM -> head chain and refuses a
tensor the table does not list.
"""

from __future__ import annotations

import copy
import struct
from dataclasses import dataclass, field

import numpy as np

from .layers import (ACTIVATIONS, Blstm, DeltaWindow, FcLayer, LstmParams,
                     append_deltas, append_deltas_backward, blstm_backward,
                     blstm_forward, blstm_init, fc_backward, fc_forward,
                     fc_init, softmax_rows)
from .fileio import write_atomic
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

    @property
    def bottleneck(self) -> int:
        return self.encoder[-1].w.shape[0]


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
                 bottleneck: int = DEFAULT_BOTTLENECK, theta: int = 2,
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
        encoder = [FcLayer(layer.w.astype(dtype).copy(), layer.b.astype(dtype).copy(),
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
                 hidden: int = DEFAULT_HIDDEN, rng: Rng | None = None,
                 dtype=DEFAULT_DTYPE) -> FusionModel:
    """Fuse two trained streams; their classifier heads are dropped.

    Stream weights are deep-copied, so later fine-tuning leaves the source
    models untouched.
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
    width = 2 * raw.net.blstm.hidden + 2 * diff.net.blstm.hidden
    fusion_blstm = blstm_init(width, hidden, rng, dtype)
    out = fc_init(2 * hidden, raw.classes, rng, "linear", dtype)
    meta = {"kind": "fusion", "theta": str(raw.net.delta.theta)}
    return FusionModel(raw=copy.deepcopy(raw.net), diff=copy.deepcopy(diff.net),
                       fusion_blstm=fusion_blstm, out=out, meta=meta)


# ---------------------------------------------------------------------------
# parameter naming
# ---------------------------------------------------------------------------

def _blstm_layers(prefix: str, bl: Blstm):
    return [(f"{prefix}.fwd", bl.fwd), (f"{prefix}.bwd", bl.bwd)]


def _net_layers(net: StreamNet, prefix: str = ""):
    return [*((f"{prefix}enc{k}", layer) for k, layer in enumerate(net.encoder)),
            *_blstm_layers(f"{prefix}blstm", net.blstm)]


def _layers(model) -> list[tuple[str, FcLayer | LstmParams]]:
    """Every parameterised layer of a model by name, in checkpoint order."""
    if isinstance(model, SingleStreamModel):
        return [*_net_layers(model.net), ("head", model.head)]
    if isinstance(model, FusionModel):
        return [*_net_layers(model.raw, "raw."), *_net_layers(model.diff, "diff."),
                *_blstm_layers("fusion_blstm", model.fusion_blstm), ("out", model.out)]
    if isinstance(model, EncoderStack):
        return [(f"enc{k}", layer) for k, layer in enumerate(model.layers)]
    raise TypeError(f"no parameters for {type(model).__name__}")


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

def _encoder_forward(layers: list[FcLayer], frames: np.ndarray):
    caches = []
    x = frames
    for layer in layers:
        x, cache = fc_forward(layer, x)
        caches.append(cache)
    return x, caches


def _encoder_backward(layers: list[FcLayer], caches, d_out: np.ndarray,
                      grads: dict[str, np.ndarray], prefix: str) -> None:
    d = d_out
    for k in range(len(layers) - 1, -1, -1):
        # nothing consumes the gradient of the input frames
        d, d_w, d_b = fc_backward(layers[k], caches[k], d, input_grad=k > 0)
        grads[f"{prefix}enc{k}.w"] = d_w
        grads[f"{prefix}enc{k}.b"] = d_b


def _blstm_grads(grads: dict[str, np.ndarray], prefix: str, g) -> None:
    for half in ("fwd", "bwd"):
        for name in ("wx", "wh", "b"):
            grads[f"{prefix}.{half}.{name}"] = g[half][name]


@dataclass(frozen=True)
class _Layout:
    """Where the frames of a list of sequences sit in a time-major batch."""

    lengths: np.ndarray  # [B]
    slots: tuple[np.ndarray, np.ndarray]  # (time, sequence) of each concatenated frame

    def pad(self, rows: np.ndarray) -> np.ndarray:
        """[sum(T), D] concatenated frames -> zero-padded [T_max, B, D]."""
        out = np.zeros((int(self.lengths.max()), len(self.lengths), rows.shape[1]),
                       dtype=rows.dtype)
        out[self.slots] = rows
        return out


def _layout(seqs: list[np.ndarray]) -> _Layout:
    if not seqs:
        raise ValueError("a batch needs at least one sequence")
    lengths = np.array([s.shape[0] for s in seqs], dtype=np.intp)
    slots = (np.concatenate([np.arange(n) for n in lengths]),
             np.repeat(np.arange(len(lengths)), lengths))
    return _Layout(lengths, slots)


def _net_forward(net: StreamNet, seqs: list[np.ndarray], layout: _Layout):
    """Encoder over all frames at once, then delta + BLSTM over the padded batch.

    Returns the BLSTM output as a time-major [T_max, B, 2H] batch.
    """
    enc_out, enc_caches = _encoder_forward(net.encoder, np.concatenate(seqs, axis=0))
    feat = append_deltas(layout.pad(enc_out), net.delta, layout.lengths)
    out, bl_cache = blstm_forward(net.blstm, feat, layout.lengths)
    return out, (enc_caches, bl_cache)


def _net_backward(net: StreamNet, cache, layout: _Layout, d_out: np.ndarray,
                  grads: dict[str, np.ndarray], prefix: str = "") -> None:
    enc_caches, bl_cache = cache
    d_feat, g = blstm_backward(net.blstm, bl_cache, d_out)
    _blstm_grads(grads, f"{prefix}blstm", g)
    d_enc = append_deltas_backward(d_feat, net.delta, layout.lengths)[layout.slots]
    _encoder_backward(net.encoder, enc_caches, d_enc, grads, prefix)


def stream_forward_batch(model: SingleStreamModel, seqs: list[np.ndarray]):
    """Logits for every frame of every sequence, stacked [sum(T), K]."""
    layout = _layout(seqs)
    out, net_cache = _net_forward(model.net, seqs, layout)
    logits, head_cache = fc_forward(model.head, out[layout.slots])
    require_finite(logits, "stream logits")
    return logits, (layout, net_cache, head_cache)


def stream_backward_batch(model: SingleStreamModel, cache,
                          d_logits: np.ndarray) -> dict[str, np.ndarray]:
    layout, net_cache, head_cache = cache
    grads: dict[str, np.ndarray] = {}
    d_bl, grads["head.w"], grads["head.b"] = fc_backward(model.head, head_cache, d_logits)
    _net_backward(model.net, net_cache, layout, layout.pad(d_bl), grads)
    return grads


def fusion_forward_batch(model: FusionModel, seqs: dict[str, list[np.ndarray]]):
    """Logits for matched raw/diff sequence lists, stacked [sum(T), K]."""
    raw_seqs, diff_seqs = seqs["raw"], seqs["diff"]
    if len(raw_seqs) != len(diff_seqs):
        raise ValueError("raw and diff batches differ in sequence count")
    for r, d in zip(raw_seqs, diff_seqs):
        if r.shape[0] != d.shape[0]:
            raise ValueError(f"stream length mismatch: raw {r.shape[0]} vs diff {d.shape[0]}")
    layout = _layout(raw_seqs)
    raw_out, raw_cache = _net_forward(model.raw, raw_seqs, layout)
    diff_out, diff_cache = _net_forward(model.diff, diff_seqs, layout)
    fused = np.concatenate([raw_out, diff_out], axis=2)
    fb_out, fb_cache = blstm_forward(model.fusion_blstm, fused, layout.lengths)
    logits, out_cache = fc_forward(model.out, fb_out[layout.slots])
    require_finite(logits, "fusion logits")
    return logits, (layout, raw_cache, diff_cache, fb_cache, out_cache)


def fusion_backward_batch(model: FusionModel, cache,
                          d_logits: np.ndarray) -> dict[str, np.ndarray]:
    layout, raw_cache, diff_cache, fb_cache, out_cache = cache
    grads: dict[str, np.ndarray] = {}
    d_fb, grads["out.w"], grads["out.b"] = fc_backward(model.out, out_cache, d_logits)
    d_fused, g = blstm_backward(model.fusion_blstm, fb_cache, layout.pad(d_fb))
    _blstm_grads(grads, "fusion_blstm", g)
    width = 2 * model.raw.blstm.hidden
    _net_backward(model.raw, raw_cache, layout, d_fused[..., :width], grads, "raw.")
    _net_backward(model.diff, diff_cache, layout, d_fused[..., width:], grads, "diff.")
    return grads


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

CHECKPOINT_MAGIC = b"VSRM"
CHECKPOINT_VERSION = 1


class CheckpointError(ValueError):
    pass


def _pack_str(s: str) -> bytes:
    raw = s.encode("utf-8")
    return struct.pack("<I", len(raw)) + raw


def save_checkpoint(path, model, extra_meta: dict[str, str] | None = None) -> None:
    """Write the model's metadata and tensors; equal inputs give equal bytes.

    Metadata pairs are written sorted by key; tensors follow named_params
    order. Values are stored as little-endian float32. The file is replaced
    in one step (write_atomic), so a killed run never leaves half of one.
    """
    layers = _layers(model)
    meta = ({"kind": "encoder"} if isinstance(model, EncoderStack)
            else {"classes": str(model.classes)})
    meta.update(model.meta)
    meta.update(extra_meta or {})
    meta.update({f"{name}.activation": layer.activation
                 for name, layer in layers if isinstance(layer, FcLayer)})
    params = named_params(model)

    chunks = [CHECKPOINT_MAGIC, struct.pack("<H", CHECKPOINT_VERSION)]
    chunks.append(struct.pack("<I", len(meta)))
    for key in sorted(meta):
        chunks.append(_pack_str(key))
        chunks.append(_pack_str(str(meta[key])))
    chunks.append(struct.pack("<I", len(params)))
    for name, value in params.items():
        chunks.append(_pack_str(name))
        chunks.append(struct.pack("<I", value.ndim))
        chunks.append(struct.pack(f"<{value.ndim}I", *value.shape))
        chunks.append(np.ascontiguousarray(value, dtype="<f4"))
    write_atomic(path, chunks)


class _Reader:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.blob):
            raise CheckpointError(f"checkpoint truncated: wanted {self.pos + n} bytes, "
                                  f"file has {len(self.blob)}")
        out = self.blob[self.pos:self.pos + n]
        self.pos += n
        return out

    def u16(self) -> int:
        return struct.unpack("<H", self.take(2))[0]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def string(self) -> str:
        return self.take(self.u32()).decode("utf-8")


def _read_raw(path):
    with open(path, "rb") as fh:
        reader = _Reader(fh.read())
    magic = reader.take(4)
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointError(f"bad checkpoint magic {magic!r}, expected {CHECKPOINT_MAGIC!r}")
    version = reader.u16()
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}, "
                              f"expected {CHECKPOINT_VERSION}")
    meta = {}
    for _ in range(reader.u32()):
        key = reader.string()
        meta[key] = reader.string()
    tensors: dict[str, np.ndarray] = {}
    for _ in range(reader.u32()):
        name = reader.string()
        if name in tensors:
            raise CheckpointError(f"checkpoint repeats tensor {name!r}")
        rank = reader.u32()
        shape = tuple(reader.u32() for _ in range(rank))
        count = int(np.prod(shape, dtype=np.int64)) if rank else 1
        data = np.frombuffer(reader.take(4 * count), dtype="<f4")
        tensors[name] = data.reshape(shape).astype(np.float32)
    if reader.pos != len(reader.blob):
        raise CheckpointError(f"checkpoint has {len(reader.blob) - reader.pos} trailing bytes")
    return meta, tensors


def _tensor(tensors: dict[str, np.ndarray], name: str, shape: tuple) -> np.ndarray:
    """The named tensor, checked against shape (None matches any width)."""
    if name not in tensors:
        raise CheckpointError(f"checkpoint is missing tensor {name!r}")
    got = tensors[name].shape
    if len(got) != len(shape) or any(w not in (None, g) for g, w in zip(got, shape)):
        want = "x".join("?" if w is None else str(w) for w in shape)
        raise CheckpointError(f"checkpoint tensor {name!r} has shape "
                              f"{'x'.join(map(str, got)) or 'scalar'}, expected {want}")
    return tensors[name]


def _read_fc(meta, tensors, name: str, activation: str, d_in: int | None) -> FcLayer:
    act = meta.get(f"{name}.activation", activation)
    if act not in ACTIVATIONS:
        raise CheckpointError(f"unknown activation {act!r} for {name}")
    w = _tensor(tensors, f"{name}.w", (None, d_in))
    return FcLayer(w, _tensor(tensors, f"{name}.b", (w.shape[0],)), act)


def _read_encoder(meta, tensors, prefix: str = "") -> list[FcLayer]:
    """Each layer's input width must be the previous layer's output width."""
    layers: list[FcLayer] = []
    while f"{prefix}enc{len(layers)}.w" in tensors:
        layers.append(_read_fc(meta, tensors, f"{prefix}enc{len(layers)}", "relu",
                               layers[-1].w.shape[0] if layers else None))
    if not layers:
        raise CheckpointError(f"checkpoint has no {prefix}enc0.w tensor")
    return layers


def _read_blstm(tensors, prefix: str, d_in: int) -> Blstm:
    """Both halves must take d_in-wide input at the forward half's width H."""
    h = _tensor(tensors, f"{prefix}.fwd.wh", (None, None)).shape[1]
    shapes = {"wh": (4 * h, h), "wx": (4 * h, d_in), "b": (4 * h,)}
    halves = {half: LstmParams(**{field: _tensor(tensors, f"{prefix}.{half}.{field}", shape)
                                  for field, shape in shapes.items()})
              for half in ("fwd", "bwd")}
    return Blstm(**halves)


def _read_delta(meta, path) -> DeltaWindow:
    """The delta half-window, a decimal integer >= 1 naming the file if not.

    A window wider than every sequence is valid: frame indices clamp to the edges.
    """
    theta = meta.get("theta", "2")
    if not (theta.isascii() and theta.isdigit() and int(theta) >= 1):
        raise CheckpointError(f"checkpoint {path}: metadata theta is {theta!r}, "
                              f"expected an integer >= 1")
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
    stored value raises CheckpointError naming both.
    """
    meta, tensors = _read_raw(path)
    kind = meta.get("kind")
    if expect:
        for key, want in expect.items():
            got = meta.get(key)
            if got != want:
                raise CheckpointError(f"checkpoint metadata mismatch: {key} is {got!r}, "
                                      f"expected {want!r}")
    if kind == "encoder":
        model = EncoderStack(layers=_read_encoder(meta, tensors), meta=meta)
    elif kind == "stream":
        net = _read_net(meta, tensors, meta.get("stream", "raw"), _read_delta(meta, path))
        head = _read_fc(meta, tensors, "head", "linear", 2 * net.blstm.hidden)
        model = SingleStreamModel(net=net, head=head, meta=meta)
    elif kind == "fusion":
        delta = _read_delta(meta, path)
        raw = _read_net(meta, tensors, "raw", delta, "raw.")
        diff = _read_net(meta, tensors, "diff", delta, "diff.")
        fusion_blstm = _read_blstm(tensors, "fusion_blstm",
                                   2 * raw.blstm.hidden + 2 * diff.blstm.hidden)
        out = _read_fc(meta, tensors, "out", "linear", 2 * fusion_blstm.hidden)
        model = FusionModel(raw=raw, diff=diff, fusion_blstm=fusion_blstm, out=out, meta=meta)
    else:
        raise CheckpointError(f"checkpoint kind {kind!r} is not one of encoder/stream/fusion")
    unknown = sorted(set(tensors) - set(named_params(model)))
    if unknown:
        raise CheckpointError(f"checkpoint holds tensors a {kind} model does not have: {unknown}")
    if kind != "encoder" and meta.get("classes", str(model.classes)) != str(model.classes):
        raise CheckpointError(f"checkpoint metadata says {meta['classes']} classes, but "
                              f"{_layers(model)[-1][0]}.w has {model.classes} rows")
    return model


def astype_model(model, dtype):
    """Deep-copy a model with every parameter cast to dtype (for 64-bit runs).

    Each layer in the table gets its cast arrays rebound on it, so the copy
    shares no array with the source.
    """
    clone = copy.deepcopy(model)
    for _, layer in _layers(clone):
        for field in _FIELDS[type(layer)]:
            setattr(layer, field, getattr(layer, field).astype(dtype, copy=False))
    return clone
