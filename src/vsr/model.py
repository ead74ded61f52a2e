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
Logits come back stacked [sum(T), K] in the order of the input list.
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

def _net_params(net: StreamNet, prefix: str = "") -> dict[str, np.ndarray]:
    params: dict[str, np.ndarray] = {}
    for k, layer in enumerate(net.encoder):
        params[f"{prefix}enc{k}.w"] = layer.w
        params[f"{prefix}enc{k}.b"] = layer.b
    for half, lp in (("fwd", net.blstm.fwd), ("bwd", net.blstm.bwd)):
        params[f"{prefix}blstm.{half}.wx"] = lp.wx
        params[f"{prefix}blstm.{half}.wh"] = lp.wh
        params[f"{prefix}blstm.{half}.b"] = lp.b
    return params


def named_params(model) -> dict[str, np.ndarray]:
    """Flat name -> live array view of every trainable parameter."""
    if isinstance(model, SingleStreamModel):
        params = _net_params(model.net)
        params["head.w"] = model.head.w
        params["head.b"] = model.head.b
        return params
    if isinstance(model, FusionModel):
        params = _net_params(model.raw, "raw.")
        params.update(_net_params(model.diff, "diff."))
        for half, lp in (("fwd", model.fusion_blstm.fwd), ("bwd", model.fusion_blstm.bwd)):
            params[f"fusion_blstm.{half}.wx"] = lp.wx
            params[f"fusion_blstm.{half}.wh"] = lp.wh
            params[f"fusion_blstm.{half}.b"] = lp.b
        params["out.w"] = model.out.w
        params["out.b"] = model.out.b
        return params
    if isinstance(model, EncoderStack):
        return {f"enc{k}.{n}": getattr(layer, n)
                for k, layer in enumerate(model.layers) for n in ("w", "b")}
    raise TypeError(f"no parameters for {type(model).__name__}")


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


def stream_forward(model: SingleStreamModel, seq: np.ndarray):
    return stream_forward_batch(model, [seq])


def stream_backward(model: SingleStreamModel, cache, d_logits: np.ndarray):
    return stream_backward_batch(model, cache, d_logits)


def net_forward_single(net: StreamNet, seq: np.ndarray) -> np.ndarray:
    """BLSTM output [T, 2H] for one sequence (inference only, no cache kept)."""
    out, _ = _net_forward(net, [seq], _layout([seq]))
    return out[:, 0]


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


def fusion_forward(model: FusionModel, seqs: dict[str, np.ndarray]):
    return fusion_forward_batch(model, {"raw": [seqs["raw"]], "diff": [seqs["diff"]]})


def fusion_backward(model: FusionModel, cache, d_logits: np.ndarray):
    return fusion_backward_batch(model, cache, d_logits)


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
    order. Values are stored as little-endian float32.
    """
    meta = dict(model.meta)
    if extra_meta:
        meta.update(extra_meta)
    params = named_params(model)
    if isinstance(model, SingleStreamModel):
        meta.setdefault("classes", str(model.classes))
        meta["head.activation"] = model.head.activation
        for k, layer in enumerate(model.net.encoder):
            meta[f"enc{k}.activation"] = layer.activation
    elif isinstance(model, FusionModel):
        meta.setdefault("classes", str(model.classes))
        meta["out.activation"] = model.out.activation
        for prefix, net in (("raw.", model.raw), ("diff.", model.diff)):
            for k, layer in enumerate(net.encoder):
                meta[f"{prefix}enc{k}.activation"] = layer.activation
    elif isinstance(model, EncoderStack):
        meta.setdefault("kind", "encoder")
        for k, layer in enumerate(model.layers):
            meta[f"enc{k}.activation"] = layer.activation
    else:
        raise TypeError(f"cannot checkpoint {type(model).__name__}")

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
        chunks.append(np.ascontiguousarray(value, dtype="<f4").tobytes())
    blob = b"".join(chunks)
    with open(path, "wb") as fh:
        fh.write(blob)


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
        rank = reader.u32()
        shape = tuple(reader.u32() for _ in range(rank))
        count = int(np.prod(shape, dtype=np.int64)) if rank else 1
        data = np.frombuffer(reader.take(4 * count), dtype="<f4")
        tensors[name] = data.reshape(shape).astype(np.float32)
    if reader.pos != len(reader.blob):
        raise CheckpointError(f"checkpoint has {len(reader.blob) - reader.pos} trailing bytes")
    return meta, tensors


def _tensor(tensors: dict[str, np.ndarray], name: str) -> np.ndarray:
    if name not in tensors:
        raise CheckpointError(f"checkpoint is missing tensor {name!r}")
    return tensors[name]


def _read_encoder(meta, tensors, prefix: str = "") -> list[FcLayer]:
    layers = []
    k = 0
    while f"{prefix}enc{k}.w" in tensors:
        act = meta.get(f"{prefix}enc{k}.activation", "relu")
        if act not in ACTIVATIONS:
            raise CheckpointError(f"unknown activation {act!r} for {prefix}enc{k}")
        w = _tensor(tensors, f"{prefix}enc{k}.w")
        b = _tensor(tensors, f"{prefix}enc{k}.b")
        if b.shape != (w.shape[0],):
            raise CheckpointError(f"{prefix}enc{k} weight/bias shapes disagree: "
                                  f"{w.shape} vs {b.shape}")
        layers.append(FcLayer(w, b, act))
        k += 1
    if not layers:
        raise CheckpointError(f"checkpoint has no {prefix}enc0.w tensor")
    return layers


def _read_blstm(tensors, prefix: str) -> Blstm:
    halves = {}
    for half in ("fwd", "bwd"):
        halves[half] = LstmParams(wx=_tensor(tensors, f"{prefix}.{half}.wx"),
                                  wh=_tensor(tensors, f"{prefix}.{half}.wh"),
                                  b=_tensor(tensors, f"{prefix}.{half}.b"))
    return Blstm(fwd=halves["fwd"], bwd=halves["bwd"])


def _read_net(meta, tensors, stream_kind: str, prefix: str = "") -> StreamNet:
    encoder = _read_encoder(meta, tensors, prefix)
    theta = int(meta.get("theta", "2"))
    return StreamNet(encoder=encoder, delta=DeltaWindow(theta),
                     blstm=_read_blstm(tensors, f"{prefix}blstm"),
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
        return EncoderStack(layers=_read_encoder(meta, tensors), meta=meta)
    if kind == "stream":
        stream_kind = meta.get("stream", "raw")
        net = _read_net(meta, tensors, stream_kind)
        head = FcLayer(_tensor(tensors, "head.w"), _tensor(tensors, "head.b"),
                       meta.get("head.activation", "linear"))
        if head.w.shape[1] != 2 * net.blstm.hidden:
            raise CheckpointError(f"head width {head.w.shape[1]} does not match "
                                  f"BLSTM output width {2 * net.blstm.hidden}")
        return SingleStreamModel(net=net, head=head, meta=meta)
    if kind == "fusion":
        raw = _read_net(meta, tensors, "raw", "raw.")
        diff = _read_net(meta, tensors, "diff", "diff.")
        out = FcLayer(_tensor(tensors, "out.w"), _tensor(tensors, "out.b"),
                      meta.get("out.activation", "linear"))
        return FusionModel(raw=raw, diff=diff,
                           fusion_blstm=_read_blstm(tensors, "fusion_blstm"),
                           out=out, meta=meta)
    raise CheckpointError(f"checkpoint kind {kind!r} is not one of encoder/stream/fusion")


def astype_model(model, dtype):
    """Deep-copy a model with every parameter cast to dtype (for 64-bit runs)."""
    clone = copy.deepcopy(model)
    for arr in named_params(clone).values():
        arr_cast = arr.astype(dtype)
        if arr_cast.dtype == arr.dtype:
            continue
        # named_params hands back live views; replace contents in place is
        # impossible across dtypes, so rebind on the owning dataclass
        _rebind_param(clone, arr, arr_cast)
    return clone


def _rebind_param(model, old: np.ndarray, new: np.ndarray) -> None:
    candidates = []
    if isinstance(model, SingleStreamModel):
        candidates = [*model.net.encoder, model.net.blstm.fwd, model.net.blstm.bwd,
                      model.head]
    elif isinstance(model, FusionModel):
        candidates = [*model.raw.encoder, model.raw.blstm.fwd, model.raw.blstm.bwd,
                      *model.diff.encoder, model.diff.blstm.fwd, model.diff.blstm.bwd,
                      model.fusion_blstm.fwd, model.fusion_blstm.bwd, model.out]
    elif isinstance(model, EncoderStack):
        candidates = list(model.layers)
    for obj in candidates:
        for name in vars(obj):
            if getattr(obj, name) is old:
                setattr(obj, name, new)
                return
    raise ValueError("parameter to rebind not found on model")
