"""Differentiable building blocks with exact analytic gradients.

Every forward returns (output, cache); the matching backward consumes the
cache plus the upstream gradient and returns exact input and parameter
gradients. A cache serves one backward, which consumes it: blstm_backward
empties its BLSTM cache, dropping each direction's as soon as that
direction's backward has run, so a backward pass holds no forward state it
has finished with. Layers never mutate their inputs, so concurrent
evaluation on distinct sequences is safe.

Shapes follow the conventions: frame batches are [N, D] with one row per
frame, weight sheets are [out, in]. Sequence layers (deltas, LSTM, BLSTM)
take the same rows: a batch's sequences concatenated frame by frame, plus
per-sequence `lengths` summing to N (None means one sequence of N frames).
No index of a sequence layer crosses from one sequence into the next.

An LSTM runs packed, as cuDNN and PyTorch's packed sequences do: with its
sequences ranked longest first, the n_t still running at step t are the
first n_t ranks, so its input projection and caches hold one row per
frame, step by step, and each step computes on n_t contiguous rows.

A layer's parameters and its input share one dtype; callers cast the model
and the data together, so no layer call mixes precisions.

The forward passes compute in buffers they own: fc_forward adds the bias
and applies the ReLU in the product's array, and lstm_forward does its gate
math in the input projection, which becomes the gates cache, and multiplies
h by a C-contiguous copy of the recurrent weight. The operations and their
order are those of the allocating formulas; only the contiguous weight and
the row count of each step change how BLAS may round the recurrent
product, at some shapes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .numerics import DEFAULT_DTYPE, Rng, glorot_init, require_finite

ACTIVATIONS = ("relu", "linear")


def sigmoid(x: np.ndarray) -> np.ndarray:
    # tanh form saturates cleanly at both ends, no overflow warnings
    return 0.5 * np.tanh(0.5 * x) + 0.5


# ---------------------------------------------------------------------------
# fully connected
# ---------------------------------------------------------------------------

@dataclass
class FcLayer:
    w: np.ndarray  # [out, in]
    b: np.ndarray  # [out]
    activation: str = "linear"


def fc_init(fan_in: int, fan_out: int, rng: Rng, activation: str = "linear",
            dtype=DEFAULT_DTYPE) -> FcLayer:
    if activation not in ACTIVATIONS:
        raise ValueError(f"unknown activation {activation!r}")
    return FcLayer(w=glorot_init(fan_in, fan_out, rng, dtype),
                   b=np.zeros(fan_out, dtype=dtype),
                   activation=activation)


def fc_forward(layer: FcLayer, x: np.ndarray):
    """act(x W^T + b) for a frame batch x [N, in]."""
    if x.ndim != 2 or x.shape[1] != layer.w.shape[1]:
        raise ValueError(f"fc input {x.shape} is not [N, {layer.w.shape[1]}]")
    y = _affine(x, layer.w, layer.b)
    if layer.activation == "relu":
        np.maximum(y, 0, out=y)
    return y, (x, y)


def _affine(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x @ w.T + b, adding b in the product's own buffer."""
    y = x @ w.T
    y += b
    return y


def fc_backward(layer: FcLayer, cache, d_out: np.ndarray, input_grad: bool = True):
    """Returns (d_x, d_w, d_b); d_x is None when input_grad is False.

    relu'(0) is taken as 0.
    """
    x, y = cache
    if layer.activation == "relu":
        d_pre = d_out * (y > 0)
    else:
        d_pre = d_out
    d_w = d_pre.T @ x
    d_b = d_pre.sum(axis=0)
    d_x = d_pre @ layer.w if input_grad else None
    return d_x, d_w, d_b


# ---------------------------------------------------------------------------
# batches of sequences
# ---------------------------------------------------------------------------

def _batch_lengths(x: np.ndarray, lengths=None) -> np.ndarray:
    """Check concatenated frames [N, D] against per-sequence lengths.

    Returns lengths as an int array, [N] when None is given.
    """
    if x.ndim != 2:
        raise ValueError(f"expected concatenated frames [N, D], got shape {x.shape}")
    if x.shape[0] < 1:
        raise ValueError("a batch needs at least one frame")
    if lengths is None:
        return np.array([x.shape[0]], dtype=np.intp)
    lengths = np.asarray(lengths, dtype=np.intp)
    if lengths.ndim != 1 or lengths.sum() != x.shape[0] or lengths.min() < 1:
        raise ValueError(f"lengths {lengths.tolist()} do not split {x.shape[0]} frames "
                         f"into sequences")
    return lengths


# ---------------------------------------------------------------------------
# delta / delta-delta temporal regression
# ---------------------------------------------------------------------------

MAX_THETA = 100  # the widest delta half-window; a delta call makes theta passes


@dataclass(frozen=True)
class DeltaWindow:
    """Regression half-window for delta features; boundaries edge-replicate."""

    theta: int = 2

    def __post_init__(self):
        if not 1 <= self.theta <= MAX_THETA:
            raise ValueError(f"delta window must be from 1 to {MAX_THETA}, got {self.theta}")

    @cached_property
    def coeffs(self) -> tuple[float, ...]:
        """k / (2 * sum_k k^2) for k = 1..theta, computed once per window."""
        denom = 2.0 * sum(k * k for k in range(1, self.theta + 1))
        return tuple(k / denom for k in range(1, self.theta + 1))


def delta_forward(seq: np.ndarray, win: DeltaWindow, lengths=None) -> np.ndarray:
    """d_t = sum_k k*(c_{t+k} - c_{t-k}) / (2*sum_k k^2), edges replicated.

    Frame indices clamp into each sequence's own frames. A constant
    sequence maps to exactly zero: every term is a difference of identical
    values.
    """
    lengths = _batch_lengths(seq, lengths)
    ends = np.repeat(np.cumsum(lengths), lengths)
    starts = ends - np.repeat(lengths, lengths)
    rows = np.arange(len(seq))
    out = np.zeros_like(seq)
    for k, coeff in enumerate(win.coeffs, 1):
        out += coeff * (seq[np.minimum(rows + k, ends - 1)] - seq[np.maximum(rows - k, starts)])
    return out


def delta_backward(d_out: np.ndarray, win: DeltaWindow, lengths=None) -> np.ndarray:
    """Adjoint of delta_forward (the map is linear)."""
    lengths = _batch_lengths(d_out, lengths)
    theta, batch = win.theta, len(lengths)
    ends = np.cumsum(lengths)
    first, last = ends - lengths, ends - 1
    # each sequence's extended block holds theta rows, its frames, then theta
    # rows; the outer rows all read the edge frame next to them
    pos = np.arange(len(d_out)) + np.repeat(theta * (2 * np.arange(batch) + 1), lengths)
    d_ext = np.zeros((len(d_out) + 2 * theta * batch, d_out.shape[1]), dtype=d_out.dtype)
    for k, coeff in enumerate(win.coeffs, 1):
        d_ext[pos + k] += coeff * d_out
        d_ext[pos - k] -= coeff * d_out
    edge = np.arange(theta)[:, None]
    head = d_ext[pos[first] - theta + edge].sum(axis=0)
    tail = d_ext[pos[last] + 1 + edge].sum(axis=0)
    d_seq = d_ext[pos]
    d_seq[first] += head
    d_seq[last] += tail
    return d_seq


def append_deltas(seq: np.ndarray, win: DeltaWindow, lengths=None) -> np.ndarray:
    """[N, D] -> [N, 3D]: the frames with delta and delta-delta appended."""
    d1 = delta_forward(seq, win, lengths)
    d2 = delta_forward(d1, win, lengths)
    return np.concatenate([seq, d1, d2], axis=-1)


def append_deltas_backward(d_out: np.ndarray, win: DeltaWindow, lengths=None) -> np.ndarray:
    width = d_out.shape[-1]
    if width % 3 != 0:
        raise ValueError(f"append_deltas output width {width} not divisible by 3")
    d = width // 3
    d_seq = d_out[..., :d].copy()
    d_seq += delta_backward(d_out[..., d:2 * d], win, lengths)
    d_seq += delta_backward(delta_backward(d_out[..., 2 * d:], win, lengths), win, lengths)
    return d_seq


# ---------------------------------------------------------------------------
# LSTM / BLSTM
# ---------------------------------------------------------------------------

@dataclass
class LstmParams:
    """Gate rows are stacked in the order i, f, g (candidate), o."""

    wx: np.ndarray  # [4H, D]
    wh: np.ndarray  # [4H, H]
    b: np.ndarray   # [4H]

    @property
    def hidden(self) -> int:
        return self.wh.shape[1]


def lstm_init(input_dim: int, hidden: int, rng: Rng, dtype=DEFAULT_DTYPE) -> LstmParams:
    """Glorot per gate block; forget-gate bias starts at 1."""
    wx = np.concatenate([glorot_init(input_dim, hidden, rng, dtype) for _ in range(4)])
    wh = np.concatenate([glorot_init(hidden, hidden, rng, dtype) for _ in range(4)])
    b = np.zeros(4 * hidden, dtype=dtype)
    b[hidden:2 * hidden] = 1.0
    return LstmParams(wx=wx, wh=wh, b=b)


def _recurrence_slots(lengths: np.ndarray, reverse: bool):
    """Frames in packed recurrence order.

    Ranks the sequences longest first with a stable sort. Returns (offsets,
    frames): rows offsets[t]:offsets[t + 1] are step t's, rank by rank, and
    row r reads concatenated frame frames[r], frame `step` of its sequence,
    or lengths[b] - 1 - step of a reversed one.
    """
    order = np.argsort(-lengths, kind="stable")
    live = np.arange(lengths.max())[:, None] < lengths[order]
    step, rank = np.nonzero(live)
    col = order[rank]
    ends = np.cumsum(lengths)[col]
    frames = ends - 1 - step if reverse else ends - lengths[col] + step
    return [0, *np.cumsum(live.sum(axis=1)).tolist()], frames


def lstm_forward(p: LstmParams, seq: np.ndarray, reverse: bool = False, lengths=None):
    """Run the LSTM recurrence over each sequence; returns (h, cache).

    seq is [N, D], the concatenated frames of sequences of the given
    lengths (one sequence when lengths is None); h is [N, H], row by row.
    With reverse=True each sequence runs backward over its own frames and
    the output is flipped back, so output row t still describes frame t.

    The recurrence runs packed (module docstring). The state starts at
    zero, so step 0 has no recurrent product; each later step multiplies
    its h rows by a C-contiguous copy of wh.T and does its gate math in
    place in its rows of the input projection, which becomes the gates
    cache, writing c, tanh(c) and h straight into their caches.
    """
    lengths = _batch_lengths(seq, lengths)
    if seq.shape[1] != p.wx.shape[1]:
        raise ValueError(f"lstm input width {seq.shape[1]} != weight width {p.wx.shape[1]}")
    batch, hidden, dtype = len(lengths), p.hidden, seq.dtype
    offsets, frames = _recurrence_slots(lengths, reverse)
    rows = seq[frames]
    gates = _affine(rows, p.wx, p.b)
    c_seq, tc_seq, h_seq = np.empty((3, len(rows), hidden), dtype=dtype)
    h = c = np.zeros((batch, hidden), dtype=dtype)
    # a one-row product runs as a gemv, whose summation order follows the
    # weight's layout, so a batch of one keeps the transposed view
    wh_t = p.wh.T if batch == 1 else np.ascontiguousarray(p.wh.T)
    hz = np.empty((batch, 4 * hidden), dtype=dtype)
    g_tmp, ig = np.empty((2, batch, hidden), dtype=dtype)
    cand = slice(2 * hidden, 3 * hidden)
    for lo, hi in zip(offsets, offsets[1:]):
        n = hi - lo
        a = gates[lo:hi]
        if lo:
            a += np.matmul(h[:n], wh_t, out=hz[:n])
        np.tanh(a[:, cand], out=g_tmp[:n])
        # sigmoid(), one operation at a time
        a *= 0.5
        np.tanh(a, out=a)
        a *= 0.5
        a += 0.5
        a[:, cand] = g_tmp[:n]
        i, f, g, o = a[:, :hidden], a[:, hidden:2 * hidden], a[:, cand], a[:, 3 * hidden:]
        c = np.multiply(f, c[:n], out=c_seq[lo:hi])
        c += np.multiply(i, g, out=ig[:n])
        np.tanh(c, out=tc_seq[lo:hi])
        h = np.multiply(o, tc_seq[lo:hi], out=h_seq[lo:hi])
    require_finite(h_seq, "lstm activations")
    out = np.empty_like(h_seq)
    out[frames] = h_seq
    return out, (rows, gates, c_seq, tc_seq, h_seq, offsets, frames)


def lstm_backward(p: LstmParams, cache, d_h_seq: np.ndarray, input_grad: bool = True):
    """Full backpropagation through time over the batch.

    d_h_seq has the forward output's shape. Returns (d_seq, grads) with
    grads = {"wx", "wh", "b"} summed over the batch; d_seq is None when
    input_grad is False.
    """
    rows, gates, c_seq, tc_seq, h_seq, offsets, frames = cache
    hidden = p.hidden
    i_, f_, g_, o_ = (slice(k * hidden, (k + 1) * hidden) for k in range(4))
    # each gate derivative's last factor (1 - i, 1 - f, 1 - g^2, 1 - o) and
    # 1 - tanh(c)^2, for every row at once
    closing = 1.0 - gates
    np.subtract(1.0, gates[:, g_] * gates[:, g_], out=closing[:, g_])
    d_tanh = 1.0 - tc_seq * tc_seq
    d_h = d_h_seq[frames]
    dz_seq = np.empty_like(gates)
    dh_next = dc_next = np.zeros((offsets[-1] - offsets[-2], hidden), dtype=h_seq.dtype)
    for t in range(len(offsets) - 2, -1, -1):
        lo, hi = offsets[t], offsets[t + 1]
        a, dz = gates[lo:hi], dz_seq[lo:hi]
        c_prev = c_seq[offsets[t - 1]:offsets[t - 1] + hi - lo] if t else 0.0
        # ranks past the next step's n have ended: no gradient comes back
        dh = d_h[lo:hi]
        dh[:len(dh_next)] += dh_next
        dc = dh * a[:, o_]
        dc *= d_tanh[lo:hi]
        dc[:len(dc_next)] += dc_next
        # dz_i = dc*g*i*(1-i), dz_f = dc*c_prev*f*(1-f), dz_g = dc*i*(1-g^2)
        # and dz_o = dh*tanh(c)*o*(1-o), multiplied left to right
        np.multiply(dc, a[:, g_], out=dz[:, i_])
        np.multiply(dc, c_prev, out=dz[:, f_])
        dz[:, :2 * hidden] *= a[:, :2 * hidden]
        np.multiply(dc, a[:, i_], out=dz[:, g_])
        np.multiply(dh, tc_seq[lo:hi], out=dz[:, o_])
        dz[:, o_] *= a[:, o_]
        dz *= closing[lo:hi]
        if t:
            dh_next = dz @ p.wh
            dc_next = dc * a[:, f_]
    # h starts at zero; each later row pairs with its rank's row a step earlier
    sizes = np.diff(offsets)
    prev = np.arange(offsets[1], offsets[-1]) - np.repeat(sizes[:-1], sizes[1:])
    d_wh = dz_seq[offsets[1]:].T @ h_seq[prev]
    d_wx = dz_seq.T @ rows
    d_b = dz_seq.sum(axis=0)
    d_x = None
    if input_grad:
        d_rows = dz_seq @ p.wx
        d_x = np.empty_like(d_rows)
        d_x[frames] = d_rows
    return d_x, {"wx": d_wx, "wh": d_wh, "b": d_b}


@dataclass
class Blstm:
    fwd: LstmParams
    bwd: LstmParams

    @property
    def hidden(self) -> int:
        return self.fwd.hidden


def blstm_init(input_dim: int, hidden: int, rng: Rng, dtype=DEFAULT_DTYPE) -> Blstm:
    # forward half is drawn first, then backward: fixed order keeps runs reproducible
    return Blstm(fwd=lstm_init(input_dim, hidden, rng, dtype),
                 bwd=lstm_init(input_dim, hidden, rng, dtype))


def blstm_forward(bl: Blstm, seq: np.ndarray, lengths=None, keep_cache: bool = True):
    """[N, D] -> [N, 2H]: forward-time and reverse-time states concatenated.

    The cache is the list [forward cache, reverse cache], which
    blstm_backward empties. Without keep_cache both are None, each dropped
    as soon as its direction has run.
    """
    h_f, cache_f = lstm_forward(bl.fwd, seq, lengths=lengths)
    if not keep_cache:
        cache_f = None
    h_b, cache_b = lstm_forward(bl.bwd, seq, reverse=True, lengths=lengths)
    if not keep_cache:
        cache_b = None
    return np.concatenate([h_f, h_b], axis=-1), [cache_f, cache_b]


def blstm_backward(bl: Blstm, cache: list, d_out: np.ndarray, input_grad: bool = True):
    """(d_seq, grads), grads named as in a model: fwd.wx, fwd.wh, fwd.b, then bwd's.

    Consumes cache: each direction's cache leaves the list as its backward
    starts and is freed when it returns. d_seq is None when input_grad is
    False.
    """
    hidden = bl.hidden
    d_seq, grads_f = lstm_backward(bl.fwd, cache.pop(0), d_out[..., :hidden], input_grad)
    d_seq_b, grads_b = lstm_backward(bl.bwd, cache.pop(), d_out[..., hidden:], input_grad)
    if input_grad:
        d_seq += d_seq_b
    grads = {f"{half}.{name}": g for half, halves in (("fwd", grads_f), ("bwd", grads_b))
             for name, g in halves.items()}
    return d_seq, grads


# ---------------------------------------------------------------------------
# softmax cross-entropy
# ---------------------------------------------------------------------------

def softmax_xent(logits: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy over frames; returns (loss, d_logits).

    loss = mean over frames of -log softmax(logits_t)[label_t], computed
    with the log-sum-exp max shift.
    """
    n, k = logits.shape
    if n == 0:
        raise ValueError("softmax_xent needs at least one frame")
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise ValueError("labels must be one entry per frame")
    if labels.min() < 0 or labels.max() >= k:
        raise ValueError(f"labels must lie in [0, {k})")
    shifted = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - lse
    rows = np.arange(n)
    loss = -float(logp[rows, labels].sum()) / n
    d_logits = np.exp(logp)
    d_logits[rows, labels] -= 1.0
    d_logits *= np.ones(1, dtype=logits.dtype) / float(n)
    return loss, d_logits


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with the max shift."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)
