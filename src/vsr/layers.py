"""Differentiable building blocks with exact analytic gradients.

Every forward returns (output, cache); the matching backward consumes the
cache plus the upstream gradient and returns exact input and parameter
gradients. Layers never mutate their inputs, so concurrent evaluation on
distinct sequences is safe.

Shapes follow the conventions: frame batches are [N, D] with one row per
frame (fc layers take nothing else), weight sheets are [out, in]. Sequence
layers (deltas, LSTM, BLSTM) take a time-major batch [T, B, D] plus
per-sequence `lengths` (sequence b fills its first lengths[b] frames; None
means all T), or a single [T, D] sequence, which runs the same code as a
batch of one. Rows past a sequence's end are padding: zero in
sequence-layer outputs and input gradients, ignored in upstream gradients.
In an LSTM cache the slots after a sequence's last step hold a finite
continuation of its recurrence that nothing reads, not held h and c.

A layer's parameters and its input share one dtype; callers cast the model
and the data together, so no layer call mixes precisions.

The forward passes compute in buffers they own: fc_forward adds the bias
and applies the ReLU in the product's array, and lstm_forward does its gate
math in the input projection, which becomes the gates cache, and multiplies
h by a C-contiguous copy of the recurrent weight. The operations and their
order are those of the allocating formulas; only the contiguous weight
changes how BLAS may round the recurrent product, at some shapes.
"""

from __future__ import annotations

from dataclasses import dataclass

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

def _as_batch(seq: np.ndarray, lengths=None):
    """View [T, D] as a batch of one [T, 1, D]; check lengths against [T, B, D].

    Returns (x, lengths) with lengths an int array, all T when None is given.
    """
    x = seq[:, None] if seq.ndim == 2 else seq
    if x.ndim != 3:
        raise ValueError(f"expected [T, D] or [T, B, D], got shape {seq.shape}")
    t_len, batch = x.shape[:2]
    if t_len < 1 or batch < 1:
        raise ValueError("a batch needs at least one frame and one sequence")
    if lengths is None:
        return x, np.full(batch, t_len)
    lengths = np.asarray(lengths, dtype=np.intp)
    if lengths.shape != (batch,) or lengths.min() < 1 or lengths.max() > t_len:
        raise ValueError(f"lengths {lengths.tolist()} do not fit {batch} sequences "
                         f"of at most {t_len} frames")
    return x, lengths


def _padding_mask(lengths: np.ndarray, t_len: int):
    """[T, B] True on frames past each sequence's end; None if there are none."""
    if lengths.min() == t_len:
        return None
    return np.arange(t_len)[:, None] >= lengths


# ---------------------------------------------------------------------------
# delta / delta-delta temporal regression
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DeltaWindow:
    """Regression half-window for delta features; boundaries edge-replicate."""

    theta: int = 2

    def __post_init__(self):
        if self.theta < 1:
            raise ValueError(f"delta window must be >= 1, got {self.theta}")

    @property
    def denom(self) -> float:
        return 2.0 * sum(k * k for k in range(1, self.theta + 1))


def delta_forward(seq: np.ndarray, win: DeltaWindow, lengths=None) -> np.ndarray:
    """d_t = sum_k k*(c_{t+k} - c_{t-k}) / (2*sum_k k^2), edges replicated.

    seq is one [T, D] sequence or a time-major [T, B, D] batch; frame
    indices clamp into each sequence's own lengths[b] frames, and rows past
    a sequence's end come out zero. A constant sequence maps to exactly
    zero: every term is a difference of identical values.
    """
    x, lengths = _as_batch(seq, lengths)
    t_len, theta = x.shape[0], win.theta
    # ext[s] is frame s - theta clamped into its own sequence, so every
    # shifted window below is a plain slice
    src = np.clip(np.arange(-theta, t_len + theta)[:, None], 0, lengths - 1)
    ext = x[src, np.arange(x.shape[1])]
    out = np.zeros_like(x)
    for k in range(1, theta + 1):
        out += (k / win.denom) * (ext[theta + k:theta + k + t_len]
                                  - ext[theta - k:theta - k + t_len])
    pad = _padding_mask(lengths, t_len)
    if pad is not None:
        out[pad] = 0.0
    return out.reshape(seq.shape)


def delta_backward(d_out: np.ndarray, win: DeltaWindow, lengths=None) -> np.ndarray:
    """Adjoint of delta_forward (the map is linear); padded rows are ignored."""
    d, lengths = _as_batch(d_out, lengths)
    t_len, batch = d.shape[:2]
    theta = win.theta
    pad = _padding_mask(lengths, t_len)
    if pad is not None:
        d = d.copy()
        d[pad] = 0.0
    d_ext = np.zeros((t_len + 2 * theta, *d.shape[1:]), dtype=d.dtype)
    for k in range(1, theta + 1):
        coeff = k / win.denom
        d_ext[theta + k:theta + k + t_len] += coeff * d
        d_ext[theta - k:theta - k + t_len] -= coeff * d
    # ext rows map one to one onto frames, except the theta rows beyond
    # either end of a sequence, which all read its edge frame
    cols = np.arange(batch)
    head = d_ext[:theta].sum(axis=0)
    tail = d_ext[lengths + theta + np.arange(theta)[:, None], cols].sum(axis=0)
    d_seq = d_ext[theta:theta + t_len]
    d_seq[0] += head
    d_seq[lengths - 1, cols] += tail
    if pad is not None:
        d_seq[pad] = 0.0
    return d_seq.reshape(d_out.shape)


def append_deltas(seq: np.ndarray, win: DeltaWindow, lengths=None) -> np.ndarray:
    """[T, (B,) D] -> [T, (B,) 3D]: the sequence with delta and delta-delta appended."""
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


def lstm_init(input_dim: int, hidden: int, rng: Rng, dtype=DEFAULT_DTYPE,
              forget_bias: float = 1.0) -> LstmParams:
    """Glorot per gate block; forget-gate bias starts at forget_bias."""
    wx = np.concatenate([glorot_init(input_dim, hidden, rng, dtype) for _ in range(4)])
    wh = np.concatenate([glorot_init(hidden, hidden, rng, dtype) for _ in range(4)])
    b = np.zeros(4 * hidden, dtype=dtype)
    b[hidden:2 * hidden] = forget_bias
    return LstmParams(wx=wx, wh=wh, b=b)


def _recurrence_slots(lengths: np.ndarray, steps: int, reverse: bool):
    """Valid frames in recurrence order, or None when all run every step.

    Returns ((step, col), (time, col)) index arrays: the recurrence slot of
    each valid frame and the input frame it reads, ordered by step then
    sequence. Reversed sequences read lengths[b] - 1 - step.
    """
    if lengths.min() == steps:
        return None
    step, col = np.nonzero(np.arange(steps)[:, None] < lengths)
    time = lengths[col] - 1 - step if reverse else step
    return (step, col), (time, col)


def lstm_forward(p: LstmParams, seq: np.ndarray, reverse: bool = False, lengths=None):
    """Run the LSTM recurrence over a time-major batch; returns (h, cache).

    seq is [T, B, D] with sequence b in its first lengths[b] frames (all T
    when lengths is None), or a single [T, D] sequence; h is [T, B, H] or
    [T, H] to match. Output rows past a sequence's end are zero. With
    reverse=True each sequence runs backward over its own frames and the
    output is flipped back, so output row t still describes frame t.

    Only valid frames enter the input projection (gathered, projected,
    scattered back), and the recurrence stops at the longest sequence, so
    the padding length changes no bit of the result. A shorter sequence's
    slots after its last step carry on from a zero input: a finite
    continuation that no output row and no gradient reads, because in
    recurrence order they all come after that sequence's last step.

    Each step multiplies h by a C-contiguous copy of wh.T and does its gate
    math in place in the step's row of the input projection, which becomes
    the gates cache; c, tanh(c) and h are written straight into their caches.
    The parameters and seq share one dtype, which every buffer takes.
    """
    x, lengths = _as_batch(seq, lengths)
    if x.shape[2] != p.wx.shape[1]:
        raise ValueError(f"lstm input width {x.shape[2]} != weight width {p.wx.shape[1]}")
    t_len, batch, _ = x.shape
    hidden, dtype = p.hidden, x.dtype
    steps = int(lengths.max())
    slots = _recurrence_slots(lengths, steps, reverse)
    if slots is None:
        rows = (x[steps - 1::-1] if reverse else x[:steps]).reshape(steps * batch, -1)
        gates = _affine(rows, p.wx, p.b).reshape(steps, batch, 4 * hidden)
    else:
        rows = x[slots[1]]
        gates = np.zeros((steps, batch, 4 * hidden), dtype=dtype)
        gates[slots[0]] = _affine(rows, p.wx, p.b)
    c_seq = np.empty((steps, batch, hidden), dtype=dtype)
    tc_seq = np.empty_like(c_seq)
    h_seq = np.empty_like(c_seq)
    h = np.zeros((batch, hidden), dtype=dtype)
    c = np.zeros_like(h)
    # a one-row product runs as a gemv, whose summation order follows the
    # weight's layout, so a batch of one keeps the transposed view
    wh_t = p.wh.T if batch == 1 else np.ascontiguousarray(p.wh.T)
    hz = np.empty((batch, 4 * hidden), dtype=dtype)
    g_tmp = np.empty_like(h)
    ig = np.empty_like(h)
    cand = slice(2 * hidden, 3 * hidden)
    for t in range(steps):
        a = gates[t]
        a += np.matmul(h, wh_t, out=hz)
        np.tanh(a[:, cand], out=g_tmp)
        # sigmoid(), one operation at a time
        a *= 0.5
        np.tanh(a, out=a)
        a *= 0.5
        a += 0.5
        a[:, cand] = g_tmp
        i, f, g, o = a[:, :hidden], a[:, hidden:2 * hidden], a[:, cand], a[:, 3 * hidden:]
        c = np.multiply(f, c, out=c_seq[t])
        c += np.multiply(i, g, out=ig)
        np.tanh(c, out=tc_seq[t])
        h = np.multiply(o, tc_seq[t], out=h_seq[t])
    require_finite(h_seq, "lstm activations")
    out = np.zeros((t_len, batch, hidden), dtype=dtype)
    if slots is None:
        out[:steps] = h_seq[::-1] if reverse else h_seq
    else:
        out[slots[1]] = h_seq[slots[0]]
    cache = (rows, gates, c_seq, tc_seq, h_seq, slots, reverse, t_len)
    return out.reshape(*seq.shape[:-1], hidden), cache


def lstm_backward(p: LstmParams, cache, d_h_seq: np.ndarray):
    """Full backpropagation through time over the batch.

    d_h_seq has the forward output's shape; its rows past a sequence's end
    are ignored. Returns (d_seq, grads) with grads = {"wx", "wh", "b"}
    summed over the batch; d_seq rows past a sequence's end are zero.
    """
    rows, gates, c_seq, tc_seq, h_seq, slots, reverse, t_len = cache
    steps, batch, hidden = h_seq.shape
    d_h = d_h_seq[:, None] if d_h_seq.ndim == 2 else d_h_seq
    if slots is None:
        d_rec = d_h[steps - 1::-1] if reverse else d_h[:steps]
    else:
        d_rec = np.zeros_like(h_seq)
        d_rec[slots[0]] = d_h[slots[1]]
    # a padded slot has zero upstream gradient and comes after its
    # sequence's last step, so its dz is exactly zero without masking
    dz_seq = np.empty_like(gates)
    dh_next = np.zeros((batch, hidden), dtype=h_seq.dtype)
    dc_next = np.zeros_like(dh_next)
    for t in range(steps - 1, -1, -1):
        i = gates[t, :, :hidden]
        f = gates[t, :, hidden:2 * hidden]
        g = gates[t, :, 2 * hidden:3 * hidden]
        o = gates[t, :, 3 * hidden:]
        tc = tc_seq[t]
        c_prev = c_seq[t - 1] if t > 0 else 0.0
        dh = d_rec[t] + dh_next
        dc = dh * o * (1.0 - tc * tc) + dc_next
        dz = dz_seq[t]
        dz[:, :hidden] = dc * g * i * (1.0 - i)
        dz[:, hidden:2 * hidden] = dc * c_prev * f * (1.0 - f)
        dz[:, 2 * hidden:3 * hidden] = dc * i * (1.0 - g * g)
        dz[:, 3 * hidden:] = dh * tc * o * (1.0 - o)
        dh_next = dz @ p.wh
        dc_next = dc * f
    # reductions run over valid slots only; the initial h is zero, so
    # first steps contribute nothing to wh
    if slots is None:
        dz_rows = dz_seq.reshape(steps * batch, -1)
        d_wh = dz_seq[1:].reshape(-1, 4 * hidden).T @ h_seq[:-1].reshape(-1, hidden)
    else:
        dz_rows = dz_seq[slots[0]]
        step, col = slots[0]
        later = step > 0
        d_wh = dz_seq[step[later], col[later]].T @ h_seq[step[later] - 1, col[later]]
    d_wx = dz_rows.T @ rows
    d_b = dz_rows.sum(axis=0)
    d_rows = dz_rows @ p.wx
    d_x = np.zeros((t_len, batch, d_rows.shape[1]), dtype=d_rows.dtype)
    if slots is None:
        d_steps = d_rows.reshape(steps, batch, -1)
        d_x[:steps] = d_steps[::-1] if reverse else d_steps
    else:
        d_x[slots[1]] = d_rows
    return d_x.reshape(*d_h_seq.shape[:-1], -1), {"wx": d_wx, "wh": d_wh, "b": d_b}


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


def blstm_forward(bl: Blstm, seq: np.ndarray, lengths=None):
    """[T, (B,) D] -> [T, (B,) 2H]: forward-time and reverse-time states concatenated."""
    h_f, cache_f = lstm_forward(bl.fwd, seq, lengths=lengths)
    h_b, cache_b = lstm_forward(bl.bwd, seq, reverse=True, lengths=lengths)
    return np.concatenate([h_f, h_b], axis=-1), (cache_f, cache_b)


def blstm_backward(bl: Blstm, cache, d_out: np.ndarray):
    cache_f, cache_b = cache
    hidden = bl.hidden
    d_seq_f, grads_f = lstm_backward(bl.fwd, cache_f, d_out[..., :hidden])
    d_seq_b, grads_b = lstm_backward(bl.bwd, cache_b, d_out[..., hidden:])
    return d_seq_f + d_seq_b, {"fwd": grads_f, "bwd": grads_b}


# ---------------------------------------------------------------------------
# softmax cross-entropy
# ---------------------------------------------------------------------------

def softmax_xent(logits: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy over frames; returns (loss, d_logits).

    loss = mean over frames of -log softmax(logits_t)[label_t], computed
    with the log-sum-exp max shift. Padding never reaches it: callers pass
    only valid frames.
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
