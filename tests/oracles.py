"""Independent reference implementations used as test oracles.

These deliberately re-derive results with the plainest possible code
(per-element loops, direct formula transcription) so that agreement with
the library is evidence, not tautology.
"""

import numpy as np


def ref_delta(seq: np.ndarray, theta: int) -> np.ndarray:
    """Windowed regression deltas with edge replication, one frame at a time."""
    t_len = seq.shape[0]
    denom = 2.0 * sum(k * k for k in range(1, theta + 1))
    out = np.zeros_like(seq)
    for t in range(t_len):
        acc = np.zeros(seq.shape[1], dtype=seq.dtype)
        for k in range(1, theta + 1):
            ahead = seq[min(t + k, t_len - 1)]
            behind = seq[max(t - k, 0)]
            acc = acc + k * (ahead - behind)
        out[t] = acc / denom
    return out


def ref_sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def ref_lstm(wx, wh, b, seq, reverse=False):
    """Step-by-step LSTM recurrence, gate order i, f, g, o."""
    hidden = wh.shape[1]
    x = seq[::-1] if reverse else seq
    h = np.zeros(hidden, dtype=seq.dtype)
    c = np.zeros(hidden, dtype=seq.dtype)
    outs = []
    for t in range(x.shape[0]):
        z = wx @ x[t] + wh @ h + b
        i = ref_sigmoid(z[:hidden])
        f = ref_sigmoid(z[hidden:2 * hidden])
        g = np.tanh(z[2 * hidden:3 * hidden])
        o = ref_sigmoid(z[3 * hidden:])
        c = f * c + i * g
        h = o * np.tanh(c)
        outs.append(h)
    out = np.stack(outs)
    return out[::-1] if reverse else out


def ref_lstm_steps(p, seq, reverse=False, lengths=None, wh_t=None):
    """The allocating, hold-masked batched recurrence; returns (h, cache).

    A transcription of lstm_forward as it was before it computed in place:
    fresh temporaries every step, gates in their own array, and h/c held
    still once a sequence ends. wh_t is the [H, 4H] matrix each step
    multiplies h by, the transposed view of p.wh by default; BLAS may round
    that product differently for a C-contiguous copy at some shapes.
    """
    from vsr.layers import _as_batch, _recurrence_slots, sigmoid

    x, lengths = _as_batch(seq, lengths)
    t_len, batch, _ = x.shape
    hidden, dtype = p.hidden, x.dtype
    steps = int(lengths.max())
    slots = _recurrence_slots(lengths, steps, reverse)
    if slots is None:
        rows = (x[steps - 1::-1] if reverse else x[:steps]).reshape(steps * batch, -1)
        xz = (rows @ p.wx.T + p.b).reshape(steps, batch, 4 * hidden)
    else:
        rows = x[slots[1]]
        xz = np.zeros((steps, batch, 4 * hidden), dtype=dtype)
        xz[slots[0]] = rows @ p.wx.T + p.b
    gates = np.empty((steps, batch, 4 * hidden), dtype=dtype)
    c_seq = np.empty((steps, batch, hidden), dtype=dtype)
    tc_seq = np.empty_like(c_seq)
    h_seq = np.empty_like(c_seq)
    h = np.zeros((batch, hidden), dtype=dtype)
    c = np.zeros_like(h)
    live = None if slots is None else (np.arange(steps)[:, None] < lengths)[..., None]
    wh_t = p.wh.T if wh_t is None else wh_t
    cand = slice(2 * hidden, 3 * hidden)
    for t in range(steps):
        z = xz[t] + h @ wh_t
        a = gates[t]
        a[...] = sigmoid(z)
        a[:, cand] = np.tanh(z[:, cand])
        i, f, g, o = a[:, :hidden], a[:, hidden:2 * hidden], a[:, cand], a[:, 3 * hidden:]
        c_t = np.multiply(f, c, out=c_seq[t])
        c_t += i * g
        np.tanh(c_t, out=tc_seq[t])
        np.multiply(o, tc_seq[t], out=h_seq[t])
        if live is None:
            h, c = h_seq[t], c_t
        else:
            h = np.where(live[t], h_seq[t], h)
            c = np.where(live[t], c_t, c)
    out = np.zeros((t_len, batch, hidden), dtype=dtype)
    if slots is None:
        out[:steps] = h_seq[::-1] if reverse else h_seq
    else:
        out[slots[1]] = h_seq[slots[0]]
    cache = (rows, gates, c_seq, tc_seq, h_seq, slots, reverse, t_len)
    return out.reshape(*seq.shape[:-1], hidden), cache


def ref_fc(w, b, x, relu):
    y = x @ w.T + b
    return np.maximum(y, 0) if relu else y


def ref_znorm_frames(flat):
    mean = flat.mean(axis=1, keepdims=True)
    centered = flat - mean
    std = np.sqrt((centered ** 2).mean(axis=1, keepdims=True))
    safe = np.where(std == 0, 1.0, std)
    return np.where(std == 0, 0.0, centered / safe)


def ref_preprocess(frames, kind, dtype):
    """The raw/diff stream formulas with a fresh array for every step."""
    x = frames.reshape(frames.shape[0], -1).astype(np.float64)
    x -= x.mean(axis=0, keepdims=True)
    if kind == "diff":
        d = np.zeros_like(x)
        d[1:] = x[1:] - x[:-1]
        x = d
    return ref_znorm_frames(x).astype(dtype)


def ref_softmax(row):
    e = np.exp(row - row.max())
    return e / e.sum()


def ref_mean_std(values):
    """Streaming (Welford) mean and sample standard deviation."""
    mean, m2, n = 0.0, 0.0, 0
    for v in values:
        n += 1
        d = v - mean
        mean += d / n
        m2 += d * (v - mean)
    std = (m2 / (n - 1)) ** 0.5 if n > 1 else 0.0
    return mean, std


def ref_adam(param, grad, state, lr, b1=0.9, b2=0.999, eps=1e-8):
    """The textbook Adam step, whole-tensor numpy expressions (mutates in place)."""
    state.t += 1
    state.m *= b1
    state.m += (1.0 - b1) * grad
    state.v *= b2
    state.v += (1.0 - b2) * np.square(grad)
    bc1 = 1.0 - b1 ** state.t
    bc2 = 1.0 - b2 ** state.t
    denom = np.sqrt(state.v / bc2)
    denom += eps
    param -= (lr / bc1) * state.m / denom
    return param, state
