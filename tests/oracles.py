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


def ref_lstm_steps(p, seq, reverse=False, lengths=None, wh_t=None, packed=False):
    """The allocating, hold-masked batched recurrence; returns (h, cache).

    A transcription of lstm_forward as it was before it computed in place
    and packed its rows: fresh temporaries every step, gates in their own
    [steps, B] array, and h/c held still once a sequence ends. Columns are
    ranked longest first, as lstm_forward ranks them, so the live sequences
    of step t are its first n_t columns. Every step multiplies all B
    columns' h, or with packed=True only the n_t live ones, as lstm_forward
    does. wh_t is the [H, 4H] matrix each step multiplies h by, the
    transposed view of p.wh by default; BLAS may round that product
    differently for a C-contiguous copy at some shapes. The cache is
    lstm_forward's: the live rows, step by step. seq is lstm_forward's
    [N, D] concatenated frames, and so are h and the input gradient.
    """
    from vsr.layers import _batch_lengths, _recurrence_slots, sigmoid

    lengths = _batch_lengths(seq, lengths)
    batch, hidden, dtype = len(lengths), p.hidden, seq.dtype
    offsets, frames = _recurrence_slots(lengths, reverse)
    steps = len(offsets) - 1
    sizes = np.diff(offsets)
    live = np.arange(batch) < sizes[:, None]
    rows = seq[frames]
    xz = np.zeros((steps, batch, 4 * hidden), dtype=dtype)
    xz[live] = rows @ p.wx.T + p.b
    gates = np.empty((steps, batch, 4 * hidden), dtype=dtype)
    c_seq = np.empty((steps, batch, hidden), dtype=dtype)
    tc_seq = np.empty_like(c_seq)
    h_seq = np.empty_like(c_seq)
    h = np.zeros((batch, hidden), dtype=dtype)
    c = np.zeros_like(h)
    wh_t = p.wh.T if wh_t is None else wh_t
    cand = slice(2 * hidden, 3 * hidden)
    for t in range(steps):
        n = sizes[t] if packed else batch
        z = xz[t].copy()
        z[:n] = xz[t, :n] + h[:n] @ wh_t
        a = gates[t]
        a[...] = sigmoid(z)
        a[:, cand] = np.tanh(z[:, cand])
        i, f, g, o = a[:, :hidden], a[:, hidden:2 * hidden], a[:, cand], a[:, 3 * hidden:]
        c_t = np.multiply(f, c, out=c_seq[t])
        c_t += i * g
        np.tanh(c_t, out=tc_seq[t])
        np.multiply(o, tc_seq[t], out=h_seq[t])
        h = np.where(live[t, :, None], h_seq[t], h)
        c = np.where(live[t, :, None], c_t, c)
    out = np.zeros((len(seq), hidden), dtype=dtype)
    out[frames] = h_seq[live]
    return out, (rows, gates[live], c_seq[live], tc_seq[live], h_seq[live], offsets, frames)


def ref_lstm_backward(p, cache, d_h_seq):
    """lstm_backward as it was before it packed and precomputed: each step's
    terms as fresh arrays in formula order, with zero carries into ranks
    that have ended, as padded slots once had. The weight-gradient products
    are lstm_backward's, over the packed rows."""
    rows, gates, c_seq, tc_seq, h_seq, offsets, frames = cache
    hidden = p.hidden
    d_h = d_h_seq[frames]
    dz_seq = np.empty_like(gates)
    dh_next = np.zeros((offsets[1], hidden), dtype=gates.dtype)
    dc_next = np.zeros_like(dh_next)
    for t in range(len(offsets) - 2, -1, -1):
        lo, hi = offsets[t], offsets[t + 1]
        n = hi - lo
        i, f, g, o = (gates[lo:hi, k * hidden:(k + 1) * hidden] for k in range(4))
        tc = tc_seq[lo:hi]
        c_prev = c_seq[offsets[t - 1]:offsets[t - 1] + n] if t else 0.0
        dh = d_h[lo:hi] + dh_next[:n]
        dc = dh * o * (1.0 - tc * tc) + dc_next[:n]
        dz = dz_seq[lo:hi]
        dz[:, :hidden] = dc * g * i * (1.0 - i)
        dz[:, hidden:2 * hidden] = dc * c_prev * f * (1.0 - f)
        dz[:, 2 * hidden:3 * hidden] = dc * i * (1.0 - g * g)
        dz[:, 3 * hidden:] = dh * tc * o * (1.0 - o)
        dh_next, dc_next = np.zeros_like(dh_next), np.zeros_like(dc_next)
        dh_next[:n] = dz @ p.wh
        dc_next[:n] = dc * f
    later = np.arange(offsets[1], offsets[-1])
    prev = later - np.repeat(np.diff(offsets)[:-1], np.diff(offsets)[1:])
    d_x = np.zeros((len(d_h_seq), p.wx.shape[1]), dtype=gates.dtype)
    d_x[frames] = dz_seq @ p.wx
    return d_x, {"wx": dz_seq.T @ rows, "wh": dz_seq[later].T @ h_seq[prev],
                 "b": dz_seq.sum(axis=0)}


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
