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


def ref_adam(param, grad, state, lr):
    """The textbook Adam step, whole-tensor numpy expressions (mutates in place)."""
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    state.m *= b1
    state.m += (1.0 - b1) * grad
    state.v *= b2
    state.v += (1.0 - b2) * np.square(grad)
    bc1 = 1.0 - b1 ** state.t
    bc2 = 1.0 - b2 ** state.t
    denom = np.sqrt(state.v / bc2)
    denom += state.eps
    param -= (lr / bc1) * state.m / denom
    return param, state
