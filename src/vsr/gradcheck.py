"""Finite-difference verification of the analytic gradients.

Every check builds small random instances in float64, computes the analytic
gradient through the layer or model, and compares against central
differences. The relative error uses max(1, |a|, |n|) in the denominator so
near-zero entries are compared absolutely.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .layers import (Blstm, DeltaWindow, FcLayer, LstmParams, append_deltas,
                     append_deltas_backward, blstm_backward, blstm_forward,
                     delta_backward, delta_forward, fc_backward, fc_forward,
                     lstm_backward, lstm_forward, softmax_xent)
from .numerics import Rng

STEP = 1e-5
GRAD_TOL = 1e-5


def numerical_grad(f: Callable[[np.ndarray], float], x: np.ndarray,
                   step: float = STEP) -> np.ndarray:
    """Central-difference gradient of the scalar function f at x."""
    x = x.astype(np.float64)
    grad = np.zeros_like(x)
    flat, gflat = x.reshape(-1), grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        f_plus = f(x)
        flat[i] = orig - step
        f_minus = f(x)
        flat[i] = orig
        gflat[i] = (f_plus - f_minus) / (2.0 * step)
    return grad


def max_rel_err(analytic: np.ndarray, numerical: np.ndarray) -> float:
    if analytic.shape != numerical.shape:
        raise ValueError("gradient shapes disagree")
    if analytic.size == 0:
        return 0.0
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numerical)))
    return float(np.max(np.abs(analytic - numerical) / denom))


def _randn(rng: Rng, *shape: int) -> np.ndarray:
    return rng.normal(shape).astype(np.float64)


# ---------------------------------------------------------------------------
# layer checks: each runs one random instance, returns worst relative error
# ---------------------------------------------------------------------------

def check_fc(rng: Rng) -> float:
    n, d_in, d_out = 3, 4, 5
    worst = 0.0
    for act in ("relu", "linear"):
        layer = FcLayer(w=_randn(rng, d_out, d_in), b=_randn(rng, d_out), activation=act)
        x = _randn(rng, n, d_in)
        proj = _randn(rng, n, d_out)

        def loss(lw, lb, lx):
            y, _ = fc_forward(FcLayer(lw, lb, act), lx)
            return float((y * proj).sum())

        y, cache = fc_forward(layer, x)
        d_x, d_w, d_b = fc_backward(layer, cache, proj)
        worst = max(
            worst,
            max_rel_err(d_x, numerical_grad(lambda v: loss(layer.w, layer.b, v), x)),
            max_rel_err(d_w, numerical_grad(lambda v: loss(v, layer.b, x), layer.w)),
            max_rel_err(d_b, numerical_grad(lambda v: loss(layer.w, v, x), layer.b)),
        )
    return worst


def check_delta(rng: Rng) -> float:
    worst = 0.0
    for t_len, theta in ((5, 2), (2, 2), (4, 1)):
        win = DeltaWindow(theta)
        seq = _randn(rng, t_len, 3)
        proj = _randn(rng, t_len, 3)
        d_seq = delta_backward(proj, win)
        num = numerical_grad(lambda v: float((delta_forward(v, win) * proj).sum()), seq)
        worst = max(worst, max_rel_err(d_seq, num))

        proj3 = _randn(rng, t_len, 9)
        d_seq3 = append_deltas_backward(proj3, win)
        num3 = numerical_grad(lambda v: float((append_deltas(v, win) * proj3).sum()), seq)
        worst = max(worst, max_rel_err(d_seq3, num3))
    return worst


def _lstm_error(rng: Rng, seq_shape: tuple[int, ...], lengths, hidden: int) -> float:
    """Both directions over one [T, D] sequence or a [T, B, D] batch."""
    d_in = seq_shape[-1]
    worst = 0.0
    for reverse in (False, True):
        p = LstmParams(wx=_randn(rng, 4 * hidden, d_in),
                       wh=0.5 * _randn(rng, 4 * hidden, hidden),
                       b=_randn(rng, 4 * hidden))
        seq = _randn(rng, *seq_shape)
        proj = _randn(rng, *seq_shape[:-1], hidden)

        def loss(wx, wh, b, s):
            h, _ = lstm_forward(LstmParams(wx, wh, b), s, reverse=reverse, lengths=lengths)
            return float((h * proj).sum())

        h, cache = lstm_forward(p, seq, reverse=reverse, lengths=lengths)
        d_seq, grads = lstm_backward(p, cache, proj)
        worst = max(
            worst,
            max_rel_err(d_seq, numerical_grad(lambda v: loss(p.wx, p.wh, p.b, v), seq)),
            max_rel_err(grads["wx"], numerical_grad(lambda v: loss(v, p.wh, p.b, seq), p.wx)),
            max_rel_err(grads["wh"], numerical_grad(lambda v: loss(p.wx, v, p.b, seq), p.wh)),
            max_rel_err(grads["b"], numerical_grad(lambda v: loss(p.wx, p.wh, v, seq), p.b)),
        )
    return worst


def check_lstm(rng: Rng) -> float:
    return _lstm_error(rng, (4, 3), None, hidden=4)


def check_lstm_batch(rng: Rng) -> float:
    """Three unequal sequences, padded one frame past the longest."""
    return _lstm_error(rng, (5, 3, 3), [4, 2, 3], hidden=3)


def check_blstm(rng: Rng) -> float:
    t_len, d_in, hidden = 4, 3, 3
    bl = Blstm(fwd=LstmParams(_randn(rng, 4 * hidden, d_in),
                              0.5 * _randn(rng, 4 * hidden, hidden),
                              _randn(rng, 4 * hidden)),
               bwd=LstmParams(_randn(rng, 4 * hidden, d_in),
                              0.5 * _randn(rng, 4 * hidden, hidden),
                              _randn(rng, 4 * hidden)))
    seq = _randn(rng, t_len, d_in)
    proj = _randn(rng, t_len, 2 * hidden)

    out, cache = blstm_forward(bl, seq)
    d_seq, grads = blstm_backward(bl, cache, proj)

    def loss(s):
        o, _ = blstm_forward(bl, s)
        return float((o * proj).sum())

    worst = max_rel_err(d_seq, numerical_grad(loss, seq))
    for half, lp in (("fwd", bl.fwd), ("bwd", bl.bwd)):
        for field in ("wx", "wh", "b"):
            ref = getattr(lp, field)

            def loss_p(v, ref=ref):
                old = ref.copy()
                ref[...] = v
                o, _ = blstm_forward(bl, seq)
                ref[...] = old
                return float((o * proj).sum())

            worst = max(worst, max_rel_err(grads[half][field], numerical_grad(loss_p, ref)))
    return worst


def check_softmax_xent(rng: Rng) -> float:
    n, k = 5, 4
    logits = _randn(rng, n, k)
    labels = rng.integers(k, (n,))
    mask = np.ones(n)
    mask[rng.integers(n, (1,))[0]] = 0.0  # at least one frame stays in

    loss, d_logits = softmax_xent(logits, labels, mask)
    num = numerical_grad(lambda v: softmax_xent(v, labels, mask)[0], logits)
    return max_rel_err(d_logits, num)


# ---------------------------------------------------------------------------
# whole-model checks (built lazily so layer checks stand alone)
# ---------------------------------------------------------------------------

def _check_params(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
                  loss_fn: Callable[[], float]) -> float:
    worst = 0.0
    for name, ref in params.items():
        def loss_p(v, ref=ref):
            old = ref.copy()
            ref[...] = v
            out = loss_fn()
            ref[...] = old
            return out

        worst = max(worst, max_rel_err(grads[name], numerical_grad(loss_p, ref)))
    return worst


def _jitter_biases(model, rng: Rng) -> None:
    # zero-init biases make relu pre-activations land exactly on the kink
    # whenever an upstream frame dies; shift them so instances stay generic
    from .model import named_params
    for name, p in named_params(model).items():
        if name.endswith(".b"):
            p += 0.3 * _randn(rng, *p.shape)


def _tiny_stream(rng: Rng, input_dim: int, classes: int):
    from .model import build_stream
    model = build_stream(input_dim=input_dim, classes=classes, hidden=3, rng=rng,
                         stream_kind="raw", encoder_sizes=(6, 5), bottleneck=3,
                         dtype=np.float64)
    _jitter_biases(model, rng)
    return model


def _stream_error(rng: Rng, lengths: tuple[int, ...]) -> float:
    from .model import named_params, stream_backward_batch, stream_forward_batch
    input_dim, classes = 4, 3
    model = _tiny_stream(rng, input_dim, classes)
    seqs = [_randn(rng, t_len, input_dim) for t_len in lengths]
    labels = rng.integers(classes, (sum(lengths),))
    mask = np.ones(sum(lengths))

    logits, cache = stream_forward_batch(model, seqs)
    _, d_logits = softmax_xent(logits, labels, mask)
    grads = stream_backward_batch(model, cache, d_logits)

    def loss_fn():
        out, _ = stream_forward_batch(model, seqs)
        return softmax_xent(out, labels, mask)[0]

    return _check_params(named_params(model), grads, loss_fn)


def _fusion_error(rng: Rng, lengths: tuple[int, ...]) -> float:
    from .model import build_fusion, fusion_backward_batch, fusion_forward_batch, named_params
    input_dim, classes = 4, 3
    raw = _tiny_stream(rng, input_dim, classes)
    diff = _tiny_stream(rng, input_dim, classes)
    diff.net.stream_kind = "diff"
    model = build_fusion(raw, diff, hidden=2, rng=rng, dtype=np.float64)
    _jitter_biases(model, rng)
    seqs = {kind: [_randn(rng, t_len, input_dim) for t_len in lengths]
            for kind in ("raw", "diff")}
    labels = rng.integers(classes, (sum(lengths),))
    mask = np.ones(sum(lengths))

    logits, cache = fusion_forward_batch(model, seqs)
    _, d_logits = softmax_xent(logits, labels, mask)
    grads = fusion_backward_batch(model, cache, d_logits)

    def loss_fn():
        out, _ = fusion_forward_batch(model, seqs)
        return softmax_xent(out, labels, mask)[0]

    return _check_params(named_params(model), grads, loss_fn)


def check_stream(rng: Rng) -> float:
    return _stream_error(rng, (4,))


def check_stream_batch(rng: Rng) -> float:
    return _stream_error(rng, (4, 2, 3))


def check_fusion(rng: Rng) -> float:
    return _fusion_error(rng, (4,))


def check_fusion_batch(rng: Rng) -> float:
    return _fusion_error(rng, (4, 2, 3))


CHECKS: dict[str, Callable[[Rng], float]] = {
    "fc": check_fc,
    "delta": check_delta,
    "lstm": check_lstm,
    "lstm_batch": check_lstm_batch,
    "blstm": check_blstm,
    "softmax_xent": check_softmax_xent,
    "stream": check_stream,
    "stream_batch": check_stream_batch,
    "fusion": check_fusion,
    "fusion_batch": check_fusion_batch,
}


def run_checks(names: list[str] | None = None, instances: int = 3,
               seed: int = 0) -> dict[str, float]:
    """Run each named check `instances` times; returns worst error per name."""
    if names is None:
        names = list(CHECKS)
    unknown = [n for n in names if n not in CHECKS]
    if unknown:
        raise ValueError(f"unknown gradient checks: {unknown}")
    rng = Rng(seed)
    return {name: max(CHECKS[name](rng) for _ in range(instances)) for name in names}
