"""Finite-difference verification of the analytic gradients.

Every check builds small random instances in float64, computes the analytic
gradient through the layer or model, and compares against central
differences. The relative error uses max(1, |a|, |n|) in the denominator so
near-zero entries are compared absolutely.
"""

from __future__ import annotations

from functools import partial
from typing import Callable

import numpy as np

from .layers import (Blstm, DeltaWindow, FcLayer, LstmParams, append_deltas,
                     append_deltas_backward, blstm_backward, blstm_forward,
                     delta_backward, delta_forward, fc_backward, fc_forward,
                     lstm_backward, lstm_forward, softmax_xent)
from .numerics import Rng

STEP = 1e-5
GRAD_TOL = 1e-5


def _central_diff(arr: np.ndarray, loss: Callable[[], float],
                  step: float = STEP) -> np.ndarray:
    """Central differences of loss() in each entry of arr, perturbed in place."""
    grad = np.zeros(arr.shape)
    for idx in np.ndindex(arr.shape):
        orig = arr[idx]
        arr[idx] = orig + step
        f_plus = loss()
        arr[idx] = orig - step
        f_minus = loss()
        arr[idx] = orig
        grad[idx] = (f_plus - f_minus) / (2.0 * step)
    return grad


def numerical_grad(f: Callable[[np.ndarray], float], x: np.ndarray,
                   step: float = STEP) -> np.ndarray:
    """Central-difference gradient of the scalar function f at x."""
    x = x.astype(np.float64)
    return _central_diff(x, lambda: f(x), step)


def max_rel_err(analytic: np.ndarray, numerical: np.ndarray) -> float:
    if analytic.shape != numerical.shape:
        raise ValueError("gradient shapes disagree")
    if analytic.size == 0:
        return 0.0
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numerical)))
    return float(np.max(np.abs(analytic - numerical) / denom))


def _worst_error(arrays: dict[str, np.ndarray], grads: dict[str, np.ndarray],
                 loss: Callable[[], float]) -> float:
    """Worst error of each analytic grads[name] against central differences.

    loss() must read the named arrays themselves: inputs and parameters
    alike are perturbed where they live, one entry at a time.
    """
    return max(max_rel_err(grads[name], _central_diff(arr, loss))
               for name, arr in arrays.items())


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
        _, cache = fc_forward(layer, x)
        d_x, d_w, d_b = fc_backward(layer, cache, proj)
        worst = max(worst, _worst_error(
            {"x": x, "w": layer.w, "b": layer.b}, {"x": d_x, "w": d_w, "b": d_b},
            lambda: float((fc_forward(layer, x)[0] * proj).sum())))
    return worst


def check_delta(rng: Rng) -> float:
    worst = 0.0
    for t_len, theta in ((5, 2), (2, 2), (4, 1)):
        win = DeltaWindow(theta)
        seq = _randn(rng, t_len, 3)
        proj = _randn(rng, t_len, 3)
        worst = max(worst, _worst_error({"seq": seq}, {"seq": delta_backward(proj, win)},
                                        lambda: float((delta_forward(seq, win) * proj).sum())))
        proj3 = _randn(rng, t_len, 9)
        worst = max(worst, _worst_error({"seq": seq},
                                        {"seq": append_deltas_backward(proj3, win)},
                                        lambda: float((append_deltas(seq, win) * proj3).sum())))
    return worst


def _lstm_arrays(p: LstmParams, prefix: str = "") -> dict[str, np.ndarray]:
    return {f"{prefix}{field}": getattr(p, field) for field in ("wx", "wh", "b")}


def _random_lstm(rng: Rng, d_in: int, hidden: int) -> LstmParams:
    return LstmParams(wx=_randn(rng, 4 * hidden, d_in),
                      wh=0.5 * _randn(rng, 4 * hidden, hidden),
                      b=_randn(rng, 4 * hidden))


def _lstm_error(rng: Rng, seq_shape: tuple[int, ...], lengths, hidden: int) -> float:
    """Both directions over one [T, D] sequence or a [T, B, D] batch."""
    worst = 0.0
    for reverse in (False, True):
        p = _random_lstm(rng, seq_shape[-1], hidden)
        seq = _randn(rng, *seq_shape)
        proj = _randn(rng, *seq_shape[:-1], hidden)
        _, cache = lstm_forward(p, seq, reverse=reverse, lengths=lengths)
        d_seq, grads = lstm_backward(p, cache, proj)
        worst = max(worst, _worst_error(
            {"seq": seq, **_lstm_arrays(p)}, {"seq": d_seq, **grads},
            lambda: float((lstm_forward(p, seq, reverse=reverse, lengths=lengths)[0]
                           * proj).sum())))
    return worst


def check_blstm(rng: Rng) -> float:
    t_len, d_in, hidden = 4, 3, 3
    bl = Blstm(fwd=_random_lstm(rng, d_in, hidden), bwd=_random_lstm(rng, d_in, hidden))
    seq = _randn(rng, t_len, d_in)
    proj = _randn(rng, t_len, 2 * hidden)
    _, cache = blstm_forward(bl, seq)
    d_seq, grads = blstm_backward(bl, cache, proj)
    arrays = {"seq": seq, **_lstm_arrays(bl.fwd, "fwd."), **_lstm_arrays(bl.bwd, "bwd.")}
    analytic = {"seq": d_seq, **{f"{half}.{field}": g for half in ("fwd", "bwd")
                                 for field, g in grads[half].items()}}
    return _worst_error(arrays, analytic, lambda: float((blstm_forward(bl, seq)[0] * proj).sum()))


def check_softmax_xent(rng: Rng) -> float:
    n, k = 5, 4
    logits = _randn(rng, n, k)
    labels = rng.integers(k, (n,))
    # one frame stays out, as a padded one would
    keep = np.arange(n) != rng.integers(n, (1,))[0]
    logits, labels = logits[keep], labels[keep]
    _, d_logits = softmax_xent(logits, labels)
    return _worst_error({"logits": logits}, {"logits": d_logits},
                        lambda: softmax_xent(logits, labels)[0])


# ---------------------------------------------------------------------------
# whole-model checks (built lazily so layer checks stand alone)
# ---------------------------------------------------------------------------

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


def _model_error(rng: Rng, lengths: tuple[int, ...], fusion: bool) -> float:
    """Every parameter of a tiny raw stream, or of a fusion of two streams."""
    from .model import (build_fusion, fusion_backward_batch, fusion_forward_batch,
                        named_params, stream_backward_batch, stream_forward_batch)
    input_dim, classes = 4, 3
    model = _tiny_stream(rng, input_dim, classes)
    forward, backward = stream_forward_batch, stream_backward_batch
    if fusion:
        diff = _tiny_stream(rng, input_dim, classes)
        diff.net.stream_kind = "diff"
        model = build_fusion(model, diff, hidden=2, rng=rng, dtype=np.float64)
        _jitter_biases(model, rng)
        forward, backward = fusion_forward_batch, fusion_backward_batch
    seqs = {kind: [_randn(rng, t_len, input_dim) for t_len in lengths]
            for kind in (("raw", "diff") if fusion else ("raw",))}
    if not fusion:
        seqs = seqs["raw"]
    labels = rng.integers(classes, (sum(lengths),))

    logits, cache = forward(model, seqs)
    grads = backward(model, cache, softmax_xent(logits, labels)[1])
    return _worst_error(named_params(model), grads,
                        lambda: softmax_xent(forward(model, seqs)[0], labels)[0])


CHECKS: dict[str, Callable[[Rng], float]] = {
    "fc": check_fc,
    "delta": check_delta,
    "lstm": partial(_lstm_error, seq_shape=(4, 3), lengths=None, hidden=4),
    # *_batch: three unequal sequences (for the lstm, padded past the longest)
    "lstm_batch": partial(_lstm_error, seq_shape=(5, 3, 3), lengths=[4, 2, 3], hidden=3),
    "blstm": check_blstm,
    "softmax_xent": check_softmax_xent,
    "stream": partial(_model_error, lengths=(4,), fusion=False),
    "stream_batch": partial(_model_error, lengths=(4, 2, 3), fusion=False),
    "fusion": partial(_model_error, lengths=(4,), fusion=True),
    "fusion_batch": partial(_model_error, lengths=(4, 2, 3), fusion=True),
}


def run_checks(names: list[str] | None = None, instances: int = 3,
               seed: int = 0) -> dict[str, float]:
    """Run each named check `instances` times; returns worst error per name."""
    if names is None:
        names = list(CHECKS)
    if not names:
        raise ValueError(f"no gradient checks selected; choose from {list(CHECKS)}")
    unknown = [n for n in names if n not in CHECKS]
    if unknown:
        raise ValueError(f"unknown gradient checks: {unknown}")
    if instances < 1:
        raise ValueError(f"gradient checks need instances >= 1, got {instances}")
    rng = Rng(seed)
    return {name: max(CHECKS[name](rng) for _ in range(instances)) for name in names}
