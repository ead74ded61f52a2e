"""Greedy layer-wise encoder pretraining with Gaussian-visible RBMs (CD-1).

Visible units are real-valued with variance fixed at 1 (inputs arrive
z-normalized); hidden units are noisy-rectified for the wide layers and
linear with unit Gaussian noise for the bottleneck. The negative phase
samples hiddens once and reconstructs visibles mean-field, the usual CD-1
recipe for Gaussian visibles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .layers import FcLayer, sigmoid
from .numerics import DEFAULT_DTYPE, Rng, require_finite

HIDDEN_KINDS = ("rectified", "linear")


@dataclass
class GaussianRbm:
    w: np.ndarray      # [hidden, visible]
    vbias: np.ndarray  # [visible]
    hbias: np.ndarray  # [hidden]
    hidden_kind: str = "rectified"


@dataclass(frozen=True)
class PretrainConfig:
    epochs: int = 20
    batch: int = 100
    lr: float = 0.001
    l2: float = 0.0002
    seed: int = 0

    def __post_init__(self):
        if not (self.epochs >= 0 and self.batch >= 1 and self.lr >= 0 and self.l2 >= 0):
            raise ValueError(f"bad pretraining config {self}")


def rbm_init(visible: int, hidden: int, hidden_kind: str, rng: Rng,
             dtype=DEFAULT_DTYPE) -> GaussianRbm:
    """Normal(0, 0.01) weights, zero biases."""
    if hidden_kind not in HIDDEN_KINDS:
        raise ValueError(f"unknown hidden kind {hidden_kind!r}")
    w = (0.01 * rng.normal((hidden, visible))).astype(dtype)
    return GaussianRbm(w=w, vbias=np.zeros(visible, dtype=dtype),
                       hbias=np.zeros(hidden, dtype=dtype), hidden_kind=hidden_kind)


def _preactivation(rbm: GaussianRbm, v: np.ndarray) -> np.ndarray:
    if v.shape[-1] != rbm.w.shape[1]:
        raise ValueError(f"visible width {v.shape[-1]} != rbm visible {rbm.w.shape[1]}")
    return v @ rbm.w.T + rbm.hbias


def _mean_from(rbm: GaussianRbm, a: np.ndarray) -> np.ndarray:
    return np.maximum(a, 0) if rbm.hidden_kind == "rectified" else a


def _sample_from(rbm: GaussianRbm, a: np.ndarray, rng: Rng) -> np.ndarray:
    noise = rng.normal(a.shape).astype(a.dtype)
    if rbm.hidden_kind == "rectified":
        return np.maximum(a + np.sqrt(sigmoid(a)) * noise, 0)
    return a + noise


def hidden_mean(rbm: GaussianRbm, v: np.ndarray) -> np.ndarray:
    """Mean hidden activity for visibles [visible] or a batch [B, visible]."""
    return _mean_from(rbm, _preactivation(rbm, v))


def sample_hidden(rbm: GaussianRbm, v: np.ndarray, rng: Rng) -> np.ndarray:
    """One hidden sample per unit.

    Rectified units: max(0, a + eps), eps ~ Normal(0, sigmoid(a)).
    Linear units: a + Normal(0, 1).
    """
    return _sample_from(rbm, _preactivation(rbm, v), rng)


def reconstruct_visible(rbm: GaussianRbm, h: np.ndarray) -> np.ndarray:
    """Mean-field Gaussian reconstruction (variance-1 mean)."""
    if h.shape[-1] != rbm.w.shape[0]:
        raise ValueError(f"hidden width {h.shape[-1]} != rbm hidden {rbm.w.shape[0]}")
    return h @ rbm.w + rbm.vbias


def cd1_update(rbm: GaussianRbm, batch: np.ndarray, cfg: PretrainConfig,
               rng: Rng) -> float:
    """One contrastive-divergence step in place; returns reconstruction error.

    Positive phase pairs the data with mean hidden activity; the negative
    phase takes one Gibbs step (sample hiddens, reconstruct visibles
    mean-field, mean hiddens again). L2 decay applies to the weights only.
    The error is the per-element mean squared difference between the batch
    and its negative-phase reconstruction.
    """
    if batch.ndim != 2 or batch.shape[0] < 1:
        raise ValueError("cd1_update expects a non-empty [B, visible] batch")
    b = batch.shape[0]
    a_pos = _preactivation(rbm, batch)
    h_pos = _mean_from(rbm, a_pos)
    h_sample = _sample_from(rbm, a_pos, rng)
    v_neg = reconstruct_visible(rbm, h_sample)
    h_neg = hidden_mean(rbm, v_neg)
    require_finite(v_neg, "rbm reconstruction")

    d_w = h_pos.T @ batch
    d_w -= h_neg.T @ v_neg
    d_w /= b
    d_w -= cfg.l2 * rbm.w
    d_w = d_w.astype(rbm.w.dtype, copy=False)
    d_w *= cfg.lr
    rbm.w += d_w
    resid = batch - v_neg
    rbm.vbias += cfg.lr * resid.mean(axis=0).astype(rbm.vbias.dtype)
    rbm.hbias += cfg.lr * (h_pos - h_neg).mean(axis=0).astype(rbm.hbias.dtype)
    return float(np.mean(resid ** 2))


def train_rbm(rbm: GaussianRbm, frames: np.ndarray, cfg: PretrainConfig,
              rng: Rng) -> list[float]:
    """Epochs of CD-1 over globally shuffled frames; returns per-epoch error.

    Each epoch reshuffles all frames and walks them in batches of
    cfg.batch, the final short batch included. The reported epoch error is
    the frame-weighted mean of batch errors.
    """
    n = frames.shape[0]
    if n == 0:
        raise ValueError("pretraining needs at least one frame")
    errors = []
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        total = 0.0
        for start in range(0, n, cfg.batch):
            idx = order[start:start + cfg.batch]
            err = cd1_update(rbm, frames[idx], cfg, rng)
            total += err * idx.size
        errors.append(total / n)
    return errors


def pretrain_stack(layer_sizes: list[int], frames: np.ndarray, cfg: PretrainConfig):
    """Train one RBM per adjacent size pair, feeding hidden means forward.

    layer_sizes is [input, wide..., bottleneck]; every hidden layer is
    rectified except the last, which is linear. Returns (layers, history):
    FcLayers built from each RBM's weights and hidden biases, and the
    per-layer list of per-epoch reconstruction errors. epochs=0 returns the
    randomly initialized stack untouched.
    """
    if len(layer_sizes) < 2:
        raise ValueError("layer_sizes needs an input width and one hidden width")
    if frames.ndim != 2 or frames.shape[0] == 0:
        raise ValueError("pretraining needs a non-empty [N, input] frame array")
    if frames.shape[1] != layer_sizes[0]:
        raise ValueError(f"frame width {frames.shape[1]} != layer_sizes[0] {layer_sizes[0]}")
    rng = Rng(cfg.seed)
    data = frames.astype(DEFAULT_DTYPE, copy=False)  # nothing writes into data: float32 frames go uncopied
    layers: list[FcLayer] = []
    history: list[list[float]] = []
    last = len(layer_sizes) - 2
    for k in range(len(layer_sizes) - 1):
        kind = "linear" if k == last else "rectified"
        rbm = rbm_init(layer_sizes[k], layer_sizes[k + 1], kind, rng)
        history.append(train_rbm(rbm, data, cfg, rng))
        activation = "linear" if kind == "linear" else "relu"
        layers.append(FcLayer(w=rbm.w, b=rbm.hbias, activation=activation))
        if k != last:
            data = hidden_mean(rbm, data)
    return layers, history
