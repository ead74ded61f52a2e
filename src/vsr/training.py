"""Two-stage training: single streams end to end, then fusion fine-tuning.

Batches hold zero-padded sequence tensors with 0/1 frame masks. A step
hands the model each sequence's valid frames; the model runs its encoder
over those frames and its BLSTMs over a time-major batch padded only to
the longest sequence, with masks keeping padded frames out of every
result, so the batch's padding length cannot influence a single bit.
Validation scores through the same chunked path as evaluation. Early
stopping watches validation utterance accuracy and restores the best
epoch's weights.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .data import LoadedUtterance, stream_features
from .evaluation import predict_labels
from .model import (FusionModel, SingleStreamModel, astype_model, build_fusion,
                    clip_group, fusion_forward_batch, fusion_backward_batch,
                    named_params, stream_backward_batch, stream_forward_batch)
from .numerics import Adam, NonFiniteError, Rng, clip_global_norm
from .layers import softmax_xent

STAGES = ("stream", "fusion")


class TrainingDiverged(RuntimeError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    lr: float
    stage: str
    batch_utts: int = 10
    patience: int = 5
    clip_threshold: float = 5.0
    max_epochs: int = 200
    seed: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    precision: str = "f32"
    track_train_accuracy: bool = False
    freeze_streams: bool = False

    def __post_init__(self):
        if self.stage not in STAGES:
            raise ValueError(f"stage must be one of {STAGES}, got {self.stage!r}")
        if self.lr < 0 or self.batch_utts < 1 or self.patience < 0 or self.max_epochs < 0:
            raise ValueError(f"bad training config {self}")
        if self.precision not in ("f32", "f64"):
            raise ValueError(f"precision must be f32 or f64, got {self.precision!r}")

    @classmethod
    def for_stream(cls, **overrides) -> "TrainConfig":
        return cls(**{"lr": 0.0003, "stage": "stream", **overrides})

    @classmethod
    def for_fusion(cls, **overrides) -> "TrainConfig":
        return cls(**{"lr": 0.0001, "stage": "fusion", **overrides})

    @property
    def dtype(self):
        return np.float64 if self.precision == "f64" else np.float32


@dataclass
class TrainHistory:
    stage: str
    seed: int
    stop_reason: str = ""
    best_epoch: int = 0
    best_val_accuracy: float = 0.0
    epochs: list[dict] = field(default_factory=list)
    config: dict = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {"stage": self.stage, "seed": self.seed,
                   "stop_reason": self.stop_reason, "best_epoch": self.best_epoch,
                   "best_val_accuracy": self.best_val_accuracy,
                   "epochs": self.epochs, "config": self.config}
        return json.dumps(payload, indent=2, sort_keys=True)


def save_history(path, history: TrainHistory) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(history.to_json() + "\n")


# ---------------------------------------------------------------------------
# samples and batches
# ---------------------------------------------------------------------------

@dataclass
class SeqSample:
    streams: dict[str, np.ndarray]  # kind -> [T, D]
    label: int


@dataclass
class Batch:
    streams: dict[str, np.ndarray]  # kind -> [B, T_pad, D]
    labels: np.ndarray              # [B, T_pad]
    mask: np.ndarray                # [B, T_pad], 1 on real frames
    lengths: list[int]


def samples_from_utterances(utts: list[LoadedUtterance], kinds: tuple[str, ...],
                            dtype=np.float32) -> list[SeqSample]:
    return [SeqSample(streams={k: stream_features(u.frames, k, dtype) for k in kinds},
                      label=u.label) for u in utts]


def make_batches(samples: list[SeqSample], batch_utts: int, rng: Rng,
                 pad_to: int | None = None) -> list[Batch]:
    """Shuffle utterances and pack them into padded, masked batches.

    Frame labels replicate the utterance label. pad_to forces a minimum
    padded length (the default pads to the batch max), which exists so
    tests can show padding length changes nothing.
    """
    if not samples:
        raise ValueError("make_batches needs at least one sample")
    order = rng.permutation(len(samples))
    batches = []
    for start in range(0, len(samples), batch_utts):
        group = [samples[i] for i in order[start:start + batch_utts]]
        lengths = [next(iter(s.streams.values())).shape[0] for s in group]
        t_pad = max(lengths) if pad_to is None else max(pad_to, max(lengths))
        b = len(group)
        streams = {}
        for kind in group[0].streams:
            dim = group[0].streams[kind].shape[1]
            arr = np.zeros((b, t_pad, dim), dtype=group[0].streams[kind].dtype)
            for i, s in enumerate(group):
                arr[i, :lengths[i]] = s.streams[kind]
            streams[kind] = arr
        labels = np.zeros((b, t_pad), dtype=np.int64)
        mask = np.zeros((b, t_pad), dtype=np.float32)
        for i, s in enumerate(group):
            labels[i, :lengths[i]] = s.label
            mask[i, :lengths[i]] = 1.0
        batches.append(Batch(streams=streams, labels=labels, mask=mask, lengths=lengths))
    return batches


def _batch_valid(batch: Batch):
    """Gather per-sequence valid frames and their flat labels."""
    seqs = {kind: [arr[i, :n] for i, n in enumerate(batch.lengths)]
            for kind, arr in batch.streams.items()}
    labels = np.concatenate([batch.labels[i, :n] for i, n in enumerate(batch.lengths)])
    return seqs, labels


# ---------------------------------------------------------------------------
# the fit loop
# ---------------------------------------------------------------------------

def _forward_backward(model, batch: Batch):
    seqs, labels = _batch_valid(batch)
    if isinstance(model, SingleStreamModel):
        kind = model.net.stream_kind
        logits, cache = stream_forward_batch(model, seqs[kind])
        loss, d_logits = softmax_xent(logits, labels, np.ones(len(labels)))
        grads = stream_backward_batch(model, cache, d_logits)
    elif isinstance(model, FusionModel):
        logits, cache = fusion_forward_batch(model, seqs)
        loss, d_logits = softmax_xent(logits, labels, np.ones(len(labels)))
        grads = fusion_backward_batch(model, cache, d_logits)
    else:
        raise TypeError(f"cannot train {type(model).__name__}")
    return loss, grads, len(labels)


def train_epoch(model, batches: list[Batch], opt: Adam, cfg: TrainConfig) -> float:
    """One pass of gradient steps over prepared batches; mean loss per frame."""
    params = named_params(model)
    trainable = params
    if cfg.freeze_streams and isinstance(model, FusionModel):
        trainable = {n: p for n, p in params.items()
                     if n.startswith(("fusion_blstm.", "out."))}
    total_loss, total_frames = 0.0, 0
    for b_idx, batch in enumerate(batches):
        try:
            loss, grads, n_frames = _forward_backward(model, batch)
        except NonFiniteError as exc:
            raise TrainingDiverged(f"non-finite forward pass in batch {b_idx}: {exc}") from exc
        if not np.isfinite(loss):
            raise TrainingDiverged(f"training loss became non-finite in batch {b_idx}")
        clip_names = clip_group(grads)
        clipped, _ = clip_global_norm([grads[n] for n in clip_names], cfg.clip_threshold)
        for name, g in zip(clip_names, clipped):
            grads[name] = g
        opt.step(trainable, {n: grads[n] for n in trainable}, cfg.lr)
        total_loss += loss * n_frames
        total_frames += n_frames
    return total_loss / total_frames


def _validation_accuracy(model, samples: list[SeqSample]) -> float:
    """Utterance accuracy by per-frame majority vote. Stubbed in some tests.

    Scores through evaluation.predict_labels, shortest utterances first.
    """
    ordered = sorted(samples, key=lambda s: next(iter(s.streams.values())).shape[0])
    preds = predict_labels(model, [s.streams for s in ordered])
    return sum(pred == s.label for pred, s in zip(preds, ordered)) / len(samples)


def _snapshot(params: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    return {n: p.copy() for n, p in params.items()}


def _restore(params: dict[str, np.ndarray], snap: dict[str, np.ndarray]) -> None:
    for n, p in params.items():
        p[...] = snap[n]


def _fit(model, train_samples: list[SeqSample], val_samples: list[SeqSample],
         cfg: TrainConfig) -> TrainHistory:
    if not train_samples:
        raise ValueError("training set is empty")
    if not val_samples:
        raise ValueError("early stopping needs a non-empty validation set")
    rng = Rng(cfg.seed)
    opt = Adam(beta1=cfg.beta1, beta2=cfg.beta2, eps=cfg.eps)
    params = named_params(model)
    history = TrainHistory(stage=cfg.stage, seed=cfg.seed, config=asdict(cfg))
    best_acc = -np.inf
    best_snap = _snapshot(params)
    history.stop_reason = "max-epochs"
    for epoch in range(1, cfg.max_epochs + 1):
        started = time.perf_counter()
        batches = make_batches(train_samples, cfg.batch_utts, rng)
        mean_loss = train_epoch(model, batches, opt, cfg)
        val_acc = _validation_accuracy(model, val_samples)
        record = {"epoch": epoch, "train_loss": mean_loss, "val_accuracy": val_acc,
                  "wall_time": time.perf_counter() - started}
        if cfg.track_train_accuracy:
            record["train_accuracy"] = _validation_accuracy(model, train_samples)
        history.epochs.append(record)
        if val_acc > best_acc:
            best_acc = val_acc
            history.best_epoch = epoch
            best_snap = _snapshot(params)
        if epoch - history.best_epoch > cfg.patience:
            history.stop_reason = "early-stop"
            break
    _restore(params, best_snap)
    history.best_val_accuracy = float(max(best_acc, 0.0)) if history.best_epoch else 0.0
    return history


def train_stream(model: SingleStreamModel, train_samples: list[SeqSample],
                 val_samples: list[SeqSample], cfg: TrainConfig):
    """Train a single-stream model in place; returns (model, history)."""
    if cfg.stage != "stream":
        raise ValueError(f"train_stream got a {cfg.stage!r}-stage config")
    model = _match_precision(model, cfg)
    train_samples = _cast_samples(train_samples, cfg.dtype)
    val_samples = _cast_samples(val_samples, cfg.dtype)
    history = _fit(model, train_samples, val_samples, cfg)
    return model, history


def train_fusion(raw: SingleStreamModel, diff: SingleStreamModel,
                 train_samples: list[SeqSample], val_samples: list[SeqSample],
                 cfg: TrainConfig, hidden: int | None = None):
    """Fuse two trained streams and fine-tune; returns (fusion model, history).

    The fusion BLSTM and output layer draw fresh Glorot weights from
    cfg.seed; the copied stream weights fine-tune unless cfg.freeze_streams.
    """
    if cfg.stage != "fusion":
        raise ValueError(f"train_fusion got a {cfg.stage!r}-stage config")
    if hidden is None:
        hidden = raw.net.blstm.hidden
    model = build_fusion(raw, diff, hidden=hidden, rng=Rng(cfg.seed), dtype=cfg.dtype)
    model = _match_precision(model, cfg)
    train_samples = _cast_samples(train_samples, cfg.dtype)
    val_samples = _cast_samples(val_samples, cfg.dtype)
    history = _fit(model, train_samples, val_samples, cfg)
    return model, history


def _match_precision(model, cfg: TrainConfig):
    params = named_params(model)
    if any(p.dtype != cfg.dtype for p in params.values()):
        return astype_model(model, cfg.dtype)
    return model


def _cast_samples(samples: list[SeqSample], dtype) -> list[SeqSample]:
    out = []
    for s in samples:
        if all(a.dtype == dtype for a in s.streams.values()):
            out.append(s)
        else:
            out.append(SeqSample(streams={k: a.astype(dtype) for k, a in s.streams.items()},
                                 label=s.label))
    return out
