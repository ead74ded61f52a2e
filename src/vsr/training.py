"""Two-stage training: single streams end to end, then fusion fine-tuning.

A batch holds its shuffled samples' own variable-length sequences, one
label per utterance and the lengths; nothing here pads. The model runs its
encoder over the concatenated frames and its BLSTMs over a time-major batch
that it pads itself, only to the longest sequence, with the lengths keeping
padded frames out of every result, so the padding length cannot influence
a single bit.
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
from .fileio import write_atomic
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
    write_atomic(path, history.to_json() + "\n")


# ---------------------------------------------------------------------------
# samples and batches
# ---------------------------------------------------------------------------

@dataclass
class SeqSample:
    streams: dict[str, np.ndarray]  # kind -> [T, D]
    label: int


@dataclass
class Batch:
    streams: dict[str, list[np.ndarray]]  # kind -> the B sequences, each [T_b, D]
    labels: np.ndarray                    # [B], one label per utterance
    # nothing in vsr reads the mask; it stays because the benchmark's tracer counts its slots
    mask: np.ndarray                      # [B, T_pad], 1 on real frames
    lengths: list[int]


def samples_from_utterances(utts: list[LoadedUtterance], kinds: tuple[str, ...],
                            dtype=np.float32) -> list[SeqSample]:
    return [SeqSample(streams={k: stream_features(u.frames, k, dtype) for k in kinds},
                      label=u.label) for u in utts]


def make_batches(samples: list[SeqSample], batch_utts: int, rng: Rng) -> list[Batch]:
    """Shuffle utterances into batches of at most batch_utts sequences.

    A batch keeps each sample's own arrays, uncopied and unpadded: the
    model pads, time-major, where it runs its sequence layers.
    """
    if not samples:
        raise ValueError("make_batches needs at least one sample")
    order = rng.permutation(len(samples))
    batches = []
    for start in range(0, len(samples), batch_utts):
        group = [samples[i] for i in order[start:start + batch_utts]]
        lengths = [next(iter(s.streams.values())).shape[0] for s in group]
        mask = (np.arange(max(lengths)) < np.array(lengths)[:, None]).astype(np.float32)
        batches.append(Batch(streams={kind: [s.streams[kind] for s in group]
                                      for kind in group[0].streams},
                             labels=np.array([s.label for s in group], dtype=np.int64),
                             mask=mask, lengths=lengths))
    return batches


# ---------------------------------------------------------------------------
# the fit loop
# ---------------------------------------------------------------------------

def _forward_backward(model, batch: Batch):
    labels = np.repeat(batch.labels, batch.lengths)
    if isinstance(model, SingleStreamModel):
        logits, cache = stream_forward_batch(model, batch.streams[model.net.stream_kind])
        loss, d_logits = softmax_xent(logits, labels)
        grads = stream_backward_batch(model, cache, d_logits)
    elif isinstance(model, FusionModel):
        logits, cache = fusion_forward_batch(model, batch.streams)
        loss, d_logits = softmax_xent(logits, labels)
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
        # frozen gradients are never applied, so they stay out of the norm
        clip_names = [n for n in clip_group(grads) if n in trainable]
        try:
            clipped, _ = clip_global_norm([grads[n] for n in clip_names], cfg.clip_threshold)
            for name, g in zip(clip_names, clipped):
                grads[name] = g
            opt.step(trainable, {n: grads[n] for n in trainable}, cfg.lr)
        except NonFiniteError as exc:
            raise TrainingDiverged(f"non-finite gradient in batch {b_idx}: {exc}") from exc
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
         cfg: TrainConfig):
    """Cast model and samples to cfg's precision, then fit; returns (model, history)."""
    if not train_samples:
        raise ValueError("training set is empty")
    if not val_samples:
        raise ValueError("early stopping needs a non-empty validation set")
    if any(p.dtype != cfg.dtype for p in named_params(model).values()):
        model = astype_model(model, cfg.dtype)
    train_samples = _cast_samples(train_samples, cfg.dtype)
    val_samples = _cast_samples(val_samples, cfg.dtype)
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
    return model, history


def train_stream(model: SingleStreamModel, train_samples: list[SeqSample],
                 val_samples: list[SeqSample], cfg: TrainConfig):
    """Train a single-stream model in place; returns (model, history)."""
    if cfg.stage != "stream":
        raise ValueError(f"train_stream got a {cfg.stage!r}-stage config")
    return _fit(model, train_samples, val_samples, cfg)


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
    return _fit(model, train_samples, val_samples, cfg)


def _cast_samples(samples: list[SeqSample], dtype) -> list[SeqSample]:
    out = []
    for s in samples:
        if all(a.dtype == dtype for a in s.streams.values()):
            out.append(s)
        else:
            out.append(SeqSample(streams={k: a.astype(dtype) for k, a in s.streams.items()},
                                 label=s.label))
    return out
