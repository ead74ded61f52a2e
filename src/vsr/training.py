"""Two-stage training: single streams end to end, then fusion fine-tuning.

A batch holds its shuffled samples' own variable-length sequences, one
label per utterance and the lengths. The model runs each layer once over
the batch's concatenated frames, the deltas and BLSTMs with the lengths.
Validation scores a split as evaluation does, into an EvalReport. Early
stopping watches its utterance accuracy and restores the best epoch's
weights, whose report the history keeps.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .data import LoadedUtterance, stream_features
from .evaluation import EvalReport, score_split
from .fileio import write_atomic
from .model import (SingleStreamModel, build_fusion, clip_group,
                    fusion_forward_batch, fusion_backward_batch, named_params,
                    stream_backward_batch, stream_forward_batch)
from .numerics import Adam, NonFiniteError, Rng, clip_global_norm
from .layers import softmax_xent

class TrainingDiverged(RuntimeError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    lr: float
    batch_utts: int = 10
    patience: int = 5
    clip_threshold: float = 5.0
    max_epochs: int = 200
    seed: int = 0
    track_train_accuracy: bool = False
    freeze_streams: bool = False

    def __post_init__(self):
        # written so that NaN fails every comparison; an infinite clip_threshold never clips
        if not (self.lr >= 0 and self.batch_utts >= 1 and self.patience >= 0
                and self.max_epochs >= 0 and self.clip_threshold > 0):
            raise ValueError(f"bad training config {self}")

    @classmethod
    def for_stream(cls, **overrides) -> "TrainConfig":
        return cls(**{"lr": 0.0003, **overrides})

    @classmethod
    def for_fusion(cls, **overrides) -> "TrainConfig":
        return cls(**{"lr": 0.0001, **overrides})


@dataclass
class TrainHistory:
    stage: str
    seed: int
    stop_reason: str = ""
    best_epoch: int = 0
    best_val_accuracy: float = 0.0
    epochs: list[dict] = field(default_factory=list)
    config: dict = field(default_factory=dict)
    # the validation report of the weights the fit returns; not in the JSON
    val_report: EvalReport | None = None

    def to_json(self) -> str:
        doc = {k: v for k, v in asdict(self).items() if k != "val_report"}
        return json.dumps(doc, indent=2, sort_keys=True)


def save_history(path, history: TrainHistory) -> None:
    write_atomic(path, history.to_json() + "\n")


# ---------------------------------------------------------------------------
# samples and batches
# ---------------------------------------------------------------------------

@dataclass
class SeqSample:
    streams: dict[str, np.ndarray]  # kind -> [T, D]
    label: int
    path: str = ""  # the utterance's container; validation orders ties by it
    subject: str = ""

    @property
    def n_frames(self) -> int:
        return next(iter(self.streams.values())).shape[0]


@dataclass
class Batch:
    streams: dict[str, list[np.ndarray]]  # kind -> the B sequences, each [T_b, D]
    labels: np.ndarray                    # [B], one label per utterance
    # nothing in vsr reads the mask; it stays because the benchmark's tracer counts its slots
    mask: np.ndarray                      # [B, max(lengths)], 1 on each sequence's frames
    lengths: list[int]


def samples_from_utterances(utts: list[LoadedUtterance], kinds: tuple[str, ...],
                            dtype=np.float32) -> list[SeqSample]:
    return [SeqSample(streams={k: stream_features(u.frames, k, dtype) for k in kinds},
                      label=u.label, path=u.path, subject=u.subject) for u in utts]


def make_batches(samples: list[SeqSample], batch_utts: int, rng: Rng) -> list[Batch]:
    """Shuffle utterances into batches of at most batch_utts sequences.

    A batch keeps each sample's own arrays, uncopied.
    """
    if not samples:
        raise ValueError("make_batches needs at least one sample")
    order = rng.permutation(len(samples))
    batches = []
    for start in range(0, len(samples), batch_utts):
        group = [samples[i] for i in order[start:start + batch_utts]]
        lengths = [s.n_frames for s in group]
        mask = (np.arange(max(lengths)) < np.array(lengths)[:, None]).astype(np.float32)
        batches.append(Batch(streams={kind: [s.streams[kind] for s in group]
                                      for kind in group[0].streams},
                             labels=np.array([s.label for s in group], dtype=np.int64),
                             mask=mask, lengths=lengths))
    return batches


# ---------------------------------------------------------------------------
# the fit loop
# ---------------------------------------------------------------------------

def _forward_backward(model, batch: Batch, freeze_streams: bool):
    """(loss, grads, frames) of a batch; frozen streams keep no cache and get no grads."""
    labels = np.repeat(batch.labels, batch.lengths)
    feats, stream_cache = stream_forward_batch(model, batch.streams,
                                               keep_cache=not freeze_streams)
    logits, cache = fusion_forward_batch(model, feats, batch.lengths)
    del feats  # the fusion stage's cache keeps what its backward needs
    loss, d_logits = softmax_xent(logits, labels)
    del logits  # the output layer's cache holds it until that is dropped
    d_feats, grads = fusion_backward_batch(model, cache, d_logits,
                                           input_grad=not freeze_streams)
    del cache, d_logits  # the stream backward, where the gradients peak, holds no fusion state
    if not freeze_streams:
        stream_backward_batch(model, stream_cache, d_feats, grads)
    return loss, grads, len(labels)


def train_epoch(model, batches: list[Batch], opt: Adam, cfg: TrainConfig) -> float:
    """One pass of gradient steps, one batch's gradients alive at a time; mean loss per frame.

    A step updates the parameters that have gradients (_forward_backward).
    """
    params = named_params(model)
    total_loss, total_frames = 0.0, 0
    for b_idx, batch in enumerate(batches):
        try:
            loss, grads, n_frames = _forward_backward(model, batch, cfg.freeze_streams)
        except NonFiniteError as exc:
            raise TrainingDiverged(f"non-finite forward pass in batch {b_idx}: {exc}") from exc
        if not np.isfinite(loss):
            raise TrainingDiverged(f"training loss became non-finite in batch {b_idx}")
        clip_names = clip_group(grads)
        try:
            clipped, _ = clip_global_norm([grads[n] for n in clip_names], cfg.clip_threshold)
            grads.update(zip(clip_names, clipped))
            opt.step({n: p for n, p in params.items() if n in grads}, grads, cfg.lr)
        except NonFiniteError as exc:
            raise TrainingDiverged(f"non-finite gradient in batch {b_idx}: {exc}") from exc
        del grads, clipped  # gone before the next backward allocates its own
        total_loss += loss * n_frames
        total_frames += n_frames
    return total_loss / total_frames


def _validation_accuracy(model, samples: list[SeqSample]) -> EvalReport:
    """The samples' EvalReport, scored as evaluate scores. Stubbed in some tests."""
    return score_split(model, samples, lambda s: s.streams)


def _copy_params(dst: dict[str, np.ndarray], src: dict[str, np.ndarray]) -> None:
    for n, p in dst.items():
        p[...] = src[n]


def _fit(model, train_samples: list[SeqSample], val_samples: list[SeqSample],
         cfg: TrainConfig):
    """Fit model in place, in its parameters' dtype; returns (model, history).

    The history records the model's kind, "stream" or "fusion", as its
    stage, and keeps the validation report of the returned weights: the
    best epoch's, or the initial weights' when no epoch ran. The best
    epoch's weights are copied into one snapshot buffer, allocated once.
    """
    if not train_samples:
        raise ValueError("training set is empty")
    if not val_samples:
        raise ValueError("early stopping needs a non-empty validation set")
    stage = model.meta["kind"]
    if cfg.freeze_streams and stage != "fusion":
        raise ValueError("freeze_streams is a fusion setting: a stream fit trains the stream")
    params = named_params(model)
    dtype = next(iter(params.values())).dtype
    wrong = {a.dtype for s in (*train_samples, *val_samples) for a in s.streams.values()} - {dtype}
    if wrong:
        raise ValueError(f"a {dtype} model cannot train on {wrong.pop()} samples")
    rng = Rng(cfg.seed)
    opt = Adam()
    history = TrainHistory(stage=stage, seed=cfg.seed, config=asdict(cfg))
    best = {n: np.empty_like(p) for n, p in params.items()}
    history.stop_reason = "max-epochs"
    for epoch in range(1, cfg.max_epochs + 1):
        started = time.perf_counter()
        batches = make_batches(train_samples, cfg.batch_utts, rng)
        mean_loss = train_epoch(model, batches, opt, cfg)
        report = _validation_accuracy(model, val_samples)
        record = {"epoch": epoch, "train_loss": mean_loss, "val_accuracy": report.accuracy,
                  "wall_time": time.perf_counter() - started}
        if cfg.track_train_accuracy:
            record["train_accuracy"] = _validation_accuracy(model, train_samples).accuracy
        history.epochs.append(record)
        if not history.best_epoch or report.accuracy > history.best_val_accuracy:
            history.best_epoch, history.best_val_accuracy = epoch, report.accuracy
            history.val_report = report
            _copy_params(best, params)
        if epoch - history.best_epoch > cfg.patience:
            history.stop_reason = "early-stop"
            break
    if history.best_epoch:
        _copy_params(params, best)
    else:
        history.val_report = _validation_accuracy(model, val_samples)
    return model, history


def train_stream(model: SingleStreamModel, train_samples: list[SeqSample],
                 val_samples: list[SeqSample], cfg: TrainConfig):
    """Train a single-stream model in place; returns (model, history)."""
    return _fit(model, train_samples, val_samples, cfg)


def train_fusion(raw: SingleStreamModel, diff: SingleStreamModel,
                 train_samples: list[SeqSample], val_samples: list[SeqSample],
                 cfg: TrainConfig, hidden: int | None = None):
    """Fuse two trained streams and fine-tune; returns (fusion model, history).

    The fusion BLSTM and output layer draw fresh Glorot weights from
    cfg.seed, in the streams' dtype; the copied stream weights fine-tune
    unless cfg.freeze_streams.
    """
    model = build_fusion(raw, diff, hidden=hidden, rng=Rng(cfg.seed))
    return _fit(model, train_samples, val_samples, cfg)
