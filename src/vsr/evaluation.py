"""Utterance-level metrics and report rendering.

Accuracy is counted per utterance via majority vote, with a per-subject
breakdown and a confusion matrix (rows true, columns predicted). Repeated
runs aggregate to mean / sample std / max, displayed as percentages
rounded half away from zero to one decimal.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import asdict, dataclass

import numpy as np

from .data import LoadedUtterance, stream_features
from .model import (fusion_forward_batch, named_params, predict_label,
                    stream_forward_batch, stream_kinds)


@dataclass
class EvalReport:
    accuracy: float
    per_subject: dict[str, dict]        # subject -> {n_utterances, accuracy}
    confusion: np.ndarray               # [K, K] counts
    n_utterances: int
    split: str = ""
    checkpoint: str = ""

    def to_dict(self) -> dict:
        return {**asdict(self), "confusion": self.confusion.tolist()}


@dataclass
class RunAggregate:
    accuracies: list[float]
    seeds: list[int]
    mean: float
    std: float
    max: float


# Utterances per forward pass when scoring. A chunk runs as many recurrence
# steps as its longest utterance has frames, so fewer, larger chunks step
# less. Without backward caches a paper-scale fusion model (H=250, encoder
# 2000-1000-500-50, f32) peaked, by tracemalloc, at 26.8 MB on 50 utterances
# of 20-40 frames (1,500 frames) in one pass, against 82.5 MB for 32 of them
# (842 frames) with the caches the training forward keeps.
SCORE_CHUNK = 64


def model_logits(model, chunk: list[dict[str, np.ndarray]]) -> list[np.ndarray]:
    """Per-frame logits [T, K] for each preprocessed utterance of a chunk.

    The chunk runs as one batch through the model's forward pass, which
    keeps no backward cache: the logits are those of the training forward
    on the same batch, bit for bit.
    """
    streams = {kind: [s[kind] for s in chunk] for kind in stream_kinds(model)}
    feats, _ = stream_forward_batch(model, streams, keep_cache=False)
    lengths = [next(iter(s.values())).shape[0] for s in chunk]
    logits, _ = fusion_forward_batch(model, feats, lengths, keep_cache=False)
    return np.split(logits, np.cumsum(lengths)[:-1])


def score_split(model, items: list, features, split: str = "",
                checkpoint: str = "") -> EvalReport:
    """The EvalReport of a split's items (utterances or training samples, each
    with path, subject, label and n_frames; features(item) gives its streams).

    Training's validation and evaluate both score here, in (length, path)
    order: a chunk holds items of similar length, and the chunks, which
    decide how BLAS rounds each logit, do not depend on the split's order.
    Only one chunk's features, and no backward cache, are held at once.
    """
    ordered = sorted(items, key=lambda item: (item.n_frames, item.path))
    confusion = np.zeros((model.classes, model.classes), dtype=np.int64)
    subj_total, subj_correct = Counter(), Counter()
    for start in range(0, len(ordered), SCORE_CHUNK):
        part = ordered[start:start + SCORE_CHUNK]
        chunk = [features(item) for item in part]
        for item, logits in zip(part, model_logits(model, chunk)):
            pred = predict_label(logits)
            confusion[item.label, pred] += 1
            subj_total[item.subject] += 1
            subj_correct[item.subject] += int(pred == item.label)
        del chunk  # gone before the next chunk's features are made
    per_subject = {s: {"n_utterances": subj_total[s],
                       "accuracy": subj_correct[s] / subj_total[s]}
                   for s in sorted(subj_total)}
    return EvalReport(accuracy=float(np.trace(confusion)) / len(items),
                      per_subject=per_subject, confusion=confusion,
                      n_utterances=len(items), split=split, checkpoint=checkpoint)


def evaluate(model, utts: list[LoadedUtterance], n_classes: int,
             split: str = "", checkpoint: str = "") -> EvalReport:
    """Score a model over a split's utterances, preprocessed chunk by chunk."""
    if not utts:
        raise ValueError("cannot evaluate an empty split")
    kinds = stream_kinds(model)
    if model.classes != n_classes:
        raise ValueError(f"model has {model.classes} classes, dataset has {n_classes}")
    dtype = next(iter(named_params(model).values())).dtype
    return score_split(model, utts, lambda u: {k: stream_features(u.frames, k, dtype)
                                               for k in kinds}, split, checkpoint)


def aggregate_runs(accuracies: list[float], seeds: list[int]) -> RunAggregate:
    """Mean / sample std (n-1 denominator, 0 for a single run) / max."""
    if not accuracies:
        raise ValueError("aggregate_runs needs at least one accuracy")
    if len(accuracies) != len(seeds):
        raise ValueError(f"{len(accuracies)} accuracies but {len(seeds)} seeds")
    accs = [float(a) for a in accuracies]
    arr = np.asarray(accs, dtype=np.float64)
    std = float(arr.std(ddof=1)) if len(accs) > 1 else 0.0
    return RunAggregate(accuracies=accs, seeds=list(seeds),
                        mean=float(arr.mean()), std=std, max=float(arr.max()))


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def format_percent(x: float) -> str:
    """x in [0,1] (or any real) as a percent, one decimal, half away from zero."""
    v = x * 1000.0
    rounded = math.floor(abs(v) + 0.5) / 10.0
    return f"{math.copysign(rounded, v) if rounded else 0.0:.1f}"


def render_report(obj, fmt: str = "text", per_subject: bool = True,
                  confusion: bool = True) -> str:
    """Render an EvalReport as text, json or csv, or a RunAggregate as text.

    Text for an aggregate is the one-row "Mean (Std) | Max" table; for a
    report, an accuracy line plus the per-subject and confusion sections
    that per_subject and confusion ask for, the only format they shape.
    JSON carries the whole report, sorted and indented, so rendering a
    parsed document reproduces it exactly; CSV its per-subject rows.
    """
    if isinstance(obj, RunAggregate):
        if fmt != "text":
            raise ValueError(f"a run aggregate renders as text, not {fmt!r}")
        row = (f"{format_percent(obj.mean)} ({format_percent(obj.std)}) | "
               f"{format_percent(obj.max)}")
        return f"runs: {len(obj.accuracies)}\nMean (Std) | Max\n{row}"
    if fmt == "json":
        return json.dumps(obj.to_dict(), indent=2, sort_keys=True)
    if fmt == "csv":
        lines = ["subject,n_utterances,accuracy"]
        lines += [f"{s},{d['n_utterances']},{d['accuracy']:.6f}"
                  for s, d in obj.per_subject.items()]
        return "\n".join(lines)
    if fmt != "text":
        raise ValueError(f"unknown report format {fmt!r}")
    lines = [f"utterances: {obj.n_utterances}", f"accuracy: {format_percent(obj.accuracy)}"]
    if obj.split:
        lines.insert(0, f"split: {obj.split}")
    if per_subject and obj.per_subject:
        lines.append("per-subject:")
        for s, d in obj.per_subject.items():
            lines.append(f"  {s}: {format_percent(d['accuracy'])} "
                         f"({d['n_utterances']} utterances)")
    if confusion:
        lines.append("confusion (rows true, columns predicted):")
        for row in obj.confusion:
            lines.append("  " + " ".join(f"{int(c):4d}" for c in row))
    return "\n".join(lines)
