"""Utterance-level metrics and report rendering.

Accuracy is counted per utterance via majority vote, with a per-subject
breakdown and a confusion matrix (rows true, columns predicted). Repeated
runs aggregate to mean / sample std / max, displayed as percentages
rounded half away from zero to one decimal.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .data import LoadedUtterance, stream_features
from .model import (FusionModel, SingleStreamModel, fusion_forward_batch,
                    named_params, predict_label, stream_forward_batch)


@dataclass
class EvalReport:
    accuracy: float
    per_subject: dict[str, dict]        # subject -> {n_utterances, accuracy}
    confusion: np.ndarray               # [K, K] counts
    n_utterances: int
    split: str = ""
    checkpoint: str = ""

    def to_dict(self) -> dict:
        return {"accuracy": self.accuracy, "per_subject": self.per_subject,
                "confusion": self.confusion.tolist(),
                "n_utterances": self.n_utterances, "split": self.split,
                "checkpoint": self.checkpoint}


@dataclass
class RunAggregate:
    accuracies: list[float]
    seeds: list[int]
    mean: float
    std: float
    max: float

    def to_dict(self) -> dict:
        return {"accuracies": self.accuracies, "seeds": self.seeds,
                "mean": self.mean, "std": self.std, "max": self.max}


SCORE_CHUNK = 32  # utterances per forward pass when scoring


def model_logits(model, chunk: list[dict[str, np.ndarray]]) -> list[np.ndarray]:
    """Per-frame logits [T, K] for each preprocessed utterance of a chunk.

    The chunk runs as one batch through the model's forward pass.
    """
    if isinstance(model, SingleStreamModel):
        logits, _ = stream_forward_batch(model, [s[model.net.stream_kind] for s in chunk])
    elif isinstance(model, FusionModel):
        logits, _ = fusion_forward_batch(model, {"raw": [s["raw"] for s in chunk],
                                                 "diff": [s["diff"] for s in chunk]})
    else:
        raise TypeError(f"cannot evaluate {type(model).__name__}")
    lengths = [next(iter(s.values())).shape[0] for s in chunk]
    return np.split(logits, np.cumsum(lengths)[:-1])


def predict_labels(model, utterances: list[dict[str, np.ndarray]]) -> list[int]:
    """Majority-vote label of each preprocessed utterance.

    Utterances are scored SCORE_CHUNK at a time in the order given; callers
    sort by length so a chunk carries little padding.
    """
    labels = []
    for start in range(0, len(utterances), SCORE_CHUNK):
        chunk = utterances[start:start + SCORE_CHUNK]
        labels += [predict_label(logits) for logits in model_logits(model, chunk)]
    return labels


def evaluate(model, utts: list[LoadedUtterance], n_classes: int,
             split: str = "", checkpoint: str = "") -> EvalReport:
    """Score a model over a split's utterances.

    Utterances are preprocessed and scored chunk by chunk in (length, path)
    order, so the report does not depend on the order of utts.
    """
    if not utts:
        raise ValueError("cannot evaluate an empty split")
    if model.classes != n_classes:
        raise ValueError(f"model has {model.classes} classes, dataset has {n_classes}")
    kinds = ("raw", "diff") if isinstance(model, FusionModel) \
        else (model.net.stream_kind,)
    dtype = next(iter(named_params(model).values())).dtype
    confusion = np.zeros((n_classes, n_classes), dtype=np.int64)
    subj_total: dict[str, int] = {}
    subj_correct: dict[str, int] = {}
    ordered = sorted(utts, key=lambda u: (u.frames.shape[0], u.path))
    for start in range(0, len(ordered), SCORE_CHUNK):
        chunk = ordered[start:start + SCORE_CHUNK]
        preds = predict_labels(model, [{k: stream_features(u.frames, k, dtype) for k in kinds}
                                       for u in chunk])
        for u, pred in zip(chunk, preds):
            confusion[u.label, pred] += 1
            subj_total[u.subject] = subj_total.get(u.subject, 0) + 1
            subj_correct[u.subject] = subj_correct.get(u.subject, 0) + int(pred == u.label)
    accuracy = float(np.trace(confusion)) / len(utts)
    per_subject = {s: {"n_utterances": subj_total[s],
                       "accuracy": subj_correct[s] / subj_total[s]}
                   for s in sorted(subj_total)}
    return EvalReport(accuracy=accuracy, per_subject=per_subject,
                      confusion=confusion, n_utterances=len(utts),
                      split=split, checkpoint=checkpoint)


def aggregate_runs(reports: list, seeds: list[int]) -> RunAggregate:
    """Mean / sample std (n-1 denominator, 0 for a single run) / max."""
    if not reports:
        raise ValueError("aggregate_runs needs at least one report")
    if len(reports) != len(seeds):
        raise ValueError(f"{len(reports)} reports but {len(seeds)} seeds")
    accs = [float(getattr(r, "accuracy", r)) for r in reports]
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
    """Render an EvalReport or RunAggregate as text, json, or csv.

    Text for an aggregate is the one-row "Mean (Std) | Max" table; for a
    report, an accuracy line plus optional per-subject and confusion
    sections. CSV carries per-subject rows for a report and per-run rows
    for an aggregate. JSON is sorted and indented, so rendering a parsed
    document reproduces it exactly.
    """
    if fmt == "json":
        payload = obj.to_dict()
        if isinstance(obj, EvalReport):
            if not per_subject:
                payload.pop("per_subject")
            if not confusion:
                payload.pop("confusion")
        return json.dumps(payload, indent=2, sort_keys=True)

    if isinstance(obj, RunAggregate):
        if fmt == "text":
            row = (f"{format_percent(obj.mean)} ({format_percent(obj.std)}) | "
                   f"{format_percent(obj.max)}")
            return f"runs: {len(obj.accuracies)}\nMean (Std) | Max\n{row}"
        if fmt == "csv":
            lines = ["run,seed,accuracy"]
            lines += [f"{i},{seed},{acc:.6f}"
                      for i, (seed, acc) in enumerate(zip(obj.seeds, obj.accuracies))]
            return "\n".join(lines)
        raise ValueError(f"unknown report format {fmt!r}")

    if isinstance(obj, EvalReport):
        if fmt == "text":
            lines = [f"utterances: {obj.n_utterances}",
                     f"accuracy: {format_percent(obj.accuracy)}"]
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
        if fmt == "csv":
            lines = ["subject,n_utterances,accuracy"]
            lines += [f"{s},{d['n_utterances']},{d['accuracy']:.6f}"
                      for s, d in obj.per_subject.items()]
            return "\n".join(lines)
        raise ValueError(f"unknown report format {fmt!r}")

    raise TypeError(f"cannot render {type(obj).__name__}")
