"""Dataset containers, preprocessing, protocol splits, synthetic data.

Utterances live in a small binary container (grayscale u8 frames); a
JSON-lines manifest names every utterance with its subject and class.
Preprocessing turns a frame stack into the raw stream (mean-image
subtraction + per-image z-normalization) or the diff stream (consecutive
differences, zero-padded at the front so both streams share T).

The synthetic generator builds a desk-scale stand-in corpus: classes are
separated by motion dynamics (an oscillating soft bar), subjects by static
appearance (brightness, contrast, texture), so subject-independent splits
are genuinely harder than subject-dependent ones.
"""

from __future__ import annotations

import json
import os
import re
import struct
from dataclasses import dataclass, field

import numpy as np

from .fileio import write_atomic
from .numerics import DEFAULT_DTYPE, Rng

UTT_MAGIC = b"VSRU"
UTT_VERSION = 1

MANIFEST_NAME = "manifest.jsonl"

# mouth ROI presets (height, width)
ROI_DIMS = {
    "oulu": (26, 44),
    "cuave": (30, 50),
    "avletters": (30, 40),
    "avletters2": (30, 45),
}


class ContainerError(ValueError):
    pass


@dataclass(frozen=True)
class UtteranceRecord:
    path: str
    subject: str
    label: int


@dataclass
class DatasetManifest:
    classes: list[str]
    height: int
    width: int
    records: list[UtteranceRecord]
    protocol: str | None = None

    @property
    def frame_dim(self) -> int:
        return self.height * self.width


@dataclass
class ProtocolSplit:
    train: list[str]
    val: list[str]
    test: list[str]
    protocol: str


@dataclass
class LoadedUtterance:
    path: str
    subject: str
    label: int
    frames: np.ndarray  # [T, H, W] u8


# ---------------------------------------------------------------------------
# utterance container
# ---------------------------------------------------------------------------

def save_utterance(path, frames: np.ndarray) -> None:
    """Write u8 grayscale frames [T, H, W], frame-major, row-major.

    Written in place, not through write_atomic: load_utterance's exact
    length check already refuses a truncated container, and on ext4 a
    rename over an existing file costs the writer ~0.2 ms of kernel time,
    a sixth or more of a setup that writes a 100-utterance corpus.
    """
    if frames.ndim != 3:
        raise ContainerError(f"utterance frames must be [T, H, W], got shape {frames.shape}")
    if frames.dtype != np.uint8:
        raise ContainerError(f"utterance frames must be uint8, got {frames.dtype}")
    t_len, h, w = frames.shape
    if t_len < 2:
        raise ContainerError(f"utterance needs at least 2 frames, got {t_len}")
    with open(path, "wb") as fh:
        fh.write(UTT_MAGIC)
        fh.write(struct.pack("<HIII", UTT_VERSION, t_len, h, w))
        fh.write(np.ascontiguousarray(frames).tobytes())


def load_utterance(path) -> np.ndarray:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 18:
        raise ContainerError(f"utterance file too short to hold a header: {len(blob)} bytes")
    magic = blob[:4]
    if magic != UTT_MAGIC:
        raise ContainerError(f"bad utterance magic {magic!r}, expected {UTT_MAGIC!r}")
    version, t_len, h, w = struct.unpack("<HIII", blob[4:18])
    if version != UTT_VERSION:
        raise ContainerError(f"unsupported utterance version {version}, expected {UTT_VERSION}")
    if t_len < 2:
        raise ContainerError(f"utterance needs at least 2 frames, header says {t_len}")
    expected = 18 + t_len * h * w
    if len(blob) != expected:
        raise ContainerError(f"utterance payload mismatch: header implies {expected} bytes, "
                             f"file has {len(blob)}")
    return np.frombuffer(blob[18:], dtype=np.uint8).reshape(t_len, h, w).copy()


# ---------------------------------------------------------------------------
# manifest
# ---------------------------------------------------------------------------

def save_manifest(root, manifest: DatasetManifest) -> None:
    header = {"classes": manifest.classes, "height": manifest.height,
              "width": manifest.width}
    lines = [json.dumps(header, sort_keys=True, separators=(",", ":"))]
    for rec in manifest.records:
        lines.append(json.dumps({"path": rec.path, "subject": rec.subject,
                                 "label": rec.label},
                                sort_keys=True, separators=(",", ":")))
    write_atomic(os.path.join(root, MANIFEST_NAME), "\n".join(lines) + "\n")


def _is_int(v) -> bool:
    return type(v) is int  # a JSON integer; bool is an int subclass and is refused


_POSITIVE = (lambda v: _is_int(v) and v > 0, "a positive integer")
_NAME = (lambda v: isinstance(v, str) and v != "", "a non-empty string")
# key -> (test, what the value must be), for the header and for each record
_HEADER_KEYS = {"classes": (lambda v: isinstance(v, list)
                            and all(isinstance(c, str) for c in v), "a list of strings"),
                "height": _POSITIVE, "width": _POSITIVE}
_RECORD_KEYS = {"path": _NAME, "subject": _NAME, "label": (_is_int, "an integer")}


def _manifest_object(path, lineno: int, line: str, keys: dict) -> dict:
    """Parse one manifest line as a JSON object holding a valid value for every key."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} line {lineno}: not JSON ({exc})") from None
    if not isinstance(obj, dict):
        raise ValueError(f"{path} line {lineno}: expected a JSON object, "
                         f"got {type(obj).__name__}")
    for key, (valid, what) in keys.items():
        if key not in obj:
            raise ValueError(f"{path} line {lineno}: missing key {key!r}")
        if not valid(obj[key]):
            raise ValueError(f"{path} line {lineno}: {key!r} must be {what}, "
                             f"got {json.dumps(obj[key])}")
    return obj


def load_manifest(root) -> DatasetManifest:
    path = os.path.join(root, MANIFEST_NAME)
    with open(path, encoding="utf-8") as fh:
        lines = [(n, ln) for n, ln in enumerate(fh.read().splitlines(), 1) if ln.strip()]
    if not lines:
        raise ValueError(f"empty manifest at {path}")
    header = _manifest_object(path, *lines[0], _HEADER_KEYS)
    classes = header["classes"]
    records = []
    seen_paths = set()
    for lineno, ln in lines[1:]:
        obj = _manifest_object(path, lineno, ln, _RECORD_KEYS)
        rec = UtteranceRecord(path=obj["path"], subject=obj["subject"], label=obj["label"])
        if not 0 <= rec.label < len(classes):
            raise ValueError(f"manifest record {rec.path!r} label {rec.label} "
                             f"outside [0, {len(classes)})")
        if rec.path in seen_paths:
            raise ValueError(f"manifest repeats path {rec.path!r}")
        seen_paths.add(rec.path)
        records.append(rec)
    return DatasetManifest(classes=classes, height=header["height"],
                           width=header["width"], records=records)


def load_utterances(root, manifest: DatasetManifest,
                    paths: list[str] | None = None) -> list[LoadedUtterance]:
    """Load listed utterances (manifest order); None loads everything."""
    wanted = None if paths is None else set(paths)
    out = []
    for rec in manifest.records:
        if wanted is not None and rec.path not in wanted:
            continue
        frames = load_utterance(os.path.join(root, rec.path))
        if frames.shape[1:] != (manifest.height, manifest.width):
            raise ValueError(f"{rec.path}: frames are {frames.shape[1:]}, manifest says "
                             f"({manifest.height}, {manifest.width})")
        out.append(LoadedUtterance(rec.path, rec.subject, rec.label, frames))
    if wanted is not None and len(out) != len(wanted):
        missing = wanted - {u.path for u in out}
        raise ValueError(f"manifest lacks requested paths: {sorted(missing)[:5]}")
    return out


# ---------------------------------------------------------------------------
# preprocessing
# ---------------------------------------------------------------------------

def _znorm_frames(flat: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Zero mean, unit variance per row, in place; zero-variance rows become zeros.

    flat must be a private float64 array; scratch, of the same shape,
    receives the squared deviations.
    """
    flat -= flat.mean(axis=1, keepdims=True)
    std = np.sqrt(np.square(flat, out=scratch).mean(axis=1, keepdims=True))
    zero_var = std[:, 0] == 0
    std[zero_var] = 1.0
    flat /= std
    flat[zero_var] = 0.0
    return flat


def _centered(frames: np.ndarray, name: str) -> np.ndarray:
    """[T, H, W] u8 -> private float64 [T, H*W] minus the utterance mean image."""
    if frames.ndim != 3 or frames.shape[0] < 2:
        raise ValueError(f"{name} expects [T>=2, H, W], got {frames.shape}")
    x = frames.reshape(frames.shape[0], -1).astype(np.float64)
    x -= x.mean(axis=0, keepdims=True)  # per-pixel mean over the utterance
    return x


def preprocess_raw(frames: np.ndarray, dtype=DEFAULT_DTYPE) -> np.ndarray:
    """[T, H, W] -> [T, H*W]: subtract the utterance mean image, then
    z-normalize each frame over its own pixels."""
    x = _centered(frames, "preprocess_raw")
    return _znorm_frames(x, np.empty_like(x)).astype(dtype, copy=False)


def preprocess_diff(frames: np.ndarray, dtype=DEFAULT_DTYPE) -> np.ndarray:
    """[T, H, W] -> [T, H*W]: consecutive differences of mean-subtracted
    frames, a zero frame prepended so the length stays T, then per-frame
    z-normalization."""
    x = _centered(frames, "preprocess_diff")
    d = np.empty_like(x)
    d[0] = 0.0
    np.subtract(x[1:], x[:-1], out=d[1:])
    return _znorm_frames(d, x).astype(dtype, copy=False)


def stream_features(frames: np.ndarray, kind: str, dtype=DEFAULT_DTYPE) -> np.ndarray:
    if kind == "raw":
        return preprocess_raw(frames, dtype)
    if kind == "diff":
        return preprocess_diff(frames, dtype)
    raise ValueError(f"unknown stream kind {kind!r}")


# ---------------------------------------------------------------------------
# protocol splits
# ---------------------------------------------------------------------------

def _subject_sort_key(subject: str):
    m = re.search(r"\d+", subject)
    return (0, int(m.group()), subject) if m else (1, 0, subject)


def _subject_number(subject: str) -> int:
    m = re.search(r"\d+", subject)
    if m is None:
        raise ValueError(f"subject id {subject!r} carries no number, required here")
    return int(m.group())


def _paths_for(manifest: DatasetManifest, subjects) -> list[str]:
    chosen = set(subjects)
    return [r.path for r in manifest.records if r.subject in chosen]


def make_split(manifest: DatasetManifest, protocol: str, rng: Rng | None = None,
               train_subjects: list[str] | None = None,
               val_subjects: list[str] | None = None,
               test_subjects: list[str] | None = None) -> ProtocolSplit:
    """Build the train/validation/test utterance lists for a protocol.

    oulu: the last 12 subjects (numeric order) are the designated test set;
    the other 40 are split 35/5 at random. cuave: odd-numbered subjects
    test; even-numbered, the first 12 train and the last 6 validate.
    avletters: per (subject, letter), the first two repetitions train and
    the third tests; no validation set (see holdout_validation). avletters2
    uses protocol names avletters2-fold-0 .. -4: subjects rotate through
    one test and one validation slot per fold. custom takes explicit
    subject lists.
    """
    subjects = sorted({r.subject for r in manifest.records}, key=_subject_sort_key)

    if protocol == "oulu":
        if len(subjects) != 52:
            raise ValueError(f"oulu protocol expects 52 subjects, manifest has {len(subjects)}")
        test_s = subjects[-12:]
        rest = subjects[:-12]
        if rng is None:
            rng = Rng(0)
        order = rng.permutation(len(rest))
        train_s = [rest[i] for i in order[:35]]
        val_s = [rest[i] for i in order[35:]]
        return ProtocolSplit(train=_paths_for(manifest, train_s),
                             val=_paths_for(manifest, val_s),
                             test=_paths_for(manifest, test_s), protocol=protocol)

    if protocol == "cuave":
        odd = [s for s in subjects if _subject_number(s) % 2 == 1]
        even = [s for s in subjects if _subject_number(s) % 2 == 0]
        if len(odd) != 18 or len(even) != 18:
            raise ValueError(f"cuave protocol expects 18 odd and 18 even subjects, "
                             f"manifest has {len(odd)} odd and {len(even)} even")
        return ProtocolSplit(train=_paths_for(manifest, even[:12]),
                             val=_paths_for(manifest, even[12:]),
                             test=_paths_for(manifest, odd), protocol=protocol)

    if protocol == "avletters":
        groups: dict[tuple[str, int], list[str]] = {}
        for r in manifest.records:
            groups.setdefault((r.subject, r.label), []).append(r.path)
        train, test = [], []
        for key in sorted(groups):
            paths = sorted(groups[key])
            if len(paths) != 3:
                raise ValueError(f"avletters protocol expects 3 repetitions per "
                                 f"subject/letter, {key} has {len(paths)}")
            train += paths[:2]
            test += paths[2:]
        return ProtocolSplit(train=train, val=[], test=test, protocol=protocol)

    m = re.fullmatch(r"avletters2-fold-(\d)", protocol)
    if m:
        fold = int(m.group(1))
        if len(subjects) != 5:
            raise ValueError(f"avletters2 protocol expects 5 subjects, "
                             f"manifest has {len(subjects)}")
        if fold > 4:
            raise ValueError(f"avletters2 fold must be 0..4, got {fold}")
        test_s = [subjects[fold]]
        val_s = [subjects[(fold + 1) % 5]]
        train_s = [s for s in subjects if s not in test_s + val_s]
        return ProtocolSplit(train=_paths_for(manifest, train_s),
                             val=_paths_for(manifest, val_s),
                             test=_paths_for(manifest, test_s), protocol=protocol)

    if protocol == "custom":
        if not train_subjects or not test_subjects:
            raise ValueError("custom protocol needs explicit train and test subjects")
        listed = set(train_subjects) | set(val_subjects or []) | set(test_subjects)
        overlap = (set(train_subjects) & set(test_subjects)) \
            | (set(train_subjects) & set(val_subjects or [])) \
            | (set(val_subjects or []) & set(test_subjects))
        if overlap:
            raise ValueError(f"custom subject lists overlap: {sorted(overlap)}")
        unknown = listed - set(subjects)
        if unknown:
            raise ValueError(f"custom subjects not in manifest: {sorted(unknown)}")
        return ProtocolSplit(train=_paths_for(manifest, train_subjects),
                             val=_paths_for(manifest, val_subjects or []),
                             test=_paths_for(manifest, test_subjects), protocol=protocol)

    raise ValueError(f"unknown protocol {protocol!r}")


def holdout_validation(split: ProtocolSplit, rng: Rng) -> ProtocolSplit:
    """Move a seeded tenth (at least one) of a split's training utterances
    into a validation set.

    For protocols that define no validation set. The holdout is
    utterance-level (not subject-disjoint), matching the subject-dependent
    settings it serves.
    """
    if split.val:
        raise ValueError(f"split already has {len(split.val)} validation utterances")
    n = len(split.train)
    n_val = max(1, int(round(0.1 * n)))
    if n_val >= n:
        raise ValueError(f"holdout of {n_val} would empty a training set of {n}")
    order = rng.permutation(n)
    val = [split.train[i] for i in sorted(order[:n_val])]
    train = [split.train[i] for i in sorted(order[n_val:])]
    return ProtocolSplit(train=train, val=val, test=list(split.test),
                         protocol=split.protocol)


# ---------------------------------------------------------------------------
# synthetic data
# ---------------------------------------------------------------------------

def class_motion_params(k: int) -> dict:
    """Deterministic motion signature for class k: orientation alternates,
    frequency steps every two classes, phase walks with k."""
    return {"orientation": k % 2, "frequency": 1 + k // 2, "phase": 0.4 * k}


def _render_utterance(t_len: int, height: int, width: int, motion: dict,
                      base: np.ndarray, bar_amp: float, noise: np.ndarray) -> np.ndarray:
    dim = height if motion["orientation"] == 0 else width
    center = (dim - 1) / 2.0
    swing = 0.35 * dim
    coord = np.arange(dim, dtype=np.float64)
    img = np.empty((t_len, height, width), dtype=np.float64)
    for t in range(t_len):
        pos = center + swing * np.sin(2 * np.pi * motion["frequency"] * t / t_len
                                      + motion["phase"])
        profile = bar_amp * np.exp(-((coord - pos) ** 2) / (2 * 1.5 ** 2))
        frame = base + (profile[:, None] if motion["orientation"] == 0 else profile[None, :])
        img[t] = frame
    img += noise
    return np.clip(np.rint(img), 0, 255).astype(np.uint8)


def synth_generate(classes: int, subjects: int, reps: int, frames: int,
                   height: int, width: int, seed: int, out_dir) -> DatasetManifest:
    """Write a synthetic dataset (manifest + utterance files) under out_dir.

    Classes differ only in motion (bar orientation, oscillation frequency,
    phase); subjects differ only in appearance (brightness, contrast, a
    static texture). Same arguments give a byte-identical tree.
    """
    if min(classes, subjects, reps) < 1 or frames < 2:
        raise ValueError("synth_generate needs classes/subjects/reps >= 1 and frames >= 2")
    os.makedirs(out_dir, exist_ok=True)
    rng = Rng(seed)
    looks = []
    for _ in range(subjects):
        brightness = rng.uniform(90.0, 150.0)
        contrast = rng.uniform(0.7, 1.3)
        tex_amp = rng.uniform(5.0, 15.0)
        texture = tex_amp * rng.normal((height, width))
        looks.append((brightness + texture, 110.0 * contrast))
    records = []
    for s in range(subjects):
        base, bar_amp = looks[s]
        for k in range(classes):
            motion = class_motion_params(k)
            for r in range(reps):
                noise = 6.0 * rng.normal((frames, height, width))
                arr = _render_utterance(frames, height, width, motion, base,
                                        bar_amp, noise)
                name = f"s{s:02d}_c{k:02d}_r{r:02d}.vsru"
                save_utterance(os.path.join(out_dir, name), arr)
                records.append(UtteranceRecord(path=name, subject=f"s{s:02d}", label=k))
    manifest = DatasetManifest(classes=[f"c{k:02d}" for k in range(classes)],
                               height=height, width=width, records=records)
    save_manifest(out_dir, manifest)
    return manifest
