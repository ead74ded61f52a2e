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

from .fileio import open_regular, write_atomic
from .numerics import DEFAULT_DTYPE, Rng

UTT_MAGIC = b"VSRU"
UTT_VERSION = 1
UTT_HEADER = struct.Struct("<4sHIII")  # magic, version, T, H, W

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

    @property
    def frame_dim(self) -> int:
        return self.height * self.width


@dataclass
class ProtocolSplit:
    train: list[str]
    val: list[str]
    test: list[str]


@dataclass
class LoadedUtterance:
    path: str
    subject: str
    label: int
    frames: np.ndarray  # [T, H, W] u8

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]


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
        fh.write(UTT_HEADER.pack(UTT_MAGIC, UTT_VERSION, t_len, h, w))
        fh.write(np.ascontiguousarray(frames).tobytes())


def load_utterance(path) -> np.ndarray:
    """Read a container's frames [T, H, W]. Every ContainerError starts
    `utterance <path>: `.

    Only the header, then exactly the payload it declares, are read, once
    the file is known to be a regular file of that size, so a record that
    names a device or a huge file allocates nothing before it is refused.
    """
    try:
        return _read_utterance(path)
    except ContainerError as exc:
        exc.args = (f"utterance {path}: {exc}",)
        raise


def _read_utterance(path) -> np.ndarray:
    with open_regular(path, ContainerError) as fh:
        size = os.fstat(fh.fileno()).st_size
        header = fh.read(UTT_HEADER.size)
        if len(header) < UTT_HEADER.size:
            raise ContainerError(f"file too short to hold a header: {len(header)} bytes")
        magic, version, t_len, h, w = UTT_HEADER.unpack(header)
        if magic != UTT_MAGIC:
            raise ContainerError(f"bad magic {magic!r}, expected {UTT_MAGIC!r}")
        if version != UTT_VERSION:
            raise ContainerError(f"unsupported version {version}, expected {UTT_VERSION}")
        if t_len < 2:
            raise ContainerError(f"needs at least 2 frames, header says {t_len}")
        expected = UTT_HEADER.size + t_len * h * w
        if size != expected:
            raise ContainerError(f"payload mismatch: header implies {expected} bytes, "
                                 f"file has {size}")
        payload = fh.read(expected - UTT_HEADER.size)
    if len(payload) != expected - UTT_HEADER.size:  # the file shrank since fstat
        raise ContainerError(f"payload mismatch: header implies {expected} bytes, "
                             f"read {UTT_HEADER.size + len(payload)}")
    return np.frombuffer(payload, dtype=np.uint8).reshape(t_len, h, w).copy()


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
    except (ValueError, RecursionError) as exc:  # a JSONDecodeError, an over-long int, deep nesting
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
    with open_regular(path, lambda what: ValueError(f"{path}: {what}")) as fh:
        blob = fh.read()
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not valid UTF-8 ({exc.reason} at byte {exc.start})") from None
    lines = [(n, ln) for n, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty manifest")
    header = _manifest_object(path, *lines[0], _HEADER_KEYS)
    classes = header["classes"]
    records = []
    seen_paths = set()
    for lineno, ln in lines[1:]:
        obj = _manifest_object(path, lineno, ln, _RECORD_KEYS)
        rec = UtteranceRecord(path=obj["path"], subject=obj["subject"], label=obj["label"])
        where = f"{path} line {lineno}"
        if ("\0" in rec.path or os.path.isabs(rec.path)
                or os.path.normpath(rec.path).split(os.sep)[0] == os.pardir):
            raise ValueError(f"{where}: 'path' must be a relative path inside the dataset, "
                             f"got {json.dumps(rec.path)}")
        if not 0 <= rec.label < len(classes):
            raise ValueError(f"{where}: record {rec.path!r} label {rec.label} "
                             f"outside [0, {len(classes)})")
        if rec.path in seen_paths:
            raise ValueError(f"{where}: manifest repeats path {rec.path!r}")
        seen_paths.add(rec.path)
        records.append(rec)
    return DatasetManifest(classes=classes, height=header["height"],
                           width=header["width"], records=records)


def load_utterances(root, manifest: DatasetManifest,
                    paths: list[str] | None = None) -> list[LoadedUtterance]:
    """Load listed utterances (manifest order); None loads everything.
    A container that resolves outside the root (a symlink out) is refused."""
    wanted = None if paths is None else set(paths)
    real_root = os.path.join(os.path.realpath(root), "")
    out = []
    for rec in manifest.records:
        if wanted is not None and rec.path not in wanted:
            continue
        full = os.path.join(root, rec.path)
        if not os.path.realpath(full).startswith(real_root):
            raise ContainerError(f"utterance {full}: resolves outside the dataset root")
        frames = load_utterance(full)
        if frames.shape[1:] != (manifest.height, manifest.width):
            raise ContainerError(f"utterance {full}: frames are {frames.shape[1:]}, "
                                 f"manifest says ({manifest.height}, {manifest.width})")
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


def stream_features(frames: np.ndarray, kind: str, dtype=DEFAULT_DTYPE) -> np.ndarray:
    """[T, H, W] -> [T, H*W], the frames of the raw or the diff stream.

    Both subtract the utterance's mean image. raw then z-normalizes each
    frame over its own pixels; diff takes consecutive differences, a zero
    frame prepended so the length stays T, and z-normalizes those.
    """
    if kind not in ("raw", "diff"):
        raise ValueError(f"unknown stream kind {kind!r}")
    if frames.ndim != 3 or frames.shape[0] < 2:
        raise ValueError(f"stream_features expects [T>=2, H, W], got {frames.shape}")
    x = frames.reshape(frames.shape[0], -1).astype(np.float64)
    x -= x.mean(axis=0, keepdims=True)  # per-pixel mean over the utterance
    if kind == "raw":
        return _znorm_frames(x, np.empty_like(x)).astype(dtype, copy=False)
    d = np.empty_like(x)
    d[0] = 0.0
    np.subtract(x[1:], x[:-1], out=d[1:])
    return _znorm_frames(d, x).astype(dtype, copy=False)


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


def make_split(manifest: DatasetManifest, protocol: str, rng: Rng | None = None,
               train_subjects: list[str] | None = None,
               val_subjects: list[str] | None = None,
               test_subjects: list[str] | None = None) -> ProtocolSplit:
    """Build the train/validation/test utterance lists for a protocol.

    oulu: the last 12 subjects (numeric order) are the designated test set;
    the other 40 are split 35/5 at random. cuave: odd-numbered subjects
    test; even-numbered, the first 12 train and the last 6 validate.
    avletters2 uses protocol names avletters2-fold-0 .. -4: subjects rotate
    through one test and one validation slot per fold. custom takes explicit
    subject lists. Each of these picks three subject lists, and a split
    lists their utterances in manifest order. avletters splits by
    repetition instead: per (subject, letter), the first two repetitions
    train and the third tests; no validation set (see holdout_validation).
    """
    subjects = sorted({r.subject for r in manifest.records}, key=_subject_sort_key)
    fold = re.fullmatch(r"avletters2-fold-(\d)", protocol)
    if protocol == "oulu":
        if len(subjects) != 52:
            raise ValueError(f"oulu protocol expects 52 subjects, manifest has {len(subjects)}")
        rest = subjects[:-12]
        order = (Rng(0) if rng is None else rng).permutation(len(rest))
        chosen = ([rest[i] for i in order[:35]], [rest[i] for i in order[35:]],
                  subjects[-12:])
    elif protocol == "cuave":
        odd = [s for s in subjects if _subject_number(s) % 2 == 1]
        even = [s for s in subjects if _subject_number(s) % 2 == 0]
        if len(odd) != 18 or len(even) != 18:
            raise ValueError(f"cuave protocol expects 18 odd and 18 even subjects, "
                             f"manifest has {len(odd)} odd and {len(even)} even")
        chosen = even[:12], even[12:], odd
    elif protocol == "avletters":
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
        return ProtocolSplit(train=train, val=[], test=test)
    elif fold:
        k = int(fold.group(1))
        if len(subjects) != 5:
            raise ValueError(f"avletters2 protocol expects 5 subjects, "
                             f"manifest has {len(subjects)}")
        if k > 4:
            raise ValueError(f"avletters2 fold must be 0..4, got {k}")
        test_s, val_s = subjects[k], subjects[(k + 1) % 5]
        chosen = [s for s in subjects if s not in (test_s, val_s)], [val_s], [test_s]
    elif protocol == "custom":
        if not train_subjects or not test_subjects:
            raise ValueError("custom protocol needs explicit train and test subjects")
        chosen = train_subjects, val_subjects or [], test_subjects
        train_set, val_set, test_set = map(set, chosen)
        overlap = (train_set & test_set) | (train_set & val_set) | (val_set & test_set)
        if overlap:
            raise ValueError(f"custom subject lists overlap: {sorted(overlap)}")
        unknown = (train_set | val_set | test_set) - set(subjects)
        if unknown:
            raise ValueError(f"custom subjects not in manifest: {sorted(unknown)}")
    else:
        raise ValueError(f"unknown protocol {protocol!r}")

    train, val, test = ([r.path for r in manifest.records if r.subject in part]
                        for part in map(set, chosen))
    return ProtocolSplit(train=train, val=val, test=test)


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
    return ProtocolSplit(train=train, val=val, test=list(split.test))


# ---------------------------------------------------------------------------
# synthetic data
# ---------------------------------------------------------------------------

def class_motion_params(k: int) -> dict:
    """Deterministic motion signature for class k: orientation alternates,
    frequency steps every two classes, phase walks with k."""
    return {"orientation": k % 2, "frequency": 1 + k // 2, "phase": 0.4 * k}


def _render_utterance(t_len: int, height: int, width: int, motion: dict,
                      base: np.ndarray, bar_amp: float, noise: np.ndarray) -> np.ndarray:
    """The soft bar at each frame's position [T], as profiles [T, dim]
    across the rows or the columns, on the subject's base image plus noise."""
    dim = height if motion["orientation"] == 0 else width
    t = np.arange(t_len)
    pos = (dim - 1) / 2.0 + 0.35 * dim * np.sin(2 * np.pi * motion["frequency"] * t / t_len
                                                  + motion["phase"])
    coord = np.arange(dim, dtype=np.float64)
    profiles = bar_amp * np.exp(-((coord - pos[:, None]) ** 2) / (2 * 1.5 ** 2))
    bars = profiles[:, :, None] if motion["orientation"] == 0 else profiles[:, None, :]
    return np.clip(np.rint(base + bars + noise), 0, 255).astype(np.uint8)


def synth_generate(classes: int, subjects: int, reps: int, frames: int,
                   height: int, width: int, seed: int, out_dir) -> DatasetManifest:
    """Write a synthetic dataset (manifest + utterance files) under out_dir.

    Classes differ only in motion (bar orientation, oscillation frequency,
    phase); subjects differ only in appearance (brightness, contrast, a
    static texture). Same arguments give a byte-identical tree.
    """
    if min(classes, subjects, reps, height, width) < 1 or frames < 2:
        raise ValueError("synth_generate needs classes/subjects/reps/height/width >= 1 "
                         "and frames >= 2")
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
