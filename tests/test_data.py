import hashlib
import json
import re
import struct

import numpy as np
import pytest

from vsr.data import (
    ContainerError,
    DatasetManifest,
    ProtocolSplit,
    UtteranceRecord,
    class_motion_params,
    holdout_validation,
    load_manifest,
    load_utterance,
    load_utterances,
    make_split,
    save_manifest,
    save_utterance,
    stream_features,
    synth_generate,
)
from oracles import ref_preprocess
from vsr.numerics import Rng


# ---------------------------------------------------------------------------
# utterance container
# ---------------------------------------------------------------------------

def test_container_bytes_built_by_hand(tmp_path):
    """The on-disk layout is pinned: magic, u16 version, u32 T/H/W, payload."""
    path = tmp_path / "u.vsru"
    blob = b"VSRU" + struct.pack("<HIII", 1, 3, 2, 2) + bytes(range(12))
    path.write_bytes(blob)
    frames = load_utterance(path)
    assert frames.shape == (3, 2, 2)
    assert frames.dtype == np.uint8
    assert frames[0].tolist() == [[0, 1], [2, 3]]
    assert frames[2].tolist() == [[8, 9], [10, 11]]


def test_container_roundtrip_exact(tmp_path):
    frames = (Rng(1).uniform(0, 255, (7, 5, 4))).astype(np.uint8)
    path = tmp_path / "r.vsru"
    save_utterance(path, frames)
    again = load_utterance(path)
    assert np.array_equal(frames, again)
    # a second write of the loaded data is byte-identical
    path2 = tmp_path / "r2.vsru"
    save_utterance(path2, again)
    assert path.read_bytes() == path2.read_bytes()


def test_container_truncated_payload(tmp_path):
    path = tmp_path / "t.vsru"
    blob = b"VSRU" + struct.pack("<HIII", 1, 3, 2, 2) + bytes(11)
    path.write_bytes(blob)
    # the message counts whole-file bytes: 18 header + 12 payload expected
    with pytest.raises(ContainerError, match="30.*29"):
        load_utterance(path)


def test_container_bad_magic(tmp_path):
    path = tmp_path / "m.vsru"
    path.write_bytes(b"JUNK" + struct.pack("<HIII", 1, 2, 1, 1) + bytes(2))
    with pytest.raises(ContainerError, match="magic"):
        load_utterance(path)


def test_container_bad_version(tmp_path):
    path = tmp_path / "v.vsru"
    path.write_bytes(b"VSRU" + struct.pack("<HIII", 9, 2, 1, 1) + bytes(2))
    with pytest.raises(ContainerError, match="version"):
        load_utterance(path)


def test_container_too_short_for_header(tmp_path):
    path = tmp_path / "s.vsru"
    path.write_bytes(b"VSRU\x01")
    with pytest.raises(ContainerError):
        load_utterance(path)


@pytest.mark.parametrize("blob, named", [
    (b"VSRU\x01", "too short to hold a header: 5 bytes"),
    (b"JUNK" + struct.pack("<HIII", 1, 2, 1, 1) + bytes(2), "bad magic b'JUNK'"),
    (b"VSRU" + struct.pack("<HIII", 9, 2, 1, 1) + bytes(2), "unsupported version 9"),
    (b"VSRU" + struct.pack("<HIII", 1, 1, 1, 1) + bytes(1), "at least 2 frames"),
    (b"VSRU" + struct.pack("<HIII", 1, 3, 2, 2) + bytes(11), "header implies 30 bytes"),
], ids=["header", "magic", "version", "frames", "payload"])
def test_every_container_error_names_the_file(tmp_path, blob, named):
    path = tmp_path / "bad.vsru"
    path.write_bytes(blob)
    with pytest.raises(ContainerError) as err:
        load_utterance(path)
    assert str(err.value).startswith(f"utterance {path}: ")
    assert named in str(err.value)


def test_load_utterance_reads_only_the_header_and_the_declared_payload(tmp_path, monkeypatch):
    """No read is unbounded: the header's 18 bytes, then the payload it declares."""
    import vsr.fileio

    path = tmp_path / "u.vsru"
    save_utterance(path, np.zeros((3, 4, 5), dtype=np.uint8))
    sizes = []

    class Recording:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def fileno(self):
            return self.fh.fileno()

        def read(self, *args):
            sizes.append(args[0] if args else None)
            return self.fh.read(*args)

    monkeypatch.setattr(vsr.fileio, "open", lambda *a, **k: Recording(open(*a, **k)),
                        raising=False)
    assert load_utterance(path).shape == (3, 4, 5)
    assert sizes == [18, 60]


def test_load_utterance_refuses_a_file_that_is_not_regular(tmp_path):
    with pytest.raises(ContainerError, match="^utterance /dev/null: not a regular file$"):
        load_utterance("/dev/null")
    with pytest.raises(IsADirectoryError):
        load_utterance(tmp_path)


def test_container_save_validation(tmp_path):
    with pytest.raises(ContainerError):
        save_utterance(tmp_path / "a.vsru", np.zeros((3, 2, 2), dtype=np.float32))
    with pytest.raises(ContainerError):
        save_utterance(tmp_path / "b.vsru", np.zeros((1, 2, 2), dtype=np.uint8))
    with pytest.raises(ContainerError):
        save_utterance(tmp_path / "c.vsru", np.zeros((4, 2), dtype=np.uint8))


# ---------------------------------------------------------------------------
# manifest
# ---------------------------------------------------------------------------

def small_manifest():
    recs = [UtteranceRecord(f"u{i}.vsru", f"s{i % 2}", i % 3) for i in range(6)]
    return DatasetManifest(classes=["a", "b", "c"], height=4, width=5, records=recs)


def test_manifest_roundtrip(tmp_path):
    m = small_manifest()
    save_manifest(tmp_path, m)
    again = load_manifest(tmp_path)
    assert again.classes == m.classes
    assert (again.height, again.width) == (4, 5)
    assert again.records == m.records
    assert again.frame_dim == 20


def test_manifest_rejects_duplicate_paths(tmp_path):
    m = small_manifest()
    m.records.append(m.records[0])
    save_manifest(tmp_path, m)
    with pytest.raises(ValueError, match="repeats path"):
        load_manifest(tmp_path)


def _one_record_manifest(root, record_path):
    root.mkdir(exist_ok=True)
    lines = [json.dumps({"classes": ["a"], "height": 2, "width": 2}),
             json.dumps({"path": record_path, "subject": "s0", "label": 0})]
    (root / "manifest.jsonl").write_text("\n".join(lines) + "\n")


def test_manifest_refuses_an_absolute_record_path(tmp_path):
    _one_record_manifest(tmp_path, str(tmp_path / "x.vsru"))
    with pytest.raises(ValueError, match="manifest.jsonl line 2: 'path' must be a relative "
                                         "path inside the dataset"):
        load_manifest(tmp_path)


@pytest.mark.parametrize("record_path", ["../d/x.vsru", "sub/../../d/x.vsru", ".."])
def test_manifest_refuses_a_record_path_that_leaves_the_dataset(tmp_path, record_path):
    """A sibling directory's container would otherwise load as the dataset's own."""
    (tmp_path / "d").mkdir()
    save_utterance(tmp_path / "d" / "x.vsru", np.zeros((2, 2, 2), dtype=np.uint8))
    _one_record_manifest(tmp_path / "root", record_path)
    with pytest.raises(ValueError, match=re.escape(
            f"line 2: 'path' must be a relative path inside the dataset, "
            f"got {json.dumps(record_path)}")):
        load_manifest(tmp_path / "root")


def test_a_symlink_cannot_lead_a_container_out_of_the_dataset(tmp_path):
    save_utterance(tmp_path / "outside.vsru", np.zeros((2, 2, 2), dtype=np.uint8))
    (tmp_path / "root").mkdir()
    (tmp_path / "root" / "x.vsru").symlink_to("../outside.vsru")
    _one_record_manifest(tmp_path / "root", "x.vsru")
    with pytest.raises(ContainerError, match=re.escape(
            f"utterance {tmp_path / 'root' / 'x.vsru'}: resolves outside the dataset root")):
        load_utterances(tmp_path / "root", load_manifest(tmp_path / "root"))


def test_a_symlink_to_a_container_inside_the_dataset_loads(tmp_path):
    (tmp_path / "sub").mkdir()
    save_utterance(tmp_path / "sub" / "y.vsru", np.full((2, 2, 2), 7, dtype=np.uint8))
    (tmp_path / "x.vsru").symlink_to("sub/y.vsru")
    _one_record_manifest(tmp_path, "x.vsru")
    [utt] = load_utterances(tmp_path, load_manifest(tmp_path))
    assert utt.path == "x.vsru" and np.all(utt.frames == 7)


@pytest.mark.parametrize("record_path", ["sub/x.vsru", "./sub/x.vsru", "sub/../sub/x.vsru"])
def test_manifest_loads_a_record_path_in_a_subdirectory(tmp_path, record_path):
    (tmp_path / "sub").mkdir()
    save_utterance(tmp_path / "sub" / "x.vsru", np.zeros((2, 2, 2), dtype=np.uint8))
    _one_record_manifest(tmp_path, record_path)
    [utt] = load_utterances(tmp_path, load_manifest(tmp_path))
    assert utt.path == record_path and utt.frames.shape == (2, 2, 2)


@pytest.mark.parametrize("body, named", [
    (b'{"classes": ["a\xff"], "height": 2, "width": 2}\n', "not valid UTF-8"),
    (b"[" * 100_000 + b"]" * 100_000 + b"\n", "line 1: not JSON"),
    (b'{"classes": ["a"], "height": ' + b"9" * 5000 + b', "width": 2}\n', "line 1: not JSON"),
], ids=["utf8", "nesting", "long-int"])
def test_manifest_that_cannot_be_parsed_names_the_file(tmp_path, body, named):
    (tmp_path / "manifest.jsonl").write_bytes(body)
    with pytest.raises(ValueError) as err:
        load_manifest(tmp_path)
    assert str(err.value).startswith(f"{tmp_path / 'manifest.jsonl'}")
    assert named in str(err.value)


def test_manifest_rejects_bad_label(tmp_path):
    lines = [json.dumps({"classes": ["a"], "height": 2, "width": 2}),
             json.dumps({"path": "x.vsru", "subject": "s0", "label": 1})]
    (tmp_path / "manifest.jsonl").write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="label"):
        load_manifest(tmp_path)


def test_manifest_rejects_empty_subject(tmp_path):
    lines = [json.dumps({"classes": ["a"], "height": 2, "width": 2}),
             json.dumps({"path": "x.vsru", "subject": "", "label": 0})]
    (tmp_path / "manifest.jsonl").write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="subject"):
        load_manifest(tmp_path)


@pytest.mark.parametrize("key", ["classes", "height", "width"])
def test_manifest_header_missing_key_is_named(tmp_path, key):
    header = {"classes": ["a"], "height": 2, "width": 2}
    del header[key]
    lines = [json.dumps(header), json.dumps({"path": "x.vsru", "subject": "s0", "label": 0})]
    (tmp_path / "manifest.jsonl").write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"line 1: missing key '{key}'"):
        load_manifest(tmp_path)


@pytest.mark.parametrize("key", ["path", "subject", "label"])
def test_manifest_record_missing_key_is_named(tmp_path, key):
    rec = {"path": "x.vsru", "subject": "s0", "label": 0}
    del rec[key]
    lines = [json.dumps({"classes": ["a"], "height": 2, "width": 2}), "",
             json.dumps({"path": "y.vsru", "subject": "s1", "label": 0}), json.dumps(rec)]
    (tmp_path / "manifest.jsonl").write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"line 4: missing key '{key}'"):
        load_manifest(tmp_path)


@pytest.mark.parametrize("key, value, what", [
    ("classes", 5, "a list of strings"),
    ("classes", ["a", 1], "a list of strings"),
    ("classes", None, "a list of strings"),
    ("height", "2", "a positive integer"),
    ("height", 0, "a positive integer"),
    ("width", -2, "a positive integer"),
    ("width", 2.0, "a positive integer"),
    ("width", True, "a positive integer"),
])
def test_manifest_header_value_types_are_named(tmp_path, key, value, what):
    header = {"classes": ["a", "b"], "height": 2, "width": 2, key: value}
    lines = [json.dumps(header), json.dumps({"path": "x.vsru", "subject": "s0", "label": 0})]
    (tmp_path / "manifest.jsonl").write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"line 1: '{key}' must be {what}, "
                                         f"got {re.escape(json.dumps(value))}$"):
        load_manifest(tmp_path)


@pytest.mark.parametrize("key, value, what", [
    ("label", None, "an integer"),
    ("label", True, "an integer"),
    ("label", 1.7, "an integer"),
    ("label", 1.0, "an integer"),
    ("label", "1", "an integer"),
    ("subject", 3, "a non-empty string"),
    ("subject", None, "a non-empty string"),
    ("path", "", "a non-empty string"),
    ("path", ["x.vsru"], "a non-empty string"),
])
def test_manifest_record_value_types_are_named(tmp_path, key, value, what):
    rec = {"path": "x.vsru", "subject": "s0", "label": 0, key: value}
    lines = [json.dumps({"classes": ["a", "b"], "height": 2, "width": 2}),
             json.dumps({"path": "y.vsru", "subject": "s1", "label": 1}), json.dumps(rec)]
    (tmp_path / "manifest.jsonl").write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"line 3: '{key}' must be {what}, "
                                         f"got {re.escape(json.dumps(value))}$"):
        load_manifest(tmp_path)


def test_manifest_line_that_is_not_json_is_named(tmp_path):
    lines = [json.dumps({"classes": ["a"], "height": 2, "width": 2}), "{'path': 'x.vsru'}"]
    (tmp_path / "manifest.jsonl").write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="line 2: not JSON"):
        load_manifest(tmp_path)


@pytest.mark.parametrize("line", ["[1, 2]", "\"classes\"", "7", "null"])
def test_manifest_lines_must_be_objects(tmp_path, line):
    good = json.dumps({"classes": ["a"], "height": 2, "width": 2})
    for lines, lineno in (([line], 1), ([good, line], 2)):
        (tmp_path / "manifest.jsonl").write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"line {lineno}: expected a JSON object"):
            load_manifest(tmp_path)


def test_load_utterances_selects_and_validates(tmp_path):
    frames = np.zeros((3, 4, 5), dtype=np.uint8)
    for i in range(3):
        save_utterance(tmp_path / f"u{i}.vsru", frames)
    recs = [UtteranceRecord(f"u{i}.vsru", "s0", 0) for i in range(3)]
    m = DatasetManifest(classes=["a"], height=4, width=5, records=recs)
    got = load_utterances(tmp_path, m, ["u2.vsru", "u0.vsru"])
    # manifest order wins, not request order
    assert [u.path for u in got] == ["u0.vsru", "u2.vsru"]
    assert all(u.frames.shape == (3, 4, 5) for u in got)

    wrong = DatasetManifest(classes=["a"], height=9, width=5, records=recs[:1])
    with pytest.raises(ValueError):
        load_utterances(tmp_path, wrong, ["u0.vsru"])
    with pytest.raises(ValueError, match=re.escape("manifest lacks requested paths: ['u9.vsru']")):
        load_utterances(tmp_path, m, ["u0.vsru", "u9.vsru"])


# ---------------------------------------------------------------------------
# preprocessing
# ---------------------------------------------------------------------------

def test_raw_features_of_a_static_video_are_all_zero():
    frames = np.tile(Rng(0).integers(256, (1, 6, 7)).astype(np.uint8), (5, 1, 1))
    out = stream_features(frames, "raw")
    assert out.shape == (5, 42)
    assert np.all(out == 0.0)


def test_raw_features_row_statistics():
    frames = Rng(1).integers(256, (8, 10, 9)).astype(np.uint8)
    out = stream_features(frames, "raw", dtype=np.float64)
    assert np.allclose(out.mean(axis=1), 0.0, atol=1e-9)
    assert np.allclose(out.std(axis=1), 1.0, atol=1e-9)


def test_raw_features_brightness_shift_invariance():
    base = Rng(2).integers(200, (6, 4, 4)).astype(np.float64)
    shifted = base + 17.0
    a = stream_features(base, "raw", dtype=np.float64)
    b = stream_features(shifted, "raw", dtype=np.float64)
    assert np.allclose(a, b, atol=1e-12)


def test_diff_features_of_a_static_video_are_all_zero():
    frames = np.tile(Rng(3).integers(256, (1, 5, 5)).astype(np.uint8), (4, 1, 1))
    assert np.all(stream_features(frames, "diff") == 0.0)


def test_diff_features_first_frame_zero_and_length_kept():
    frames = Rng(4).integers(256, (6, 3, 4)).astype(np.uint8)
    out = stream_features(frames, "diff", dtype=np.float64)
    assert out.shape == (6, 12)
    assert np.all(out[0] == 0.0)


def test_diff_features_constant_velocity_rows_identical():
    # frame t = t * pattern: every consecutive difference is the same image,
    # so all difference rows normalize identically.
    pattern = np.abs(Rng(5).normal((4, 4))) + 0.5
    frames = np.stack([t * pattern for t in range(5)])
    out = stream_features(frames, "diff", dtype=np.float64)
    for t in range(2, 5):
        assert np.allclose(out[t], out[1], atol=1e-9)


def test_diff_features_ignore_static_appearance():
    motion = Rng(6).integers(50, (7, 4, 4)).astype(np.float64)
    static = 3.0 * np.arange(16, dtype=np.float64).reshape(4, 4)
    a = stream_features(motion, "diff", dtype=np.float64)
    b = stream_features(motion + static, "diff", dtype=np.float64)
    assert np.allclose(a, b, atol=1e-9)


def test_stream_features_dispatch():
    frames = Rng(7).integers(256, (4, 3, 3)).astype(np.uint8)
    for kind in ("raw", "diff"):
        want = ref_preprocess(frames, kind, np.float32)
        assert stream_features(frames, kind).tobytes() == want.tobytes()
    assert not np.array_equal(stream_features(frames, "raw"), stream_features(frames, "diff"))
    assert stream_features(frames, "raw").dtype == np.float32
    with pytest.raises(ValueError):
        stream_features(frames, "flow")


def test_preprocess_rejects_too_short():
    for kind in ("raw", "diff"):
        with pytest.raises(ValueError, match=r"expects \[T>=2, H, W\]"):
            stream_features(np.zeros((1, 2, 2), dtype=np.uint8), kind)


# ---------------------------------------------------------------------------
# protocols
# ---------------------------------------------------------------------------

def manifest_of(spec_rows, n_classes):
    """spec_rows: list of (subject, utterances_per_class_list)."""
    recs = []
    for subject, labels in spec_rows:
        for j, label in enumerate(labels):
            recs.append(UtteranceRecord(f"{subject}_u{j:03d}.vsru", subject, label))
    return DatasetManifest(classes=[f"c{k}" for k in range(n_classes)],
                           height=2, width=2, records=recs)


def oulu_manifest():
    # 52 speakers, 10 phrases, 3 repetitions each
    rows = [(f"p{i:02d}", [k for k in range(10) for _ in range(3)])
            for i in range(1, 53)]
    return manifest_of(rows, 10)


def cuave_manifest():
    # 36 speakers, 10 digits, 5 repetitions; one even training speaker
    # is short a repetition of every digit (40 utterances instead of 50)
    rows = []
    for i in range(1, 37):
        reps = 4 if i == 2 else 5
        rows.append((f"s{i:02d}", [k for k in range(10) for _ in range(reps)]))
    return manifest_of(rows, 10)


def avletters_manifest():
    # 10 speakers, 26 letters, 3 repetitions
    rows = [(f"s{i:02d}", [k for k in range(26) for _ in range(3)])
            for i in range(1, 11)]
    return manifest_of(rows, 26)


def avletters2_manifest():
    # 5 speakers, 26 letters, 7 repetitions = 182 utterances each
    rows = [(f"s{i}", [k for k in range(26) for _ in range(7)])
            for i in range(1, 6)]
    return manifest_of(rows, 26)


def subjects_of(manifest, paths):
    by_path = {r.path: r.subject for r in manifest.records}
    return {by_path[p] for p in paths}


def test_oulu_split_counts_and_structure():
    m = oulu_manifest()
    split = make_split(m, "oulu", Rng(0))
    assert (len(split.train), len(split.val), len(split.test)) == (1050, 150, 360)
    train_s, val_s, test_s = (subjects_of(m, x) for x in
                              (split.train, split.val, split.test))
    assert test_s == {f"p{i:02d}" for i in range(41, 53)}
    assert not (train_s & val_s) and not (train_s & test_s) and not (val_s & test_s)
    assert len(train_s) == 35 and len(val_s) == 5
    # union covers every utterance exactly once
    assert sorted(split.train + split.val + split.test) == sorted(
        r.path for r in m.records)


def test_oulu_split_seed_dependence():
    m = oulu_manifest()
    a = make_split(m, "oulu", Rng(0))
    b = make_split(m, "oulu", Rng(0))
    c = make_split(m, "oulu", Rng(1))
    assert a.train == b.train and a.val == b.val
    assert a.val != c.val  # a different shuffle of the 40 non-test speakers
    assert a.test == c.test  # the designated dozen never moves


def test_oulu_rejects_wrong_subject_count():
    m = oulu_manifest()
    short = DatasetManifest(classes=m.classes, height=2, width=2,
                            records=[r for r in m.records if r.subject != "p01"])
    with pytest.raises(ValueError, match="52"):
        make_split(short, "oulu", Rng(0))


def test_cuave_split_counts_and_parity():
    m = cuave_manifest()
    split = make_split(m, "cuave")
    assert (len(split.train), len(split.val), len(split.test)) == (590, 300, 900)
    test_s = subjects_of(m, split.test)
    assert all(int(s[1:]) % 2 == 1 for s in test_s)
    train_s = subjects_of(m, split.train)
    val_s = subjects_of(m, split.val)
    assert all(int(s[1:]) % 2 == 0 for s in train_s | val_s)
    assert max(int(s[1:]) for s in train_s) < min(int(s[1:]) for s in val_s)


def test_cuave_split_is_deterministic_without_rng():
    m = cuave_manifest()
    assert make_split(m, "cuave") == make_split(m, "cuave")


def test_cuave_rejects_subjects_it_cannot_split_by_parity():
    m = cuave_manifest()
    short = DatasetManifest(classes=m.classes, height=2, width=2,
                            records=[r for r in m.records if r.subject != "s01"])
    with pytest.raises(ValueError, match="18 odd and 18 even subjects, manifest has 17 odd "
                                         "and 18 even"):
        make_split(short, "cuave")
    m.records.append(UtteranceRecord("anon.vsru", "anon", 0))
    with pytest.raises(ValueError, match="subject id 'anon' carries no number"):
        make_split(m, "cuave")


def test_avletters_split_counts_and_repetition_rule():
    m = avletters_manifest()
    split = make_split(m, "avletters")
    assert (len(split.train), len(split.val), len(split.test)) == (520, 0, 260)
    # per (subject, letter): first two repetitions train, third tests
    split_train = set(split.train)
    for subject in (f"s{i:02d}" for i in range(1, 11)):
        for letter in range(26):
            paths = sorted(r.path for r in m.records
                           if r.subject == subject and r.label == letter)
            assert paths[0] in split_train and paths[1] in split_train
            assert paths[2] in set(split.test)


def test_avletters_rejects_wrong_repetition_count():
    m = avletters_manifest()
    m.records.append(UtteranceRecord("extra.vsru", "s01", 0))
    with pytest.raises(ValueError, match="repetitions"):
        make_split(m, "avletters")


def test_avletters2_folds():
    m = avletters2_manifest()
    seen_test = []
    for fold in range(5):
        split = make_split(m, f"avletters2-fold-{fold}")
        assert (len(split.train), len(split.val), len(split.test)) == (546, 182, 182)
        test_s = subjects_of(m, split.test)
        val_s = subjects_of(m, split.val)
        assert len(test_s) == 1 and len(val_s) == 1 and test_s != val_s
        seen_test.append(test_s.pop())
    assert sorted(seen_test) == ["s1", "s2", "s3", "s4", "s5"]


def test_avletters2_rejects_bad_fold():
    with pytest.raises(ValueError):
        make_split(avletters2_manifest(), "avletters2-fold-5")
    m = avletters2_manifest()
    m.records = [r for r in m.records if r.subject != "s5"]
    with pytest.raises(ValueError, match="expects 5 subjects, manifest has 4"):
        make_split(m, "avletters2-fold-0")


def test_custom_split_validation():
    m = avletters2_manifest()
    split = make_split(m, "custom", train_subjects=["s1", "s2"],
                       val_subjects=["s3"], test_subjects=["s4"])
    assert (len(split.train), len(split.val), len(split.test)) == (364, 182, 182)
    with pytest.raises(ValueError, match="overlap"):
        make_split(m, "custom", train_subjects=["s1"], test_subjects=["s1"])
    with pytest.raises(ValueError, match="not in manifest"):
        make_split(m, "custom", train_subjects=["s9"], test_subjects=["s1"])
    with pytest.raises(ValueError):
        make_split(m, "custom", train_subjects=["s1"], test_subjects=[])


def test_unknown_protocol():
    with pytest.raises(ValueError, match="protocol"):
        make_split(avletters2_manifest(), "grid")


# SHA-256 of each split's exact (train, val, test) path lists, recorded
# before the protocols came to share one return; counts, parity and
# disjointness (above) do not say which subject lands where
SPLIT_DIGESTS = {
    "oulu-0": "69670b0938d97da6a4fb7d424c5908c868952bbff4035946eeff15af17287f56",
    "oulu-1": "4e6eafe9053b4c6a5f9fb5959f14589214623c515244af2f93fd6a293f891385",
    "cuave": "c5663a01fbbfaf7e7a043c5319be38cfb7898f5a2c2d63262158962f373282d8",
    "avletters": "e58802125f7a9028f0641012ac92fa7e40e3272721856813d1cb067e6848fcf7",
    "avletters2-fold-0": "5e71ec4c4990e396cf7d9835f11b93d6cf5e7ac894d6523291e36509586e09c7",
    "avletters2-fold-1": "11b97a0306a566560e8124035141d2e12856353b42d17a2b3352fd1702ab509d",
    "avletters2-fold-2": "03cc3ffe471734b569641f152ac4d1c7cc75e7094cce8589c5bae489cc6f3a97",
    "avletters2-fold-3": "f7194cee7a3116c5fe95ec860c492ec0ec2d3cf3a9f6b152fdfe58493ffb4ba3",
    "avletters2-fold-4": "803522c1fc81e4752fdd77a272e736750c8251cab58f1a38c77209ecd2a776c1",
    "custom": "2bdcd280b375f3237bf52b556ee721e125396f8b58ae20e8b730b07292bab2d4",
}

SPLIT_CASES = {
    "oulu-0": (oulu_manifest, "oulu", {"rng": Rng(0)}),
    "oulu-1": (oulu_manifest, "oulu", {"rng": Rng(1)}),
    "cuave": (cuave_manifest, "cuave", {}),
    "avletters": (avletters_manifest, "avletters", {}),
    **{f"avletters2-fold-{k}": (avletters2_manifest, f"avletters2-fold-{k}", {})
       for k in range(5)},
    "custom": (avletters2_manifest, "custom",
               {"train_subjects": ["s4", "s1"], "val_subjects": ["s5"],
                "test_subjects": ["s2"]}),
}


@pytest.mark.parametrize("case", sorted(SPLIT_CASES))
def test_each_protocol_keeps_its_exact_lists(case):
    manifest, protocol, kwargs = SPLIT_CASES[case]
    split = make_split(manifest(), protocol, **kwargs)
    lists = json.dumps([split.train, split.val, split.test]).encode()
    assert hashlib.sha256(lists).hexdigest() == SPLIT_DIGESTS[case]


@pytest.mark.parametrize("seed, val", [(0, ["p02", "p05", "p06", "p30", "p39"]),
                                       (1, ["p12", "p24", "p32", "p39", "p40"])])
def test_oulu_validation_speakers_are_pinned(seed, val):
    m = oulu_manifest()
    assert sorted(subjects_of(m, make_split(m, "oulu", Rng(seed)).val)) == val


def test_holdout_validation_carves_ten_percent():
    m = avletters_manifest()
    split = make_split(m, "avletters")
    held = holdout_validation(split, Rng(3))
    assert len(held.val) == 52  # 10% of 520
    assert len(held.train) == 468
    assert sorted(held.train + held.val) == sorted(split.train)
    assert held.test == split.test
    # deterministic under the same seed
    again = holdout_validation(split, Rng(3))
    assert again.val == held.val


def test_holdout_refuses_existing_validation():
    m = avletters2_manifest()
    split = make_split(m, "avletters2-fold-0")
    with pytest.raises(ValueError, match="validation"):
        holdout_validation(split, Rng(0))
    with pytest.raises(ValueError, match="holdout of 1 would empty a training set of 1"):
        holdout_validation(ProtocolSplit(train=["u0.vsru"], val=[], test=[]), Rng(0))


# ---------------------------------------------------------------------------
# synthetic data
# ---------------------------------------------------------------------------

def test_synth_generate_counts_and_determinism(tmp_path):
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    ma = synth_generate(3, 4, 2, 6, 8, 10, seed=11, out_dir=a_dir)
    synth_generate(3, 4, 2, 6, 8, 10, seed=11, out_dir=b_dir)
    assert len(ma.records) == 3 * 4 * 2
    names = sorted(p.name for p in a_dir.iterdir())
    assert names == sorted(p.name for p in b_dir.iterdir())
    for name in names:
        assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()


def test_synth_generate_tree_is_pinned(tmp_path):
    """Both bar orientations (classes 0 and 1) on a frame whose height is
    not its width; the digest was recorded before frames were rendered as
    one array instead of one at a time."""
    synth_generate(3, 2, 2, 5, 6, 11, seed=4, out_dir=tmp_path)
    digest = hashlib.sha256()
    for name in sorted(p.name for p in tmp_path.iterdir()):
        digest.update(name.encode())
        digest.update((tmp_path / name).read_bytes())
    assert digest.hexdigest() == \
        "cbc86402598b8ef5bdda68cbc89b4ff53a1b8da03062165b90f81e8c142e5857"


def test_synth_generate_seed_changes_pixels(tmp_path):
    synth_generate(2, 2, 1, 4, 6, 6, seed=1, out_dir=tmp_path / "a")
    synth_generate(2, 2, 1, 4, 6, 6, seed=2, out_dir=tmp_path / "b")
    name = "s00_c00_r00.vsru"
    assert (tmp_path / "a" / name).read_bytes() != (tmp_path / "b" / name).read_bytes()


def test_synth_same_class_shares_motion_not_appearance(tmp_path):
    m = synth_generate(2, 3, 1, 8, 10, 12, seed=4, out_dir=tmp_path)
    # motion parameters are a pure function of the class index
    assert class_motion_params(0) == class_motion_params(0)
    assert class_motion_params(0) != class_motion_params(1)
    u_s0 = load_utterance(tmp_path / "s00_c01_r00.vsru")
    u_s1 = load_utterance(tmp_path / "s01_c01_r00.vsru")
    assert u_s0.shape == u_s1.shape
    assert not np.array_equal(u_s0, u_s1)  # appearance differs per subject
    assert m.classes == ["c00", "c01"]


def test_synth_loadable_through_manifest(tmp_path):
    m = synth_generate(2, 2, 2, 5, 6, 7, seed=9, out_dir=tmp_path)
    utts = load_utterances(tmp_path, m)
    assert len(utts) == 8
    assert all(u.frames.shape == (5, 6, 7) for u in utts)
    assert all(u.frames.dtype == np.uint8 for u in utts)
    labels = {u.label for u in utts}
    assert labels == {0, 1}


def test_synth_validates_arguments(tmp_path):
    with pytest.raises(ValueError):
        synth_generate(0, 2, 1, 5, 4, 4, seed=0, out_dir=tmp_path)
    with pytest.raises(ValueError):
        synth_generate(2, 2, 1, 1, 4, 4, seed=0, out_dir=tmp_path)
    # a frame size that load_manifest would refuse is refused before anything is written
    for height, width in ((4, 0), (-1, 4)):
        with pytest.raises(ValueError, match="synth_generate needs .*height/width >= 1"):
            synth_generate(2, 2, 1, 5, height, width, seed=0, out_dir=tmp_path / "d")
        assert not (tmp_path / "d").exists()
