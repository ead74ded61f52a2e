import json
import struct

import numpy as np
import pytest

from vsr.data import (
    ContainerError,
    DatasetManifest,
    UtteranceRecord,
    class_motion_params,
    holdout_validation,
    load_manifest,
    load_utterance,
    load_utterances,
    make_split,
    preprocess_diff,
    preprocess_raw,
    save_manifest,
    save_utterance,
    stream_features,
    synth_generate,
)
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


# ---------------------------------------------------------------------------
# preprocessing
# ---------------------------------------------------------------------------

def test_preprocess_raw_static_video_is_all_zero():
    frames = np.tile(Rng(0).integers(256, (1, 6, 7)).astype(np.uint8), (5, 1, 1))
    out = preprocess_raw(frames)
    assert out.shape == (5, 42)
    assert np.all(out == 0.0)


def test_preprocess_raw_row_statistics():
    frames = Rng(1).integers(256, (8, 10, 9)).astype(np.uint8)
    out = preprocess_raw(frames, dtype=np.float64)
    assert np.allclose(out.mean(axis=1), 0.0, atol=1e-9)
    assert np.allclose(out.std(axis=1), 1.0, atol=1e-9)


def test_preprocess_raw_brightness_shift_invariance():
    base = Rng(2).integers(200, (6, 4, 4)).astype(np.float64)
    shifted = base + 17.0
    a = preprocess_raw(base, dtype=np.float64)
    b = preprocess_raw(shifted, dtype=np.float64)
    assert np.allclose(a, b, atol=1e-12)


def test_preprocess_diff_static_video_is_all_zero():
    frames = np.tile(Rng(3).integers(256, (1, 5, 5)).astype(np.uint8), (4, 1, 1))
    assert np.all(preprocess_diff(frames) == 0.0)


def test_preprocess_diff_first_frame_zero_and_length_kept():
    frames = Rng(4).integers(256, (6, 3, 4)).astype(np.uint8)
    out = preprocess_diff(frames, dtype=np.float64)
    assert out.shape == (6, 12)
    assert np.all(out[0] == 0.0)


def test_preprocess_diff_constant_velocity_rows_identical():
    # frame t = t * pattern: every consecutive difference is the same image,
    # so all difference rows normalize identically.
    pattern = np.abs(Rng(5).normal((4, 4))) + 0.5
    frames = np.stack([t * pattern for t in range(5)])
    out = preprocess_diff(frames, dtype=np.float64)
    for t in range(2, 5):
        assert np.allclose(out[t], out[1], atol=1e-9)


def test_preprocess_diff_ignores_static_appearance():
    motion = Rng(6).integers(50, (7, 4, 4)).astype(np.float64)
    static = 3.0 * np.arange(16, dtype=np.float64).reshape(4, 4)
    a = preprocess_diff(motion, dtype=np.float64)
    b = preprocess_diff(motion + static, dtype=np.float64)
    assert np.allclose(a, b, atol=1e-9)


def test_stream_features_dispatch():
    frames = Rng(7).integers(256, (4, 3, 3)).astype(np.uint8)
    assert np.array_equal(stream_features(frames, "raw"), preprocess_raw(frames))
    assert np.array_equal(stream_features(frames, "diff"), preprocess_diff(frames))
    assert stream_features(frames, "raw").dtype == np.float32
    with pytest.raises(ValueError):
        stream_features(frames, "flow")


def test_preprocess_rejects_too_short():
    with pytest.raises(ValueError):
        preprocess_raw(np.zeros((1, 2, 2), dtype=np.uint8))
    with pytest.raises(ValueError):
        preprocess_diff(np.zeros((1, 2, 2), dtype=np.uint8))


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
