"""End-to-end tests that drive vsr.cli.main the way a shell user would."""

import json
import os
import struct
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vsr.gradcheck
import vsr.layers
from vsr import cli
from vsr.cli import build_parser, main, resolve_config
from vsr.data import ROI_DIMS, load_manifest
from vsr.gradcheck import CHECKS
from vsr.model import EncoderStack, FusionModel, SingleStreamModel, load_checkpoint

# Small dataset so every training run stays in the tens-of-milliseconds range:
# 4 subjects x 3 classes x 2 reps of 6 frames at 8x9 pixels.
DATA_ARGS = ["--classes", "3", "--subjects", "4", "--reps", "2",
             "--frames", "6", "--height", "8", "--width", "9", "--seed", "11"]
PROTO_ARGS = ["--protocol", "custom", "--train-subjects", "s00,s01",
              "--val-subjects", "s02", "--test-subjects", "s03"]
ARCH_ARGS = ["--encoder-sizes", "16,8", "--bottleneck", "4", "--hidden", "4"]
FIT_ARGS = ["--max-epochs", "2", "--batch-utts", "4", "--patience", "5"]


def tree_bytes(root):
    out = {}
    for path in sorted(Path(root).rglob("*")):
        if path.is_file():
            out[str(path.relative_to(root))] = path.read_bytes()
    return out


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_data")
    assert main(["synth", *DATA_ARGS, "--out", str(root)]) == 0
    return root


@pytest.fixture(scope="module")
def raw_ckpt(dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_raw") / "raw.ckpt"
    rc = main(["train-stream", "--data", str(dataset), *PROTO_ARGS, *ARCH_ARGS,
               *FIT_ARGS, "--stream", "raw", "--seed", "5", "--out", str(out)])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def diff_ckpt(dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_diff") / "diff.ckpt"
    rc = main(["train-stream", "--data", str(dataset), *PROTO_ARGS, *ARCH_ARGS,
               *FIT_ARGS, "--stream", "diff", "--seed", "5", "--out", str(out)])
    assert rc == 0
    return out


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

def test_synth_writes_dataset_and_summary(dataset, capsys):
    files = sorted(p.name for p in dataset.iterdir())
    assert "manifest.jsonl" in files
    assert sum(name.endswith(".vsru") for name in files) == 24
    manifest = load_manifest(dataset)
    assert len(manifest.records) == 24
    assert (manifest.height, manifest.width) == (8, 9)


def test_synth_prints_a_summary_line(tmp_path, capsys):
    assert main(["synth", *DATA_ARGS, "--out", str(tmp_path / "d")]) == 0
    out = capsys.readouterr().out
    assert "wrote 24 utterances (3 classes, 4 subjects, 8x9)" in out


def test_synth_same_seed_same_bytes(dataset, tmp_path):
    again = tmp_path / "again"
    assert main(["synth", *DATA_ARGS, "--out", str(again)]) == 0
    assert tree_bytes(again) == tree_bytes(dataset)


def test_synth_roi_preset_sets_dimensions(tmp_path, capsys):
    rc = main(["synth", "--classes", "2", "--subjects", "2", "--reps", "1",
               "--frames", "3", "--roi", "avletters", "--out", str(tmp_path / "d")])
    assert rc == 0
    manifest = load_manifest(tmp_path / "d")
    assert (manifest.height, manifest.width) == ROI_DIMS["avletters"]


def test_synth_unknown_roi_preset(tmp_path, capsys):
    rc = main(["synth", "--roi", "grid", "--out", str(tmp_path / "d")])
    assert rc == 2
    assert "unknown ROI preset" in capsys.readouterr().err


def test_synth_missing_out_flag(capsys):
    assert main(["synth"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "synth requires --out" in err


def test_unknown_flag_is_an_argparse_error():
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--bogus", "1"])
    assert exc.value.code == 2


def test_unknown_command_is_an_argparse_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_missing_command_is_an_argparse_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# --config files
# ---------------------------------------------------------------------------

def test_config_file_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "synth.json"
    cfg.write_text(json.dumps({"classes": 2, "subjects": 2, "reps": 1,
                               "frames": 4, "height": 5, "width": 6, "seed": 3}))
    rc = main(["synth", "--config", str(cfg), "--out", str(tmp_path / "d")])
    assert rc == 0
    assert "wrote 4 utterances (2 classes, 2 subjects, 5x6)" in capsys.readouterr().out


def test_flags_override_the_config_file(tmp_path, capsys):
    cfg = tmp_path / "synth.json"
    cfg.write_text(json.dumps({"classes": 2, "subjects": 2, "reps": 1,
                               "frames": 4, "height": 5, "width": 6}))
    rc = main(["synth", "--config", str(cfg), "--classes", "3",
               "--out", str(tmp_path / "d")])
    assert rc == 0
    assert "wrote 6 utterances (3 classes" in capsys.readouterr().out


def test_config_file_with_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "synth.json"
    cfg.write_text(json.dumps({"clases": 2}))
    rc = main(["synth", "--config", str(cfg), "--out", str(tmp_path / "d")])
    assert rc == 2
    assert "unknown keys" in capsys.readouterr().err


@pytest.mark.parametrize("doc, named", [
    ("5", "does not hold a JSON object"),
    ("null", "does not hold a JSON object"),
    ('{"seed": [1]}', "seed must be an integer, not [1]"),
    ('{"lr": null}', "lr must be a number, not null"),
    ('{"protocol": 5}', "protocol must be a string, not 5"),
    ('{"hidden": 2.5}', "hidden must be an integer, not 2.5"),
    pytest.param("[" * 100_000 + "]" * 100_000, "nests too deeply", id="deep"),
])
def test_malformed_config_file_exits_2(tmp_path, capsys, doc, named):
    cfg = tmp_path / "f.json"
    cfg.write_text(doc)
    rc = main(["train-stream", "--config", str(cfg), "--out", str(tmp_path / "m.ckpt")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"error: config file {cfg}")
    assert named in err
    assert "Traceback" not in err


COMMAND_DEFAULTS = {
    "synth": cli.SYNTH_DEFAULTS, "pretrain": cli.PRETRAIN_DEFAULTS,
    "train-stream": cli.TRAIN_DEFAULTS["stream"], "train-fusion": cli.TRAIN_DEFAULTS["fusion"],
    "evaluate": cli.EVALUATE_DEFAULTS, "repeat": cli.REPEAT_DEFAULTS,
    "gradcheck": cli.GRADCHECK_DEFAULTS,
}
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                 max_size=3),
    max_leaves=6)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(command=st.sampled_from(sorted(COMMAND_DEFAULTS)), data=st.data())
def test_resolve_config_returns_or_refuses_any_json_document(command, data):
    defaults = COMMAND_DEFAULTS[command]
    doc = data.draw(JSON_VALUES | st.dictionaries(st.sampled_from(sorted(defaults)),
                                                  JSON_VALUES, max_size=4))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "f.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        args = build_parser().parse_args([command, "--config", path])
        try:
            cfg = resolve_config(args, defaults)
        except ValueError as exc:
            assert str(exc).startswith(("config file ", "config file has unknown keys"))
            return
    assert isinstance(doc, dict) and set(cfg) == set(defaults)
    for key, value in doc.items():
        assert json.dumps(cfg[key]) == json.dumps(value)  # NaN-safe equality
        assert value is not None or defaults[key] is None


# ---------------------------------------------------------------------------
# pretrain
# ---------------------------------------------------------------------------

def test_pretrain_writes_encoder_and_history(dataset, tmp_path, capsys):
    out = tmp_path / "enc.ckpt"
    rc = main(["pretrain", "--data", str(dataset), *PROTO_ARGS,
               "--encoder-sizes", "16,8", "--bottleneck", "4",
               "--epochs", "1", "--batch", "16", "--out", str(out)])
    assert rc == 0
    assert "pretrained encoder [16x72, 8x16, 4x8]" in capsys.readouterr().out
    stack = load_checkpoint(out)
    assert isinstance(stack, EncoderStack)
    assert [l.w.shape for l in stack.layers] == [(16, 72), (8, 16), (4, 8)]
    history = json.loads((tmp_path / "enc.ckpt.history.json").read_text())
    assert [len(errs) for errs in history["reconstruction_errors"]] == [1, 1, 1]


def test_pretrain_zero_epochs_keeps_the_seeded_init(dataset, tmp_path):
    out = tmp_path / "enc.ckpt"
    rc = main(["pretrain", "--data", str(dataset), *PROTO_ARGS,
               "--encoder-sizes", "16,8", "--bottleneck", "4",
               "--epochs", "0", "--history", str(tmp_path / "h.json"),
               "--out", str(out)])
    assert rc == 0
    history = json.loads((tmp_path / "h.json").read_text())
    assert history["reconstruction_errors"] == [[], [], []]
    assert not (tmp_path / "enc.ckpt.history.json").exists()


# ---------------------------------------------------------------------------
# train-stream
# ---------------------------------------------------------------------------

def test_train_stream_writes_model_history_and_val_report(raw_ckpt, dataset):
    model = load_checkpoint(raw_ckpt)
    assert isinstance(model, SingleStreamModel)
    assert model.net.stream_kind == "raw"
    assert model.meta["classes"] == "3"

    history = json.loads((raw_ckpt.parent / "raw.ckpt.history.json").read_text())
    assert history["stage"] == "stream"
    assert len(history["epochs"]) == 2
    assert history["config"]["data"] == str(dataset)

    report = json.loads((raw_ckpt.parent / "raw.ckpt.val.json").read_text())
    assert report["split"] == "val"
    assert 0.0 <= report["accuracy"] <= 1.0


def test_train_stream_summary_line(dataset, tmp_path, capsys):
    out = tmp_path / "m.ckpt"
    rc = main(["train-stream", "--data", str(dataset), *PROTO_ARGS, *ARCH_ARGS,
               *FIT_ARGS, "--seed", "5", "--out", str(out)])
    assert rc == 0
    line = capsys.readouterr().out.strip().splitlines()[-1]
    assert line.startswith("trained raw stream: best epoch")
    assert "val accuracy" in line


def test_train_stream_reruns_are_byte_identical(dataset, tmp_path, monkeypatch):
    """Same seed, same flags, different directory: identical artifacts."""
    runs = []
    for name in ("one", "two"):
        workdir = tmp_path / name
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        rc = main(["train-stream", "--data", str(dataset), *PROTO_ARGS,
                   *ARCH_ARGS, *FIT_ARGS, "--seed", "9", "--out", "m.ckpt"])
        assert rc == 0
        runs.append(workdir)
    first, second = runs
    assert (first / "m.ckpt").read_bytes() == (second / "m.ckpt").read_bytes()

    # Histories agree on everything except how long the epochs took.
    hists = []
    for d in runs:
        hist = json.loads((d / "m.ckpt.history.json").read_text())
        for record in hist["epochs"]:
            record.pop("wall_time")
        hists.append(hist)
    assert hists[0] == hists[1]


def test_train_stream_accepts_a_pretrained_encoder(dataset, tmp_path):
    enc = tmp_path / "enc.ckpt"
    rc = main(["pretrain", "--data", str(dataset), *PROTO_ARGS,
               "--encoder-sizes", "16,8", "--bottleneck", "4",
               "--epochs", "1", "--out", str(enc)])
    assert rc == 0
    out = tmp_path / "m.ckpt"
    rc = main(["train-stream", "--data", str(dataset), *PROTO_ARGS, *ARCH_ARGS,
               *FIT_ARGS, "--encoder", str(enc), "--seed", "5",
               "--history", str(tmp_path / "h.json"), "--out", str(out)])
    assert rc == 0
    assert isinstance(load_checkpoint(out), SingleStreamModel)
    assert (tmp_path / "h.json").exists()


def test_train_stream_rejects_a_model_as_encoder(dataset, raw_ckpt, tmp_path, capsys):
    rc = main(["train-stream", "--data", str(dataset), *PROTO_ARGS, *ARCH_ARGS,
               *FIT_ARGS, "--encoder", str(raw_ckpt), "--out",
               str(tmp_path / "m.ckpt")])
    assert rc == 2
    assert "not an encoder checkpoint" in capsys.readouterr().err


def test_train_stream_missing_flags(capsys):
    assert main(["train-stream", "--stream", "raw"]) == 2
    assert "train-stream requires --data, --protocol, --out" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# train-fusion
# ---------------------------------------------------------------------------

def test_train_fusion_end_to_end(dataset, raw_ckpt, diff_ckpt, tmp_path, capsys):
    out = tmp_path / "fused.ckpt"
    rc = main(["train-fusion", "--data", str(dataset), *PROTO_ARGS, *FIT_ARGS,
               "--raw", str(raw_ckpt), "--diff", str(diff_ckpt),
               "--seed", "5", "--out", str(out)])
    assert rc == 0
    assert capsys.readouterr().out.startswith("trained fusion model")
    assert isinstance(load_checkpoint(out), FusionModel)

    rc = main(["evaluate", "--model", str(out), "--data", str(dataset),
               *PROTO_ARGS, "--split", "test", "--format", "json"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["split"] == "test"
    assert 0.0 <= report["accuracy"] <= 1.0


def test_train_fusion_rejects_wrong_stream_kind(dataset, diff_ckpt, tmp_path, capsys):
    rc = main(["train-fusion", "--data", str(dataset), *PROTO_ARGS, *FIT_ARGS,
               "--raw", str(diff_ckpt), "--diff", str(diff_ckpt),
               "--out", str(tmp_path / "f.ckpt")])
    assert rc == 2
    assert "--raw checkpoint is not a trained raw stream" in capsys.readouterr().err


@pytest.mark.parametrize("hidden", ["0", "-2"])
def test_train_fusion_rejects_a_hidden_width_below_one(dataset, raw_ckpt, diff_ckpt,
                                                       tmp_path, capsys, hidden):
    out = tmp_path / "f.ckpt"
    rc = main(["train-fusion", "--data", str(dataset), *PROTO_ARGS, *FIT_ARGS,
               "--raw", str(raw_ckpt), "--diff", str(diff_ckpt), "--hidden", hidden,
               "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"fan_in and fan_out must be >= 1, got 16, {hidden}" in err
    assert "Traceback" not in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def test_evaluate_text_report_sections(dataset, raw_ckpt, capsys):
    base = ["evaluate", "--model", str(raw_ckpt), "--data", str(dataset),
            *PROTO_ARGS, "--split", "val"]
    assert main(base) == 0
    plain = capsys.readouterr().out
    assert "split: val" in plain
    assert "accuracy:" in plain
    assert "per-subject:" not in plain
    assert "confusion" not in plain

    assert main([*base, "--per-subject", "--confusion"]) == 0
    full = capsys.readouterr().out
    assert "per-subject:" in full
    assert "confusion (rows true, columns predicted):" in full


def test_evaluate_csv_and_out_file(dataset, raw_ckpt, tmp_path, capsys):
    out = tmp_path / "report.csv"
    rc = main(["evaluate", "--model", str(raw_ckpt), "--data", str(dataset),
               *PROTO_ARGS, "--split", "test", "--format", "csv",
               "--out", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert out.read_text() == printed
    assert printed.startswith("subject,n_utterances,accuracy")


def test_evaluate_rejects_encoder_checkpoints(dataset, tmp_path, capsys):
    enc = tmp_path / "enc.ckpt"
    assert main(["pretrain", "--data", str(dataset), *PROTO_ARGS,
                 "--encoder-sizes", "16,8", "--bottleneck", "4",
                 "--epochs", "0", "--out", str(enc)]) == 0
    capsys.readouterr()
    rc = main(["evaluate", "--model", str(enc), "--data", str(dataset),
               *PROTO_ARGS, "--split", "test"])
    assert rc == 2
    assert "encoder-only checkpoint cannot be evaluated" in capsys.readouterr().err


def test_evaluate_rejects_class_count_mismatch(raw_ckpt, tmp_path, capsys):
    other = tmp_path / "two_class"
    assert main(["synth", "--classes", "2", "--subjects", "2", "--reps", "1",
                 "--frames", "4", "--height", "8", "--width", "9",
                 "--out", str(other)]) == 0
    capsys.readouterr()
    rc = main(["evaluate", "--model", str(raw_ckpt), "--data", str(other),
               "--protocol", "custom", "--train-subjects", "s00",
               "--test-subjects", "s01"])
    assert rc == 2
    assert "trained for 3 classes but the dataset has 2" in capsys.readouterr().err


def test_evaluate_empty_split_is_an_error(dataset, raw_ckpt, capsys):
    rc = main(["evaluate", "--model", str(raw_ckpt), "--data", str(dataset),
               "--protocol", "custom", "--train-subjects", "s00,s01",
               "--test-subjects", "s03", "--split", "val"])
    assert rc == 2
    assert "defines no val utterances" in capsys.readouterr().err


@pytest.mark.parametrize("header, named", [
    ({"height": 8, "width": 9}, "missing key 'classes'"),
    ([3, 8, 9], "expected a JSON object, got list"),
])
def test_evaluate_malformed_manifest_header_exits_2(dataset, raw_ckpt, tmp_path, capsys,
                                                    header, named):
    lines = (Path(dataset) / "manifest.jsonl").read_text().splitlines()
    (tmp_path / "manifest.jsonl").write_text("\n".join([json.dumps(header), *lines[1:]]) + "\n")
    rc = main(["evaluate", "--model", str(raw_ckpt), "--data", str(tmp_path), *PROTO_ARGS])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"line 1: {named}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("line, change, named", [
    (0, {"classes": 5}, "line 1: 'classes' must be a list of strings, got 5"),
    (2, {"label": None}, "line 3: 'label' must be an integer, got null"),
])
def test_evaluate_malformed_manifest_value_exits_2(dataset, raw_ckpt, tmp_path, capsys,
                                                   line, change, named):
    lines = (Path(dataset) / "manifest.jsonl").read_text().splitlines()
    lines[line] = json.dumps({**json.loads(lines[line]), **change})
    (tmp_path / "manifest.jsonl").write_text("\n".join(lines) + "\n")
    rc = main(["evaluate", "--model", str(raw_ckpt), "--data", str(tmp_path), *PROTO_ARGS])
    err = capsys.readouterr().err
    assert rc == 2
    assert named in err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# repeat
# ---------------------------------------------------------------------------

def test_repeat_aggregates_and_matches_single_runs(dataset, tmp_path, capsys):
    agg_path = tmp_path / "agg.json"
    rc = main(["repeat", "--pipeline", "stream", "--runs", "2", "--seed", "21",
               "--data", str(dataset), *PROTO_ARGS, *ARCH_ARGS, *FIT_ARGS,
               "--out", str(agg_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "runs: 2" in out
    assert "Mean (Std) | Max" in out

    payload = json.loads(agg_path.read_text())
    agg = payload["aggregate"]
    assert agg["seeds"] == [21, 22]
    assert len(agg["accuracies"]) == 2
    assert payload["failures"] == []

    # The first repeat run must reproduce a plain train-stream + evaluate
    # with the same seed, down to the exact accuracy.
    ckpt = tmp_path / "single.ckpt"
    assert main(["train-stream", "--data", str(dataset), *PROTO_ARGS,
                 *ARCH_ARGS, *FIT_ARGS, "--seed", "21", "--out", str(ckpt)]) == 0
    capsys.readouterr()
    assert main(["evaluate", "--model", str(ckpt), "--data", str(dataset),
                 *PROTO_ARGS, "--split", "test", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["accuracy"] == agg["accuracies"][0]


def test_repeat_rejects_zero_runs(dataset, capsys):
    rc = main(["repeat", "--runs", "0", "--data", str(dataset), *PROTO_ARGS])
    assert rc == 2
    assert "--runs must be >= 1" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# gradcheck
# ---------------------------------------------------------------------------

def test_gradcheck_list_prints_check_names(capsys):
    assert main(["gradcheck", "--list"]) == 0
    assert capsys.readouterr().out.split() == list(CHECKS)


def test_gradcheck_subset_passes(capsys):
    rc = main(["gradcheck", "--checks", "fc,delta", "--instances", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 2
    assert "FAIL" not in out


@pytest.mark.parametrize("flags, named", [
    (["--checks", ""], "no gradient checks selected"),
    (["--checks", ","], "no gradient checks selected"),
    (["--instances", "0"], "gradient checks need instances >= 1, got 0"),
    (["--checks", "fc", "--instances", "-1"], "gradient checks need instances >= 1, got -1"),
])
def test_gradcheck_refuses_an_empty_run(capsys, flags, named):
    rc = main(["gradcheck", *flags])
    captured = capsys.readouterr()
    assert rc == 2
    assert named in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_gradcheck_flags_a_broken_gradient(monkeypatch, capsys):
    true_backward = vsr.gradcheck.fc_backward

    def skewed(layer, cache, d_y):
        d_x, d_w, d_b = true_backward(layer, cache, d_y)
        return d_x, d_w * 1.001, d_b

    monkeypatch.setattr(vsr.gradcheck, "fc_backward", skewed)
    rc = main(["gradcheck", "--checks", "fc", "--instances", "1"])
    assert rc == 1
    assert "FAIL" in capsys.readouterr().out


def test_gradcheck_flags_a_broken_recurrent_gradient(monkeypatch, capsys):
    true_backward = vsr.layers.lstm_backward

    def skewed(p, cache, d_h):
        d_seq, grads = true_backward(p, cache, d_h)
        return d_seq, {**grads, "wh": grads["wh"] * 1.001}

    # the lstm checks call it directly, the blstm and the models through layers
    monkeypatch.setattr(vsr.gradcheck, "lstm_backward", skewed)
    monkeypatch.setattr(vsr.layers, "lstm_backward", skewed)
    checks = ["lstm", "lstm_batch", "blstm", "stream_batch", "fusion_batch"]
    rc = main(["gradcheck", "--checks", ",".join(checks), "--instances", "1"])
    assert rc == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines if line.endswith("FAIL")] == checks


def test_evaluate_bad_delta_window_exits_2(raw_ckpt, dataset, tmp_path, capsys):
    theta = struct.pack("<I", 5) + b"theta" + struct.pack("<I", 1)
    blob = Path(raw_ckpt).read_bytes()
    assert blob.count(theta + b"2") == 1
    bad = tmp_path / "bad_theta.ckpt"
    bad.write_bytes(blob.replace(theta + b"2", theta + b"x"))
    rc = main(["evaluate", "--model", str(bad), "--data", str(dataset), *PROTO_ARGS])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"checkpoint {bad}: metadata theta is 'x'" in err
    assert "Traceback" not in err
