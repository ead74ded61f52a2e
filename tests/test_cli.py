"""End-to-end tests that drive vsr.cli.main the way a shell user would."""

import dataclasses
import hashlib
import json
import os
import shutil
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vsr.cli
import vsr.evaluation
import vsr.gradcheck
import vsr.layers
from vsr.cli import build_parser, main, resolve_config
from vsr.data import MANIFEST_NAME, ROI_DIMS, load_manifest, load_utterances
from vsr.evaluation import evaluate, render_report
from vsr.gradcheck import CHECKS
from vsr.layers import MAX_THETA
from vsr.model import (EncoderStack, FusionModel, SingleStreamModel, load_checkpoint,
                       named_params)
from vsr.training import TrainConfig, TrainingDiverged

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
    ('{"seed": 1,', ": not JSON (Expecting property name enclosed in double quotes"),
    (b"\xff", ": not JSON ('utf-8' codec can't decode byte 0xff in position 0"),
])
def test_malformed_config_file_exits_2(tmp_path, capsys, doc, named):
    cfg = tmp_path / "f.json"
    cfg.write_bytes(doc if isinstance(doc, bytes) else doc.encode())
    rc = main(["train-stream", "--config", str(cfg), "--out", str(tmp_path / "m.ckpt")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"error: config file {cfg}")
    assert named in err
    assert "Traceback" not in err


@pytest.mark.parametrize("node", ["fifo", "device"])
@pytest.mark.parametrize("target", ["manifest", "config"])
def test_a_non_regular_manifest_or_config_file_exits_2(tmp_path, node, target):
    """Neither waits on a FIFO nor reads a device. The CLI runs in a child
    process, so an open that blocks fails the test at the timeout instead
    of hanging the suite."""
    data = tmp_path / "data"
    data.mkdir()
    path = tmp_path / "f.json" if target == "config" else data / MANIFEST_NAME
    if node == "fifo":
        os.mkfifo(path)
    else:
        path.symlink_to(os.devnull)
    argv = ["evaluate", "--model", str(tmp_path / "m.ckpt"), "--data", str(data),
            "--protocol", "oulu", *(["--config", str(path)] if target == "config" else [])]
    src = str(Path(vsr.cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-m", "vsr.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    named = f"config file {path}" if target == "config" else str(path)
    assert (proc.returncode, proc.stderr) == (2, f"error: {named}: not a regular file\n")


@pytest.mark.parametrize("command, key, value, choices", [
    ("evaluate", "split", "dev", "train/val/test"),
    ("evaluate", "format", "xml", "text/json/csv"),
    ("train-stream", "stream", "audio", "raw/diff"),
    ("train-stream", "precision", "f16", "f32/f64")])
def test_config_value_outside_its_flags_choices_exits_2(tmp_path, capsys, command, key, value,
                                                        choices):
    """A config file is held to each flag's choices, as the flag is, before any data is read."""
    cfg = tmp_path / "f.json"
    cfg.write_text(json.dumps({key: value}))
    rc = main([command, "--config", str(cfg), "--data", str(tmp_path / "absent")])
    assert rc == 2
    assert capsys.readouterr().err == (f"error: config file {cfg}: {key} must be one of "
                                       f"{choices}, not \"{value}\"\n")


COMMAND_DEFAULTS = {command: build_parser().parse_args([command]).defaults
                    for command in ("synth", "pretrain", "train-stream", "train-fusion",
                                    "evaluate", "gradcheck")}
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
            cfg = resolve_config(args)
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


def test_train_stream_rejects_an_encoder_of_the_other_stream(dataset, tmp_path, capsys):
    enc = tmp_path / "enc.ckpt"
    assert main(["pretrain", "--data", str(dataset), *PROTO_ARGS, "--stream", "diff",
                 "--encoder-sizes", "16,8", "--bottleneck", "4",
                 "--epochs", "1", "--out", str(enc)]) == 0
    out = tmp_path / "m.ckpt"
    rc = main(["train-stream", "--data", str(dataset), *PROTO_ARGS, *ARCH_ARGS,
               *FIT_ARGS, "--stream", "raw", "--encoder", str(enc), "--out", str(out)])
    assert rc == 2
    assert ("--encoder checkpoint was pretrained on the diff stream, not the raw stream"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("command", ["pretrain", "train-stream"])
@pytest.mark.parametrize("in_file", [False, True], ids=["flag", "config"])
def test_malformed_encoder_sizes_names_the_setting(dataset, tmp_path, capsys, command,
                                                   in_file):
    argv = [command, "--data", str(dataset), *PROTO_ARGS, "--out", str(tmp_path / "m.ckpt")]
    if in_file:
        cfg = tmp_path / "f.json"
        cfg.write_text(json.dumps({"encoder_sizes": "16,abc"}))
        argv += ["--config", str(cfg)]
    else:
        argv += ["--encoder-sizes", "16,abc"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "--encoder-sizes must be comma-separated integers, not '16,abc'" in err
    assert "Traceback" not in err


def test_train_stream_refuses_a_delta_window_past_the_bound(dataset, tmp_path, capsys):
    out = tmp_path / "m.ckpt"
    rc = main(["train-stream", "--data", str(dataset), *PROTO_ARGS, *ARCH_ARGS, *FIT_ARGS,
               "--theta", str(MAX_THETA + 1), "--out", str(out)])
    assert rc == 2
    assert (f"error: delta window must be from 1 to {MAX_THETA}, got {MAX_THETA + 1}"
            in capsys.readouterr().err)
    assert not out.exists()


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


def test_train_fusion_refuses_streams_of_another_class_count(raw_ckpt, diff_ckpt, tmp_path,
                                                            capsys):
    other = tmp_path / "two_class"
    assert main(["synth", "--classes", "2", "--subjects", "3", "--reps", "1",
                 "--frames", "4", "--height", "8", "--width", "9", "--out", str(other)]) == 0
    out = tmp_path / "f.ckpt"
    rc = main(["train-fusion", "--data", str(other), "--protocol", "custom",
               "--train-subjects", "s00", "--val-subjects", "s01", "--test-subjects", "s02",
               *FIT_ARGS, "--raw", str(raw_ckpt), "--diff", str(diff_ckpt), "--out", str(out)])
    assert rc == 2
    assert "--raw model has 3 classes, dataset has 2" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# the validation report a train command writes
# ---------------------------------------------------------------------------

def _train_argv(stage, dataset, raw_ckpt, diff_ckpt, out, *flags):
    inputs = ARCH_ARGS if stage == "stream" else ["--raw", str(raw_ckpt),
                                                  "--diff", str(diff_ckpt), "--hidden", "4"]
    return [f"train-{stage}", "--data", str(dataset), *PROTO_ARGS, *inputs,
            "--batch-utts", "4", "--patience", "5", "--seed", "5", *flags, "--out", str(out)]


@pytest.mark.parametrize("stage", ["stream", "fusion"])
def test_a_k_epoch_fit_scores_the_validation_split_k_times(dataset, raw_ckpt, diff_ckpt,
                                                           tmp_path, monkeypatch, stage):
    """The best epoch's own pass gives .val.json: no pass after the fit."""
    chunks = []
    real = vsr.evaluation.model_logits
    monkeypatch.setattr(vsr.evaluation, "model_logits",
                        lambda model, chunk: chunks.append(len(chunk)) or real(model, chunk))
    out = tmp_path / "m.ckpt"
    assert main(_train_argv(stage, dataset, raw_ckpt, diff_ckpt, out,
                            "--max-epochs", "3")) == 0
    assert chunks == [6, 6, 6]  # subject s02's 6 utterances, one chunk a pass
    history = json.loads((tmp_path / "m.ckpt.history.json").read_text())
    report = json.loads((tmp_path / "m.ckpt.val.json").read_text())
    assert report["accuracy"] == history["best_val_accuracy"]


@pytest.mark.parametrize("stage, precision, epochs", [
    ("stream", "f32", "2"), ("stream", "f64", "2"), ("fusion", "f32", "2"),
    ("fusion", "f64", "2"), ("stream", "f32", "0"), ("fusion", "f64", "0")])
def test_val_report_is_evaluate_of_the_returned_model(dataset, raw_ckpt, diff_ckpt, tmp_path,
                                                      monkeypatch, stage, precision, epochs):
    """.val.json holds, byte for byte, what evaluate reports for the in-memory
    model the fit returned, on the validation split; with no epoch, the
    initial weights'."""
    runs = []
    real = vsr.cli._run_training
    monkeypatch.setattr(vsr.cli, "_run_training",
                        lambda *args: runs.append(real(*args)) or runs[-1])
    out = tmp_path / "m.ckpt"
    assert main(_train_argv(stage, dataset, raw_ckpt, diff_ckpt, out, "--precision",
                            precision, "--max-epochs", epochs)) == 0
    [(model, history, split, manifest)] = runs
    assert (history.best_epoch == 0) == (epochs == "0")
    report = evaluate(model, load_utterances(dataset, manifest, split.val),
                      len(manifest.classes), split="val", checkpoint="m.ckpt")
    assert (tmp_path / "m.ckpt.val.json").read_text() == render_report(report, "json") + "\n"


def test_train_stream_names_a_truncated_container(dataset, tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(dataset, data)
    record = next(r for r in load_manifest(data).records if r.subject == "s00")
    victim = f"{data}/{record.path}"
    with open(victim, "r+b") as fh:
        fh.truncate(40)
    rc = main(["train-stream", "--data", str(data), *PROTO_ARGS, *ARCH_ARGS, *FIT_ARGS,
               "--out", str(tmp_path / "m.ckpt")])
    assert rc == 2
    assert capsys.readouterr().err == (f"error: utterance {victim}: payload mismatch: header "
                                       f"implies {18 + 6 * 8 * 9} bytes, file has 40\n")


# a value unlike either fit's default for every TrainConfig field
FIT_VALUES = {"lr": 0.002, "batch_utts": 3, "patience": 7, "clip_threshold": 2.5,
              "max_epochs": 1, "seed": 9, "track_train_accuracy": True,
              "freeze_streams": True}


def test_every_fit_setting_has_a_flag_that_reaches_the_history(
        dataset, raw_ckpt, diff_ckpt, tmp_path, monkeypatch):
    assert sorted(FIT_VALUES) == sorted(f.name for f in dataclasses.fields(TrainConfig))
    for name, value in FIT_VALUES.items():
        for fit in (TrainConfig.for_stream(), TrainConfig.for_fusion()):
            assert getattr(fit, name) != value, name
    # the config the library records, before the CLI adds its own settings
    recorded, dtypes = {}, {}
    for stage in ("stream", "fusion"):
        fit = getattr(vsr.cli, f"train_{stage}")

        def recording(*args, fit=fit, stage=stage, **kwargs):
            model, history = fit(*args, **kwargs)
            recorded[stage] = dict(history.config)
            dtypes[stage] = {str(p.dtype) for p in named_params(model).values()}
            return model, history
        monkeypatch.setattr(vsr.cli, f"train_{stage}", recording)

    inputs = {"stream": ARCH_ARGS, "fusion": ["--raw", str(raw_ckpt),
                                              "--diff", str(diff_ckpt)]}
    covered = set()
    for stage, extra in inputs.items():
        flags = build_parser().parse_args([f"train-{stage}"]).flags
        given = {k: v for k, v in FIT_VALUES.items() if k in flags}
        argv = [f"train-{stage}", "--data", str(dataset), *PROTO_ARGS, *extra,
                "--precision", "f64", "--out", str(tmp_path / f"{stage}.ckpt")]
        for name, value in given.items():
            flag = flags[name].option_strings[0]
            argv += [flag] if value is True else [flag, str(value)]
        assert main(argv) == 0
        saved = json.loads((tmp_path / f"{stage}.ckpt.history.json").read_text())
        for name, value in given.items():
            assert recorded[stage][name] == value, (stage, name)
            assert saved["config"][name] == value, (stage, name)
        # --precision is the CLI's: it builds the model the fit trains in float64
        assert saved["config"]["precision"] == "f64" and dtypes[stage] == {"float64"}
        covered |= set(given)
    assert covered == set(FIT_VALUES)


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


# SHA-256 of what evaluate prints for each format and section flag, recorded
# before json and csv stopped reading --per-subject and --confusion (both
# always carry every section)
EVALUATE_STDOUT = {
    (): "3f54a692c35fe6f9961000aaab2bffd05d07c71499bdea15e6cbcd00cfe1d999",
    ("--per-subject",): "d976c59aab87ec60db34e1b8f5eb1cc9e64f3bd66c2ab0a76f831f0b5bf7de71",
    ("--confusion",): "13db5499af4c7b76b4d027d7c41e218cfedc621fb9de20042b642dc5fe971f6f",
    ("--per-subject", "--confusion"):
        "e8205f1e350ade14e6fd274b48be27467af823a76c9a921ed6cfa0769730192a",
    ("--format", "json"): "65118c9ea88b7ed4e22fd71807c78cd72696f2b3a8fb22f12d3c4fe88cb360e9",
    ("--format", "json", "--per-subject", "--confusion"):
        "65118c9ea88b7ed4e22fd71807c78cd72696f2b3a8fb22f12d3c4fe88cb360e9",
    ("--format", "csv"): "2349a77f5788e50816700e7a7bf662b824554904eae5b8e321596d084662c9b3",
}


@pytest.mark.parametrize("flags", list(EVALUATE_STDOUT),
                         ids=lambda flags: "+".join(f.lstrip("-") for f in flags) or "plain")
def test_evaluate_prints_its_pinned_report(dataset, raw_ckpt, capsys, flags):
    assert main(["evaluate", "--model", str(raw_ckpt), "--data", str(dataset),
                 *PROTO_ARGS, "--split", "val", *flags]) == 0
    printed = capsys.readouterr().out
    assert hashlib.sha256(printed.encode()).hexdigest() == EVALUATE_STDOUT[flags]


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
    assert "model has 3 classes, dataset has 2" in capsys.readouterr().err


def test_evaluate_takes_the_class_count_from_the_model(dataset, raw_ckpt, tmp_path, capsys):
    # the classes metadata is optional: the head's rows give the count
    entry = struct.pack("<I", 7) + b"classes" + struct.pack("<I", 1) + b"3"
    blob = Path(raw_ckpt).read_bytes()
    assert blob.count(entry) == 1
    pairs = struct.unpack_from("<I", blob, 6)[0]
    bare = tmp_path / "raw.ckpt"
    bare.write_bytes(blob[:6] + struct.pack("<I", pairs - 1) + blob[10:].replace(entry, b""))
    reports = []
    for ckpt in (raw_ckpt, bare):
        assert main(["evaluate", "--model", str(ckpt), "--data", str(dataset),
                     *PROTO_ARGS, "--format", "json"]) == 0
        reports.append(capsys.readouterr().out)
    assert "classes" not in load_checkpoint(bare).meta
    assert reports[0] == reports[1]


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

@pytest.mark.parametrize("stage", ["stream", "fusion"])
def test_repeat_aggregates_and_matches_single_runs(dataset, raw_ckpt, diff_ckpt, tmp_path,
                                                   capsys, stage):
    model = {"stream": ARCH_ARGS, "fusion": ["--raw", str(raw_ckpt), "--diff", str(diff_ckpt)]}
    # at seed 23 a fusion BLSTM of the stream default width (250) scores
    # otherwise than one of the raw stream's width (4), so the match below
    # also checks which width repeat gives it
    flags = ["--data", str(dataset), *PROTO_ARGS, *model[stage], *FIT_ARGS, "--seed", "23"]
    agg_path = tmp_path / "agg.json"
    rc = main(["repeat", "--runs", "2", "--out", str(agg_path), f"train-{stage}", *flags])
    assert rc == 0
    out = capsys.readouterr().out
    assert "runs: 2" in out
    assert "Mean (Std) | Max" in out

    payload = json.loads(agg_path.read_text())
    agg = payload["aggregate"]
    assert agg["seeds"] == [23, 24]
    assert len(agg["accuracies"]) == 2
    assert payload["failures"] == []
    config = payload["config"]
    assert (config["command"], config["runs"], config["seed"]) == (f"train-{stage}", 2, 23)
    assert not {"out", "history", "track_train_accuracy"} & set(config)

    # The first repeat run must reproduce a plain train command + evaluate
    # with the same flags, down to the exact accuracy; for fusion that takes
    # the fusion BLSTM's width from the raw stream, as train-fusion does.
    ckpt = tmp_path / "single.ckpt"
    assert main([f"train-{stage}", *flags, "--out", str(ckpt)]) == 0
    capsys.readouterr()
    assert main(["evaluate", "--model", str(ckpt), "--data", str(dataset),
                 *PROTO_ARGS, "--split", "test", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["accuracy"] == agg["accuracies"][0]


@pytest.mark.parametrize("stage, flags, named", [
    ("stream", ["--encoder-sizes", "16,abc"],
     "--encoder-sizes must be comma-separated integers, not '16,abc'"),
    ("stream", ["--theta", str(MAX_THETA + 1)],
     f"delta window must be from 1 to {MAX_THETA}, got {MAX_THETA + 1}"),
    ("fusion", ["--raw", "{diff}", "--diff", "{diff}"],
     "--raw checkpoint is not a trained raw stream"),
])
def test_repeat_reports_a_setting_every_run_shares_once(dataset, diff_ckpt, capsys, stage,
                                                        flags, named):
    flags = [f.format(diff=diff_ckpt) for f in flags]
    rc = main(["repeat", "--runs", "3", f"train-{stage}", "--data", str(dataset),
               *PROTO_ARGS, *flags])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == f"error: {named}\n"


@pytest.mark.parametrize("data", ["given", "missing"])
def test_repeat_refuses_a_bad_fit_setting_once_before_reading_data(dataset, tmp_path, capsys,
                                                                   data):
    path = dataset if data == "given" else tmp_path / "nonexistent"
    rc = main(["repeat", "--runs", "3", "train-stream", "--data", str(path), *PROTO_ARGS,
               "--lr", "nan"])
    err = capsys.readouterr().err.splitlines()
    assert rc == 2
    assert len(err) == 1 and err[0].startswith("error: bad training config TrainConfig(lr=nan")


@pytest.mark.parametrize("failing", [{24}, {23, 24}])
def test_repeat_aggregates_the_runs_that_finish(dataset, tmp_path, capsys, monkeypatch,
                                                failing):
    """A run that diverges is reported and left out; if none finishes, repeat exits 2."""
    real = vsr.cli.train_stream

    def diverging(model, train, val, cfg):
        if cfg.seed in failing:
            raise TrainingDiverged("training loss became non-finite in batch 0")
        return real(model, train, val, cfg)
    monkeypatch.setattr(vsr.cli, "train_stream", diverging)
    agg_path = tmp_path / "agg.json"
    rc = main(["repeat", "--runs", "2", "--out", str(agg_path), "train-stream",
               "--data", str(dataset), *PROTO_ARGS, *ARCH_ARGS, *FIT_ARGS, "--seed", "23"])
    err = capsys.readouterr().err.splitlines()
    assert err[:len(failing)] == [f"run with seed {s} failed: training loss became non-finite "
                                  f"in batch 0" for s in sorted(failing)]
    if failing == {23, 24}:
        assert (rc, err[2:], agg_path.exists()) == (2, ["error: all 2 runs failed"], False)
        return
    assert (rc, err[1:]) == (0, ["warning: aggregate covers 1 of 2 runs"])
    payload = json.loads(agg_path.read_text())
    assert payload["aggregate"]["seeds"] == [23]
    assert payload["failures"] == [{"seed": 24, "error": "training loss became non-finite "
                                                         "in batch 0"}]


def test_repeat_rejects_zero_runs(dataset, capsys):
    rc = main(["repeat", "--runs", "0", "train-stream", "--data", str(dataset), *PROTO_ARGS])
    assert rc == 2
    assert "--runs must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("train", [[], ["evaluate"]])
def test_repeat_needs_a_train_command(capsys, train):
    assert main(["repeat", *train]) == 2
    assert "repeat needs a train command" in capsys.readouterr().err


@pytest.mark.parametrize("key, flag, value", [
    ("out", ["--out", "m.ckpt"], "m.ckpt"),
    ("history", ["--history", "h.json"], "h.json"),
    ("track_train_accuracy", ["--track-train-accuracy"], True),
    ("track_train_accuracy", ["--no-track-train-accuracy"], False),
])
def test_repeat_takes_no_output_settings(dataset, tmp_path, capsys, key, flag, value):
    """repeat writes only its aggregate, so the train command's outputs are refused."""
    named = f"repeat train-stream takes no --{key.replace('_', '-')}"
    train = ["train-stream", "--data", str(dataset), *PROTO_ARGS]
    assert main(["repeat", *train, *flag]) == 2
    assert named in capsys.readouterr().err
    cfg = tmp_path / "train.json"
    cfg.write_text(json.dumps({key: value}))
    assert main(["repeat", *train, "--config", str(cfg)]) == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("train", [["train-stream", "--raw", "x.ckpt"],
                                   ["train-fusion", "--encoder", "x.ckpt"],
                                   ["train-fusion", "--pipeline", "fusion"]])
def test_repeat_refuses_flags_the_train_command_lacks(dataset, capsys, train):
    with pytest.raises(SystemExit) as exc:
        main(["repeat", train[0], "--data", str(dataset), *PROTO_ARGS, *train[1:]])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"error: unrecognized arguments: {' '.join(train[1:])}" in err


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

    def skewed(p, cache, d_h, *input_grad):
        d_seq, grads = true_backward(p, cache, d_h, *input_grad)
        return d_seq, {**grads, "wh": grads["wh"] * 1.001}

    # the lstm checks call it directly, the blstm and the models through layers
    monkeypatch.setattr(vsr.gradcheck, "lstm_backward", skewed)
    monkeypatch.setattr(vsr.layers, "lstm_backward", skewed)
    checks = ["lstm", "lstm_batch", "blstm", "stream_batch", "fusion_batch"]
    rc = main(["gradcheck", "--checks", ",".join(checks), "--instances", "1"])
    assert rc == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines if line.endswith("FAIL")] == checks


def test_evaluate_checkpoint_with_invalid_utf8_exits_2(raw_ckpt, dataset, tmp_path, capsys):
    key = struct.pack("<I", 5) + b"theta"
    blob = Path(raw_ckpt).read_bytes()
    assert blob.count(key) == 1
    bad = tmp_path / "bad_utf8.ckpt"
    bad.write_bytes(blob.replace(key, struct.pack("<I", 5) + b"th\xffta"))
    rc = main(["evaluate", "--model", str(bad), "--data", str(dataset), *PROTO_ARGS])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"checkpoint {bad}: a metadata key is not valid UTF-8" in err
    assert "Traceback" not in err


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


def test_evaluate_unknown_stream_kind_exits_2(raw_ckpt, dataset, tmp_path, capsys):
    stream = struct.pack("<I", 6) + b"stream" + struct.pack("<I", 3)
    blob = Path(raw_ckpt).read_bytes()
    assert blob.count(stream + b"raw") == 1
    bad = tmp_path / "bad_stream.ckpt"
    bad.write_bytes(blob.replace(stream + b"raw", stream + b"foo"))
    rc = main(["evaluate", "--model", str(bad), "--data", str(dataset), *PROTO_ARGS])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"checkpoint {bad}: metadata stream is 'foo'" in err
    assert "Traceback" not in err
