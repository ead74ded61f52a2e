"""Pins what the CLI echoes: each command's resolved defaults, and the bytes
of a tiny pipeline run, whose artifacts carry the resolved settings."""

import hashlib
import json

import pytest

from vsr.cli import build_parser, main

# every setting of every command with no flag and no config file given,
# recorded before the defaults moved onto the flags (repeat has since lost
# every setting but --runs and --out: it takes the train command it repeats,
# with that command's own flags)
DEFAULTS = {
    "synth": {"classes": 4, "subjects": 6, "reps": 5, "frames": 20, "height": 26,
              "width": 44, "seed": 7, "roi": None, "out": None},
    "pretrain": {"data": None, "protocol": None, "stream": "raw", "epochs": 20,
                 "batch": 100, "lr": 0.001, "l2": 0.0002, "seed": 0,
                 "encoder_sizes": "2000,1000,500", "bottleneck": 50, "out": None,
                 "history": None, "train_subjects": None, "val_subjects": None,
                 "test_subjects": None},
    "train-stream": {"data": None, "protocol": None, "batch_utts": 10, "patience": 5,
                     "clip_threshold": 5.0, "max_epochs": 200, "seed": 0,
                     "precision": "f32", "out": None, "history": None,
                     "track_train_accuracy": None, "train_subjects": None,
                     "val_subjects": None, "test_subjects": None, "stream": "raw",
                     "encoder": None, "hidden": 250, "lr": 0.0003,
                     "encoder_sizes": "2000,1000,500", "bottleneck": 50, "theta": 2},
    "train-fusion": {"data": None, "protocol": None, "batch_utts": 10, "patience": 5,
                     "clip_threshold": 5.0, "max_epochs": 200, "seed": 0,
                     "precision": "f32", "out": None, "history": None,
                     "track_train_accuracy": None, "train_subjects": None,
                     "val_subjects": None, "test_subjects": None, "raw": None,
                     "diff": None, "hidden": None, "lr": 0.0001, "freeze_streams": None},
    "evaluate": {"model": None, "data": None, "protocol": None, "split": "test",
                 "format": "text", "out": None, "per_subject": None, "confusion": None,
                 "seed": 0, "train_subjects": None, "val_subjects": None,
                 "test_subjects": None},
    "repeat": {"runs": 10, "out": None},
    "gradcheck": {"checks": None, "instances": 3, "seed": 0, "tol": 1e-05, "list": None},
}


def _canon(obj) -> str:
    # JSON tells 5 from 5.0 and None from False, as every echo does
    return json.dumps(obj, sort_keys=True)


@pytest.mark.parametrize("command", sorted(DEFAULTS))
def test_each_command_resolves_its_pinned_defaults(command):
    args = build_parser().parse_args([command])
    assert _canon(args.defaults) == _canon(DEFAULTS[command])


# SHA-256 of each artifact of the pipeline below, histories without their
# wall times; every product is small enough for OpenBLAS's single-threaded
# path, so the bits do not depend on the thread count; recorded before the
# defaults moved onto the flags, the three training histories and the two
# repeat aggregates again when their echoed configs lost the settings that
# changed nothing (TrainConfig's stage and Adam constants, repeat's
# --history and --track-train-accuracy), and the two repeat aggregates once
# more when repeat came to wrap a train command and echo only its settings
# (the aggregate blocks themselves did not change); diff.ckpt, a
# --precision f64 run, again when checkpoints came to keep float64
PIPELINE = {
    "diff.ckpt": "cf3de90e4c5d545b8f14576d10165ae49bc2e98c3383f7b8652734c7c918db0c",
    "diff.ckpt.history.json": "392cfb74620c1b04ae555cf61e432f1aac8f3ccb1e24c13188106d213fbec380",
    "diff.ckpt.val.json": "0a1d2ea646c657284b98abc1d29679358d130ffa6bc6030ac8420fa56c16cc34",
    "enc.ckpt": "09cfd405f0ad5c4ac504ec63fd63bed4c223e23fa554d57c0236eb51f5861f7e",
    "enc.ckpt.history.json": "6561ec2a9daa762e16d92f4e289f9c55e160ff95245a0d802bcc2bca3261375b",
    "eval.json": "d1fa3061dea4de890f3c1b386c3d16c9036ac6b4408d2c934eb93d2176b2707c",
    "fused.ckpt": "40bb5e84d7118a8f73d298b364e0f81ca8b6d8d94ec3f6a09d449515248d3529",
    "fused.ckpt.history.json": "a5c826c1f7173d42aec14c223c14c9068cfcfaadb775e92532d050fa7ddd8a0d",
    "fused.ckpt.val.json": "ffc156d0c1e00451e69b11a88e6d2aff0bdac96746f4d76262767e793ade0e8f",
    "raw.ckpt": "58fdf8c3589d8a3906eb923e8448839e93a817fdf9c3126211ce3646ebe01a6e",
    "raw.ckpt.history.json": "21c63b693fce980182c91ba14ca816e5b8dd161ba78b9b141741180c941f64eb",
    "raw.ckpt.val.json": "65118c9ea88b7ed4e22fd71807c78cd72696f2b3a8fb22f12d3c4fe88cb360e9",
    "repeat.json": "f2fa35305ac5bd4f4244b9f71d4647a75b39b0d7b188dca8e6f6a8a43f825dd4",
    "repeat_fusion.json": "dfd40c06b214b5eb10d597f2785c2d02f15caf2e8e70d430798634209449eb14",
    "stdout": "8b36a5d7eeccf019aabb6939d49d5aa44eb91ff35e33783959a78c27853f4fac",
}

DATA = ["--data", "data", "--protocol", "custom", "--train-subjects", "s00,s01",
        "--val-subjects", "s02", "--test-subjects", "s03"]
ARCH = ["--encoder-sizes", "16,8", "--bottleneck", "4"]
FIT = ["--hidden", "4", "--max-epochs", "2", "--batch-utts", "4", "--seed", "5"]


def _pipeline_digests(root, capsys) -> dict[str, str]:
    runs = [
        ["synth", "--classes", "3", "--subjects", "4", "--reps", "2", "--frames", "6",
         "--height", "8", "--width", "9", "--seed", "11", "--out", "data"],
        ["pretrain", *DATA, *ARCH, "--epochs", "1", "--batch", "16", "--out", "enc.ckpt"],
        ["train-stream", *DATA, *ARCH, *FIT, "--encoder", "enc.ckpt", "--out", "raw.ckpt"],
        ["train-stream", *DATA, *ARCH, *FIT, "--stream", "diff", "--precision", "f64",
         "--out", "diff.ckpt"],
        ["train-fusion", *DATA, *FIT, "--raw", "raw.ckpt", "--diff", "diff.ckpt",
         "--freeze-streams", "--out", "fused.ckpt"],
        ["evaluate", *DATA, "--model", "fused.ckpt", "--format", "json",
         "--out", "eval.json"],
        ["repeat", "--runs", "2", "--out", "repeat.json", "train-stream", *DATA, *ARCH, *FIT],
        ["repeat", "--runs", "1", "--out", "repeat_fusion.json", "train-fusion", *DATA,
         "--raw", "raw.ckpt", "--diff", "diff.ckpt", "--hidden", "4", "--max-epochs", "1"],
    ]
    for argv in runs:
        assert main(argv) == 0, argv
    digests = {}
    for path in sorted(p for p in root.iterdir() if p.is_file()):
        blob = path.read_bytes()
        if path.name.endswith(".history.json"):
            history = json.loads(blob)
            for record in history.get("epochs", []):
                record.pop("wall_time")
            blob = json.dumps(history, sort_keys=True).encode()
        digests[path.name] = hashlib.sha256(blob).hexdigest()
    digests["stdout"] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    return digests


def test_a_tiny_pipeline_keeps_its_bits(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert _pipeline_digests(tmp_path, capsys) == PIPELINE
