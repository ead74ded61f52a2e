"""Command-line pipeline: synth, pretrain, train-stream, train-fusion,
evaluate, repeat, gradcheck.

Every command resolves its settings as defaults <- JSON config file <-
explicit flags, and the resolved mapping is echoed into each artifact it
writes, so an artifact names the exact run that produced it. Each setting
is declared once, as a flag in build_parser that carries its default; the
training, pretraining and architecture defaults come from the library.
repeat has only --runs and --out: it reruns a train command, whose flags
that command's own parser reads.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
from collections.abc import Callable

import numpy as np

from . import gradcheck as gc
from .data import (ROI_DIMS, DatasetManifest, holdout_validation, load_manifest,
                   load_utterances, make_split, stream_features, synth_generate)
from .evaluation import aggregate_runs, evaluate, render_report
from .fileio import open_regular, write_atomic
from .layers import DeltaWindow
from .model import (DEFAULT_BOTTLENECK, DEFAULT_ENCODER_SIZES, DEFAULT_HIDDEN,
                    EncoderStack, astype_model, build_stream,
                    load_checkpoint, save_checkpoint)
from .numerics import Rng
from .rbm import PretrainConfig, pretrain_stack
from .training import (TrainConfig, TrainingDiverged, samples_from_utterances,
                       save_history, train_fusion, train_stream)

BoolFlag = argparse.BooleanOptionalAction
# --precision's choices, and the dtype in which each builds the model and the samples
_DTYPES = {"f32": np.float32, "f64": np.float64}


def _canon(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _parse_sizes(value: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in value.split(",") if v != "")
    except ValueError:
        raise ValueError(f"--encoder-sizes must be comma-separated integers, "
                         f"not {value!r}") from None


# the JSON types a config value may take, by the type its flag parses
_JSON_TYPES = {bool: ((bool,), "true or false"), int: ((int,), "an integer"),
               float: ((int, float), "a number"), str: ((str,), "a string")}


def resolve_config(args) -> dict:
    """The command's defaults <- JSON config file <- flags given explicitly.

    The file holds one JSON object. Each value has the JSON type of its
    key's flag and is one of the flag's choices, or is null where the
    default is unset.
    """
    defaults = args.defaults
    cfg = dict(defaults)
    path = args.config
    if path:
        with open_regular(path, lambda what: ValueError(f"config file {path}: {what}")) as fh:
            blob = fh.read()
        try:
            file_cfg = json.loads(blob.decode("utf-8"))
        except RecursionError:
            raise ValueError(f"config file {path} nests too deeply") from None
        except ValueError as exc:  # a JSONDecodeError, UnicodeDecodeError or over-long int
            raise ValueError(f"config file {path}: not JSON ({exc})") from None
        if not isinstance(file_cfg, dict):
            raise ValueError(f"config file {path} does not hold a JSON object")
        unknown = set(file_cfg) - set(defaults)
        if unknown:
            raise ValueError(f"config file has unknown keys: {sorted(unknown)}")
        for key, value in file_cfg.items():
            flag = args.flags[key]
            kind = bool if isinstance(flag, BoolFlag) else flag.type or str
            types, name = _JSON_TYPES[kind]
            # true and false are ints to Python, but only a switch takes them
            fits = isinstance(value, types) and isinstance(value, bool) == (kind is bool)
            if not (fits or value is None and defaults[key] is None):
                raise ValueError(f"config file {path}: {key} must be {name}, "
                                 f"not {json.dumps(value)}")
            if flag.choices is not None and value not in flag.choices:
                raise ValueError(f"config file {path}: {key} must be one of "
                                 f"{'/'.join(flag.choices)}, not {json.dumps(value)}")
        cfg.update(file_cfg)
    for key in defaults:
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    return cfg


def _require(cfg: dict, keys: list[str], command: str) -> None:
    missing = [k for k in keys if cfg.get(k) in (None, "")]
    if missing:
        flags = ", ".join("--" + k.replace("_", "-") for k in missing)
        raise ValueError(f"{command} requires {flags}")


def _split_for(manifest: DatasetManifest, cfg: dict, rng: Rng, need_val: bool):
    protocol = cfg["protocol"]
    if protocol == "custom":
        split = make_split(manifest, "custom", rng,
                           train_subjects=_csv(cfg.get("train_subjects")),
                           val_subjects=_csv(cfg.get("val_subjects")),
                           test_subjects=_csv(cfg.get("test_subjects")))
    else:
        split = make_split(manifest, protocol, rng)
    if need_val and not split.val:
        split = holdout_validation(split, rng)
    return split


def _csv(value: str | None) -> list[str] | None:
    if value is None:
        return None
    return [v for v in value.split(",") if v]


def _write(path, text: str) -> None:
    write_atomic(path, text + "\n")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_synth(cfg: dict) -> int:
    _require(cfg, ["out"], "synth")
    if cfg["roi"]:
        if cfg["roi"] not in ROI_DIMS:
            raise ValueError(f"unknown ROI preset {cfg['roi']!r}, "
                             f"have {sorted(ROI_DIMS)}")
        cfg["height"], cfg["width"] = ROI_DIMS[cfg["roi"]]
    manifest = synth_generate(int(cfg["classes"]), int(cfg["subjects"]),
                              int(cfg["reps"]), int(cfg["frames"]),
                              int(cfg["height"]), int(cfg["width"]),
                              int(cfg["seed"]), cfg["out"])
    print(f"wrote {len(manifest.records)} utterances "
          f"({len(manifest.classes)} classes, "
          f"{len(set(r.subject for r in manifest.records))} subjects, "
          f"{manifest.height}x{manifest.width}) to {cfg['out']}")
    return 0


def cmd_pretrain(cfg: dict) -> int:
    _require(cfg, ["data", "protocol", "out"], "pretrain")
    sizes = _parse_sizes(cfg["encoder_sizes"])
    manifest = load_manifest(cfg["data"])
    rng = Rng(int(cfg["seed"]))
    split = _split_for(manifest, cfg, rng, need_val=False)
    utts = load_utterances(cfg["data"], manifest, split.train)
    frames = np.concatenate([stream_features(u.frames, cfg["stream"]) for u in utts])
    pcfg = PretrainConfig(epochs=int(cfg["epochs"]), batch=int(cfg["batch"]),
                          lr=float(cfg["lr"]), l2=float(cfg["l2"]),
                          seed=int(cfg["seed"]))
    layers, errors = pretrain_stack([manifest.frame_dim, *sizes,
                                     int(cfg["bottleneck"])], frames, pcfg)
    stack = EncoderStack(layers=layers, meta={"kind": "encoder",
                                              "stream": cfg["stream"]})
    save_checkpoint(cfg["out"], stack,
                    extra_meta={"config": _canon(cfg), "seed": str(cfg["seed"])})
    history_path = cfg["history"] or cfg["out"] + ".history.json"
    _write(history_path, json.dumps({"config": cfg, "seed": int(cfg["seed"]),
                                     "reconstruction_errors": errors},
                                    indent=2, sort_keys=True))
    shapes = ", ".join("x".join(map(str, l.w.shape)) for l in layers)
    print(f"pretrained encoder [{shapes}] on {frames.shape[0]} frames -> {cfg['out']}")
    return 0


def _training_inputs(cfg: dict, stage: str) -> tuple[TrainConfig, DatasetManifest,
                                                     tuple[str, ...], Callable]:
    """The fit settings, the manifest, the run's stream kinds and its fit, which
    no seed changes. fit(train, val, tcfg, rng) builds the model and trains it:
    a stream from --encoder-sizes, its own copy of the --encoder weights and
    --theta, or a fusion of the --raw and --diff streams, cast to --precision.
    Every checkpoint is checked through its metadata. repeat calls this once,
    before its first run; the fit settings are checked before any file is read."""
    tcfg = TrainConfig(lr=float(cfg["lr"]), batch_utts=int(cfg["batch_utts"]),
                       patience=int(cfg["patience"]),
                       clip_threshold=float(cfg["clip_threshold"]),
                       max_epochs=int(cfg["max_epochs"]), seed=int(cfg["seed"]),
                       track_train_accuracy=bool(cfg["track_train_accuracy"]),
                       freeze_streams=bool(cfg.get("freeze_streams")))
    manifest = load_manifest(cfg["data"])
    classes = len(manifest.classes)
    dtype = _DTYPES[cfg["precision"]]
    if stage == "fusion":
        raw, diff = (astype_model(load_checkpoint(cfg[kind], expect={
            "kind": "stream", "stream": kind, "classes": str(classes)}), dtype)
            for kind in ("raw", "diff"))

        def fit(train, val, tcfg, rng):
            return train_fusion(raw, diff, train, val, tcfg, hidden=cfg["hidden"])
        return tcfg, manifest, ("raw", "diff"), fit
    sizes, theta = _parse_sizes(cfg["encoder_sizes"]), DeltaWindow(int(cfg["theta"])).theta
    stack = None
    if cfg["encoder"]:
        stack = load_checkpoint(cfg["encoder"], expect={
            "kind": "encoder", "stream": cfg["stream"]})

    def fit(train, val, tcfg, rng):
        # the model trains the encoder it is given in place, so each run gets its own copy
        encoder_init = None if stack is None else astype_model(stack, dtype).layers
        model = build_stream(input_dim=manifest.frame_dim, classes=classes,
                             hidden=int(cfg["hidden"]), rng=rng, stream_kind=cfg["stream"],
                             encoder_init=encoder_init, encoder_sizes=sizes,
                             bottleneck=int(cfg["bottleneck"]), theta=theta, dtype=dtype)
        return train_stream(model, train, val, tcfg)
    return tcfg, manifest, (cfg["stream"],), fit


def _run_training(cfg: dict, inputs: tuple):
    """Split and fit on _training_inputs' result, at cfg's seed. Shared by
    train-stream, train-fusion and repeat so reruns match run for run."""
    tcfg, manifest, kinds, fit = inputs
    tcfg = dataclasses.replace(tcfg, seed=int(cfg["seed"]))
    dtype = _DTYPES[cfg["precision"]]
    rng = Rng(tcfg.seed)
    split = _split_for(manifest, cfg, rng, need_val=True)
    train_utts, val_utts = (load_utterances(cfg["data"], manifest, paths)
                            for paths in (split.train, split.val))
    train_samples = samples_from_utterances(train_utts, kinds, dtype)
    val_samples = samples_from_utterances(val_utts, kinds, dtype)
    model, history = fit(train_samples, val_samples, tcfg, rng)
    return model, history, split, manifest


# the settings a training run cannot start without, by stage
_TRAIN_INPUTS = {"stream": ["data", "protocol"], "fusion": ["data", "protocol", "raw", "diff"]}


def cmd_train(cfg: dict, stage: str) -> int:
    """train-stream or train-fusion, as stage says."""
    _require(cfg, [*_TRAIN_INPUTS[stage], "out"], f"train-{stage}")
    model, history, _, _ = _run_training(cfg, _training_inputs(cfg, stage))
    history.config.update(cfg)
    save_checkpoint(cfg["out"], model,
                    extra_meta={"config": _canon(cfg), "seed": str(cfg["seed"])})
    save_history(cfg["history"] or cfg["out"] + ".history.json", history)
    report = history.val_report  # the returned weights' own, scored as evaluate scores
    report.split, report.checkpoint = "val", os.path.basename(cfg["out"])
    _write(cfg["out"] + ".val.json", render_report(report, "json"))
    trained = "fusion model" if stage == "fusion" else f"{cfg['stream']} stream"
    print(f"trained {trained}: best epoch {history.best_epoch}, "
          f"val accuracy {history.best_val_accuracy:.4f} "
          f"({history.stop_reason}) -> {cfg['out']}")
    return 0


def cmd_evaluate(cfg: dict) -> int:
    _require(cfg, ["model", "data", "protocol"], "evaluate")
    manifest = load_manifest(cfg["data"])
    model = load_checkpoint(cfg["model"])
    if isinstance(model, EncoderStack):
        raise ValueError("an encoder-only checkpoint cannot be evaluated")
    split = _split_for(manifest, cfg, Rng(int(cfg["seed"])), need_val=False)
    paths = {"train": split.train, "val": split.val, "test": split.test}[cfg["split"]]
    if not paths:
        raise ValueError(f"protocol {cfg['protocol']} defines no "
                         f"{cfg['split']} utterances")
    utts = load_utterances(cfg["data"], manifest, paths)
    report = evaluate(model, utts, len(manifest.classes), split=cfg["split"],
                      checkpoint=os.path.basename(cfg["model"]))
    doc = render_report(report, cfg["format"], per_subject=bool(cfg["per_subject"]),
                        confusion=bool(cfg["confusion"]))
    if cfg["out"]:
        _write(cfg["out"], doc)
    print(doc)
    return 0


# what a train command writes or records beside its model; repeat keeps none of it
_NOT_UNDER_REPEAT = ("out", "history", "track_train_accuracy")


def cmd_repeat(cfg: dict, train: list[str]) -> int:
    """Run the train command in train (its name, then its flags) over
    consecutive seeds and aggregate the test-split accuracies."""
    runs = int(cfg["runs"])
    if runs < 1:
        raise ValueError(f"--runs must be >= 1, got {runs}")
    command = train[0] if train else ""
    if command not in ("train-stream", "train-fusion"):
        raise ValueError("repeat needs a train command: train-stream or train-fusion, "
                         "then its flags")
    stage = command.removeprefix("train-")
    train_cfg = resolve_config(build_parser().parse_args(train))
    for key in _NOT_UNDER_REPEAT:
        if train_cfg[key] is not None:
            raise ValueError(f"repeat {command} takes no --{key.replace('_', '-')}: "
                             f"repeat writes no checkpoint and no history")
    _require(train_cfg, _TRAIN_INPUTS[stage], f"repeat {command}")
    inputs = _training_inputs(train_cfg, stage)
    base = int(train_cfg["seed"])
    results, failures = [], []
    for i in range(runs):
        try:
            acc = _repeat_one(dict(train_cfg, seed=base + i), inputs)
            results.append((base + i, acc))
        except (ValueError, TrainingDiverged, OSError) as exc:
            failures.append({"seed": base + i, "error": str(exc)})
            print(f"run with seed {base + i} failed: {exc}", file=sys.stderr)
    if not results:
        raise ValueError(f"all {runs} runs failed")
    seeds = [s for s, _ in results]
    agg = aggregate_runs([a for _, a in results], seeds)
    if failures:
        print(f"warning: aggregate covers {len(results)} of {runs} runs",
              file=sys.stderr)
    if cfg["out"]:
        echo = {k: v for k, v in train_cfg.items() if k not in _NOT_UNDER_REPEAT}
        payload = {"config": {**echo, "command": command, "runs": runs},
                   "aggregate": dataclasses.asdict(agg), "failures": failures}
        _write(cfg["out"], json.dumps(payload, indent=2, sort_keys=True))
    print(render_report(agg, "text"))
    return 0


def _repeat_one(cfg: dict, inputs: tuple) -> float:
    """One training run; returns test-split utterance accuracy."""
    model, _, split, manifest = _run_training(cfg, inputs)
    test_utts = load_utterances(cfg["data"], manifest, split.test)
    report = evaluate(model, test_utts, len(manifest.classes), split="test")
    return report.accuracy


def cmd_gradcheck(cfg: dict) -> int:
    if cfg["list"]:
        for name in gc.CHECKS:
            print(name)
        return 0
    names = _csv(cfg["checks"])
    results = gc.run_checks(names, instances=int(cfg["instances"]),
                            seed=int(cfg["seed"]))
    tol = float(cfg["tol"])
    failed = False
    for name, err in results.items():
        ok = err < tol
        failed = failed or not ok
        print(f"{name:<14} max rel err {err:.3e}  {'PASS' if ok else 'FAIL'}")
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# parser: each setting is one flag that carries its default
# ---------------------------------------------------------------------------

_PRETRAIN = PretrainConfig()


def _flag(p: argparse.ArgumentParser, name: str, default=None, **kwargs) -> None:
    """Declare one setting of p's command: its flag and its default.

    The flag parses to None unless given, so resolve_config can let a config
    file override the default and the flag override the file.
    """
    flag = p.add_argument(name, **kwargs)
    p.get_default("defaults")[flag.dest] = default
    p.get_default("flags")[flag.dest] = flag


def _command(sub, name: str, func, summary: str, seed: int = 0) -> argparse.ArgumentParser:
    p = sub.add_parser(name, help=summary)
    p.set_defaults(func=func, defaults={}, flags={})
    p.add_argument("--config", help="JSON file of settings; flags override it")
    _flag(p, "--seed", seed, type=int)
    return p


def _add_data(p: argparse.ArgumentParser) -> None:
    _flag(p, "--data", help="dataset directory (manifest + utterances)")
    _flag(p, "--protocol", help="oulu | cuave | avletters | avletters2-fold-K | custom")
    _flag(p, "--train-subjects", help="custom protocol: comma-separated subject ids")
    _flag(p, "--val-subjects")
    _flag(p, "--test-subjects")


def _add_train(p: argparse.ArgumentParser, fit: TrainConfig) -> None:
    """The settings train-stream and train-fusion share, with fit's values as defaults."""
    _add_data(p)
    _flag(p, "--lr", fit.lr, type=float)
    _flag(p, "--batch-utts", fit.batch_utts, type=int)
    _flag(p, "--patience", fit.patience, type=int)
    _flag(p, "--clip-threshold", fit.clip_threshold, type=float)
    _flag(p, "--max-epochs", fit.max_epochs, type=int)
    _flag(p, "--precision", "f32", choices=tuple(_DTYPES))
    _flag(p, "--track-train-accuracy", action=BoolFlag)
    _flag(p, "--history", help="history JSON path (default <out>.history.json)")
    _flag(p, "--out", help="model checkpoint path")


def _add_encoder(p: argparse.ArgumentParser) -> None:
    _flag(p, "--stream", "raw", choices=("raw", "diff"))
    _flag(p, "--encoder-sizes", ",".join(map(str, DEFAULT_ENCODER_SIZES)),
          help="comma-separated widths, e.g. 2000,1000,500")
    _flag(p, "--bottleneck", DEFAULT_BOTTLENECK, type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vsr",
        description="Two-stream visual speech recognition: synthetic data, "
                    "RBM pretraining, BLSTM training, evaluation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = _command(sub, "synth", cmd_synth, "generate a synthetic dataset", seed=7)
    for name, default in (("--classes", 4), ("--subjects", 6), ("--reps", 5),
                          ("--frames", 20), ("--height", 26), ("--width", 44)):
        _flag(p, name, default, type=int)
    _flag(p, "--roi", help=f"ROI preset, one of {sorted(ROI_DIMS)}")
    _flag(p, "--out", help="output dataset directory")

    p = _command(sub, "pretrain", cmd_pretrain, "layer-wise RBM pretraining of the encoder")
    _add_data(p)
    _add_encoder(p)
    _flag(p, "--epochs", _PRETRAIN.epochs, type=int)
    _flag(p, "--batch", _PRETRAIN.batch, type=int)
    _flag(p, "--lr", _PRETRAIN.lr, type=float)
    _flag(p, "--l2", _PRETRAIN.l2, type=float)
    _flag(p, "--out", help="encoder checkpoint path")
    _flag(p, "--history", help="history JSON path (default <out>.history.json)")

    p = _command(sub, "train-stream", functools.partial(cmd_train, stage="stream"),
                 "train one stream end to end")
    _add_train(p, TrainConfig.for_stream())
    _add_encoder(p)
    _flag(p, "--encoder", help="pretrained encoder checkpoint")
    _flag(p, "--hidden", DEFAULT_HIDDEN, type=int)
    _flag(p, "--theta", DeltaWindow.theta, type=int)

    p = _command(sub, "train-fusion", functools.partial(cmd_train, stage="fusion"),
                 "fuse two trained streams and fine-tune")
    _add_train(p, TrainConfig.for_fusion())
    _flag(p, "--raw", help="trained raw-stream checkpoint")
    _flag(p, "--diff", help="trained diff-stream checkpoint")
    _flag(p, "--freeze-streams", action=BoolFlag)
    _flag(p, "--hidden", type=int, help="fusion BLSTM width (default: the raw stream's)")

    p = _command(sub, "evaluate", cmd_evaluate, "score a checkpoint on a split")
    _add_data(p)
    _flag(p, "--model", help="model checkpoint path")
    _flag(p, "--split", "test", choices=("train", "val", "test"))
    _flag(p, "--format", "text", choices=("text", "json", "csv"))
    _flag(p, "--per-subject", action=BoolFlag, help="text format: add per-subject accuracies")
    _flag(p, "--confusion", action=BoolFlag, help="text format: add the confusion matrix")
    _flag(p, "--out", help="write the report here as well as printing it")

    # repeat's settings are its own two; the run's are the train command's
    p = sub.add_parser("repeat", help="repeat a train command over consecutive seeds")
    p.set_defaults(func=cmd_repeat, defaults={}, flags={}, config=None)
    _flag(p, "--runs", 10, type=int)
    _flag(p, "--out", help="aggregate JSON path")
    p.add_argument("train", nargs=argparse.REMAINDER,
                   metavar="train-stream|train-fusion ...",
                   help="the train command and its flags; the first run uses its "
                        "--seed, each next run one more")

    p = _command(sub, "gradcheck", cmd_gradcheck, "finite-difference gradient verification")
    _flag(p, "--checks", help=f"comma-separated subset of {list(gc.CHECKS)}")
    _flag(p, "--instances", 3, type=int)
    _flag(p, "--tol", gc.GRAD_TOL, type=float)
    _flag(p, "--list", action=BoolFlag, help="list available checks")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        return args.func(cfg, args.train) if args.command == "repeat" else args.func(cfg)
    except (ValueError, OSError, TrainingDiverged) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
