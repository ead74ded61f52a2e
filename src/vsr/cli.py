"""Command-line pipeline: synth, pretrain, train-stream, train-fusion,
evaluate, repeat, gradcheck.

Every command resolves its settings as defaults <- JSON config file <-
explicit flags, and the resolved mapping is echoed into each artifact it
writes, so an artifact names the exact run that produced it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import gradcheck as gc
from .data import (ROI_DIMS, DatasetManifest, holdout_validation, load_manifest,
                   load_utterances, make_split, stream_features, synth_generate)
from .evaluation import aggregate_runs, evaluate, render_report
from .fileio import write_atomic
from .model import (EncoderStack, SingleStreamModel, build_stream,
                    load_checkpoint, save_checkpoint)
from .numerics import Rng
from .rbm import PretrainConfig, pretrain_stack
from .training import (TrainConfig, TrainingDiverged, samples_from_utterances,
                       save_history, train_fusion, train_stream)

BoolFlag = argparse.BooleanOptionalAction


def _canon(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _parse_sizes(value: str) -> tuple[int, ...]:
    return tuple(int(v) for v in value.split(",") if v != "")


# the JSON types a config value may take, by the type its flag parses
_JSON_TYPES = {bool: ((bool,), "true or false"), int: ((int,), "an integer"),
               float: ((int, float), "a number"), str: ((str,), "a string")}


def resolve_config(args, defaults: dict) -> dict:
    """defaults <- JSON config file <- flags that were given explicitly.

    The file holds one JSON object. Each value has the JSON type of its
    key's flag, or is null where the default is unset.
    """
    cfg = dict(defaults)
    path = getattr(args, "config", None)
    if path:
        with open(path, encoding="utf-8") as fh:
            try:
                file_cfg = json.load(fh)
            except RecursionError:
                raise ValueError(f"config file {path} nests too deeply") from None
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


def _train_config(cfg: dict, stage: str) -> TrainConfig:
    return TrainConfig(lr=float(cfg["lr"]), stage=stage,
                       batch_utts=int(cfg["batch_utts"]),
                       patience=int(cfg["patience"]),
                       clip_threshold=float(cfg["clip_threshold"]),
                       max_epochs=int(cfg["max_epochs"]), seed=int(cfg["seed"]),
                       precision=cfg["precision"],
                       track_train_accuracy=bool(cfg.get("track_train_accuracy", False)),
                       freeze_streams=bool(cfg.get("freeze_streams", False)))


def _write(path, text: str) -> None:
    write_atomic(path, text + "\n")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

SYNTH_DEFAULTS = {"classes": 4, "subjects": 6, "reps": 5, "frames": 20,
                  "height": 26, "width": 44, "seed": 7, "roi": None, "out": None}


def cmd_synth(args) -> int:
    cfg = resolve_config(args, SYNTH_DEFAULTS)
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


PRETRAIN_DEFAULTS = {"data": None, "protocol": None, "stream": "raw",
                     "epochs": 20, "batch": 100, "lr": 0.001, "l2": 0.0002,
                     "seed": 0, "encoder_sizes": "2000,1000,500",
                     "bottleneck": 50, "out": None, "history": None,
                     "train_subjects": None, "val_subjects": None,
                     "test_subjects": None}


def cmd_pretrain(args) -> int:
    cfg = resolve_config(args, PRETRAIN_DEFAULTS)
    _require(cfg, ["data", "protocol", "out"], "pretrain")
    manifest = load_manifest(cfg["data"])
    rng = Rng(int(cfg["seed"]))
    split = _split_for(manifest, cfg, rng, need_val=False)
    utts = load_utterances(cfg["data"], manifest, split.train)
    frames = np.concatenate([stream_features(u.frames, cfg["stream"]) for u in utts])
    sizes = _parse_sizes(cfg["encoder_sizes"])
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


_FIT_DEFAULTS = {"data": None, "protocol": None, "batch_utts": 10, "patience": 5,
                 "clip_threshold": 5.0, "max_epochs": 200, "seed": 0, "precision": "f32",
                 "out": None, "history": None, "track_train_accuracy": None,
                 "train_subjects": None, "val_subjects": None, "test_subjects": None}
TRAIN_DEFAULTS = {
    "stream": {**_FIT_DEFAULTS, "stream": "raw", "encoder": None, "hidden": 250,
               "lr": 0.0003, "encoder_sizes": "2000,1000,500", "bottleneck": 50,
               "theta": 2},
    "fusion": {**_FIT_DEFAULTS, "raw": None, "diff": None, "hidden": None, "lr": 0.0001,
               "freeze_streams": None},
}


def _run_training(cfg: dict, stage: str):
    """Shared by train-stream, train-fusion and repeat so reruns match run for run."""
    manifest = load_manifest(cfg["data"])
    rng = Rng(int(cfg["seed"]))
    split = _split_for(manifest, cfg, rng, need_val=True)
    if stage == "fusion":
        raw, diff = load_checkpoint(cfg["raw"]), load_checkpoint(cfg["diff"])
        for name, m, kind in (("--raw", raw, "raw"), ("--diff", diff, "diff")):
            if not isinstance(m, SingleStreamModel) or m.net.stream_kind != kind:
                raise ValueError(f"{name} checkpoint is not a trained {kind} stream")
    tcfg = _train_config(cfg, stage)
    kinds = ("raw", "diff") if stage == "fusion" else (cfg["stream"],)
    train_utts, val_utts = (load_utterances(cfg["data"], manifest, paths)
                            for paths in (split.train, split.val))
    train_samples = samples_from_utterances(train_utts, kinds, tcfg.dtype)
    val_samples = samples_from_utterances(val_utts, kinds, tcfg.dtype)
    if stage == "fusion":
        hidden = int(cfg["hidden"]) if cfg["hidden"] is not None else None
        model, history = train_fusion(raw, diff, train_samples, val_samples, tcfg,
                                      hidden=hidden)
        return model, history, split, manifest, val_utts
    encoder_init = None
    if cfg["encoder"]:
        stack = load_checkpoint(cfg["encoder"])
        if not isinstance(stack, EncoderStack):
            raise ValueError(f"{cfg['encoder']} is not an encoder checkpoint")
        encoder_init = stack.layers
    model = build_stream(input_dim=manifest.frame_dim,
                         classes=len(manifest.classes), hidden=int(cfg["hidden"]),
                         rng=rng, stream_kind=cfg["stream"], encoder_init=encoder_init,
                         encoder_sizes=_parse_sizes(cfg["encoder_sizes"]),
                         bottleneck=int(cfg["bottleneck"]), theta=int(cfg["theta"]),
                         dtype=tcfg.dtype)
    model, history = train_stream(model, train_samples, val_samples, tcfg)
    return model, history, split, manifest, val_utts


def cmd_train(args) -> int:
    """train-stream or train-fusion, as the subparser set args.stage."""
    stage = args.stage
    cfg = resolve_config(args, TRAIN_DEFAULTS[stage])
    inputs = ["raw", "diff"] if stage == "fusion" else []
    _require(cfg, ["data", "protocol", *inputs, "out"], f"train-{stage}")
    model, history, split, manifest, val_utts = _run_training(cfg, stage)
    history.config.update(cfg)
    save_checkpoint(cfg["out"], model,
                    extra_meta={"config": _canon(cfg), "seed": str(cfg["seed"])})
    save_history(cfg["history"] or cfg["out"] + ".history.json", history)
    report = evaluate(model, val_utts, len(manifest.classes), split="val",
                      checkpoint=os.path.basename(cfg["out"]))
    _write(cfg["out"] + ".val.json", render_report(report, "json"))
    trained = "fusion model" if stage == "fusion" else f"{cfg['stream']} stream"
    print(f"trained {trained}: best epoch {history.best_epoch}, "
          f"val accuracy {history.best_val_accuracy:.4f} "
          f"({history.stop_reason}) -> {cfg['out']}")
    return 0


EVALUATE_DEFAULTS = {"model": None, "data": None, "protocol": None,
                     "split": "test", "format": "text", "out": None,
                     "per_subject": None, "confusion": None, "seed": 0,
                     "train_subjects": None, "val_subjects": None,
                     "test_subjects": None}


def cmd_evaluate(args) -> int:
    cfg = resolve_config(args, EVALUATE_DEFAULTS)
    _require(cfg, ["model", "data", "protocol"], "evaluate")
    manifest = load_manifest(cfg["data"])
    model = load_checkpoint(cfg["model"])
    if isinstance(model, EncoderStack):
        raise ValueError("an encoder-only checkpoint cannot be evaluated")
    want = str(len(manifest.classes))
    got = model.meta.get("classes")
    if got != want:
        raise ValueError(f"model was trained for {got} classes "
                         f"but the dataset has {want}")
    split = _split_for(manifest, cfg, Rng(int(cfg["seed"])), need_val=False)
    paths = {"train": split.train, "val": split.val, "test": split.test}[cfg["split"]]
    if not paths:
        raise ValueError(f"protocol {cfg['protocol']} defines no "
                         f"{cfg['split']} utterances")
    utts = load_utterances(cfg["data"], manifest, paths)
    report = evaluate(model, utts, len(manifest.classes), split=cfg["split"],
                      checkpoint=os.path.basename(cfg["model"]))
    doc = render_report(report, cfg["format"],
                        per_subject=bool(cfg["per_subject"]) or cfg["format"] != "text",
                        confusion=bool(cfg["confusion"]) or cfg["format"] != "text")
    if cfg["out"]:
        _write(cfg["out"], doc)
    print(doc)
    return 0


REPEAT_DEFAULTS = {**TRAIN_DEFAULTS["stream"], "pipeline": "stream", "runs": 10,
                   "raw": None, "diff": None, "fusion_lr": 0.0001,
                   "freeze_streams": None}


def cmd_repeat(args) -> int:
    cfg = resolve_config(args, REPEAT_DEFAULTS)
    _require(cfg, ["data", "protocol"], "repeat")
    runs = int(cfg["runs"])
    if runs < 1:
        raise ValueError(f"--runs must be >= 1, got {runs}")
    base = int(cfg["seed"])
    results, failures = [], []
    for i in range(runs):
        run_cfg = dict(cfg)
        run_cfg["seed"] = base + i
        try:
            acc = _repeat_one(run_cfg)
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
        payload = {"config": cfg, "aggregate": agg.to_dict(), "failures": failures}
        _write(cfg["out"], json.dumps(payload, indent=2, sort_keys=True))
    print(render_report(agg, "text"))
    return 0


def _repeat_one(cfg: dict) -> float:
    """One pipeline run; returns test-split utterance accuracy."""
    if cfg["pipeline"] == "stream":
        model, _, split, manifest, _ = _run_training(cfg, "stream")
    elif cfg["pipeline"] == "fusion":
        fcfg = dict(cfg)
        fcfg["lr"] = cfg["fusion_lr"]
        _require(fcfg, ["raw", "diff"], "repeat --pipeline fusion")
        model, _, split, manifest, _ = _run_training(fcfg, "fusion")
    else:
        raise ValueError(f"unknown pipeline {cfg['pipeline']!r}")
    test_utts = load_utterances(cfg["data"], manifest, split.test)
    report = evaluate(model, test_utts, len(manifest.classes), split="test")
    return report.accuracy


GRADCHECK_DEFAULTS = {"checks": None, "instances": 3, "seed": 0, "tol": gc.GRAD_TOL,
                      "list": None}


def cmd_gradcheck(args) -> int:
    cfg = resolve_config(args, GRADCHECK_DEFAULTS)
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
# parser
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON file of settings; flags override it")
    p.add_argument("--seed", type=int)


def _add_data(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", help="dataset directory (manifest + utterances)")
    p.add_argument("--protocol",
                   help="oulu | cuave | avletters | avletters2-fold-K | custom")
    p.add_argument("--train-subjects", dest="train_subjects",
                   help="custom protocol: comma-separated subject ids")
    p.add_argument("--val-subjects", dest="val_subjects")
    p.add_argument("--test-subjects", dest="test_subjects")


def _add_train_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lr", type=float)
    p.add_argument("--batch-utts", dest="batch_utts", type=int)
    p.add_argument("--patience", type=int)
    p.add_argument("--clip-threshold", dest="clip_threshold", type=float)
    p.add_argument("--max-epochs", dest="max_epochs", type=int)
    p.add_argument("--precision", choices=("f32", "f64"))
    p.add_argument("--track-train-accuracy", dest="track_train_accuracy",
                   action=BoolFlag)
    p.add_argument("--history", help="history JSON path (default <out>.history.json)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vsr",
        description="Two-stream visual speech recognition: synthetic data, "
                    "RBM pretraining, BLSTM training, evaluation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    _add_common(p)
    p.add_argument("--classes", type=int)
    p.add_argument("--subjects", type=int)
    p.add_argument("--reps", type=int)
    p.add_argument("--frames", type=int)
    p.add_argument("--height", type=int)
    p.add_argument("--width", type=int)
    p.add_argument("--roi", help=f"ROI preset, one of {sorted(ROI_DIMS)}")
    p.add_argument("--out", help="output dataset directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("pretrain", help="layer-wise RBM pretraining of the encoder")
    _add_common(p)
    _add_data(p)
    p.add_argument("--stream", choices=("raw", "diff"))
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--l2", type=float)
    p.add_argument("--encoder-sizes", dest="encoder_sizes",
                   help="comma-separated widths, e.g. 2000,1000,500")
    p.add_argument("--bottleneck", type=int)
    p.add_argument("--out", help="encoder checkpoint path")
    p.add_argument("--history")
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("train-stream", help="train one stream end to end")
    _add_common(p)
    _add_data(p)
    _add_train_common(p)
    p.add_argument("--stream", choices=("raw", "diff"))
    p.add_argument("--encoder", help="pretrained encoder checkpoint")
    p.add_argument("--hidden", type=int)
    p.add_argument("--encoder-sizes", dest="encoder_sizes")
    p.add_argument("--bottleneck", type=int)
    p.add_argument("--theta", type=int)
    p.add_argument("--out", help="model checkpoint path")
    p.set_defaults(func=cmd_train, stage="stream")

    p = sub.add_parser("train-fusion", help="fuse two trained streams and fine-tune")
    _add_common(p)
    _add_data(p)
    _add_train_common(p)
    p.add_argument("--raw", help="trained raw-stream checkpoint")
    p.add_argument("--diff", help="trained diff-stream checkpoint")
    p.add_argument("--hidden", type=int)
    p.add_argument("--freeze-streams", dest="freeze_streams", action=BoolFlag)
    p.add_argument("--out", help="model checkpoint path")
    p.set_defaults(func=cmd_train, stage="fusion")

    p = sub.add_parser("evaluate", help="score a checkpoint on a split")
    _add_common(p)
    _add_data(p)
    p.add_argument("--model", help="model checkpoint path")
    p.add_argument("--split", choices=("train", "val", "test"))
    p.add_argument("--format", choices=("text", "json", "csv"))
    p.add_argument("--per-subject", dest="per_subject", action=BoolFlag)
    p.add_argument("--confusion", action=BoolFlag)
    p.add_argument("--out", help="write the report here as well as printing it")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("repeat", help="repeat a pipeline over consecutive seeds")
    _add_common(p)
    _add_data(p)
    _add_train_common(p)
    p.add_argument("--pipeline", choices=("stream", "fusion"))
    p.add_argument("--runs", type=int)
    p.add_argument("--stream", choices=("raw", "diff"))
    p.add_argument("--encoder")
    p.add_argument("--hidden", type=int)
    p.add_argument("--encoder-sizes", dest="encoder_sizes")
    p.add_argument("--bottleneck", type=int)
    p.add_argument("--theta", type=int)
    p.add_argument("--raw", help="fusion pipeline: raw-stream checkpoint")
    p.add_argument("--diff", help="fusion pipeline: diff-stream checkpoint")
    p.add_argument("--fusion-lr", dest="fusion_lr", type=float)
    p.add_argument("--freeze-streams", dest="freeze_streams", action=BoolFlag)
    p.add_argument("--out", help="aggregate JSON path")
    p.set_defaults(func=cmd_repeat)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    _add_common(p)
    p.add_argument("--checks", help=f"comma-separated subset of {list(gc.CHECKS)}")
    p.add_argument("--instances", type=int)
    p.add_argument("--tol", type=float)
    p.add_argument("--list", action=BoolFlag, help="list available checks")
    p.set_defaults(func=cmd_gradcheck)

    for p in sub.choices.values():
        # resolve_config checks each config-file value against its flag
        p.set_defaults(flags={a.dest: a for a in p._actions})
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, TrainingDiverged) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
