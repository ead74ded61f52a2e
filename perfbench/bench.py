"""Workload set-up, timed jobs, correctness checks and the result line.

Every workload follows one shape: ``setup`` builds everything a job needs
from the seed (synthesis, loading, preprocessing, model build, checkpoint
load); a job is a fixed unit of user work, timed from outside with
``time.perf_counter``; jobs repeat until the run's seconds are spent.
Program calls go through module attributes (``vsr.training.train_stream``)
so a traced job sees them; the benchmark's own checks use the originals
captured at import and stay out of the trace.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

import vsr.data
import vsr.evaluation
import vsr.model
import vsr.rbm
import vsr.training
from vsr.numerics import NonFiniteError, Rng
from vsr.rbm import PretrainConfig
from vsr.training import TrainConfig, TrainingDiverged

from spans import Tracer

# originals for the benchmark's own checks, never traced
_save_checkpoint = vsr.model.save_checkpoint
_load_checkpoint = vsr.model.load_checkpoint
_load_utterance = vsr.data.load_utterance


@dataclass(frozen=True)
class Spec:
    height: int
    width: int
    classes: int
    subjects: int          # the last subject validates, the rest train
    reps: int
    t_min: int             # utterance lengths spread evenly over [t_min, t_max]
    t_max: int
    encoder_sizes: tuple[int, ...]
    bottleneck: int
    hidden: int
    epochs: int            # training epochs per job; patience never ends a job early
    pretrain_epochs: int
    batch_utts: int
    min_val_accuracy: float  # quality floor for the last epoch's validation accuracy


_PAPER_ENCODER = (2000, 1000, 500)
_STREAM = Spec(height=26, width=44, classes=4, subjects=5, reps=5, t_min=20, t_max=20,
               encoder_sizes=_PAPER_ENCODER, bottleneck=50, hidden=64, epochs=4,
               pretrain_epochs=1, batch_utts=10, min_val_accuracy=0.85)
_PAPER = Spec(height=26, width=44, classes=10, subjects=5, reps=1, t_min=20, t_max=40,
              encoder_sizes=_PAPER_ENCODER, bottleneck=50, hidden=250, epochs=3,
              pretrain_epochs=0, batch_utts=10, min_val_accuracy=0.0)
_TOY_STREAM = Spec(height=6, width=8, classes=2, subjects=3, reps=3, t_min=6, t_max=6,
                   encoder_sizes=(16,), bottleneck=4, hidden=4, epochs=2,
                   pretrain_epochs=1, batch_utts=2, min_val_accuracy=0.0)
_TOY_PAPER = Spec(height=6, width=8, classes=2, subjects=3, reps=2, t_min=4, t_max=8,
                  encoder_sizes=(16,), bottleneck=4, hidden=4, epochs=2,
                  pretrain_epochs=0, batch_utts=2, min_val_accuracy=0.0)

SPECS = {
    False: {"stream-bench": _STREAM, "fusion-paper": _PAPER, "score-paper": _PAPER},
    True: {"stream-bench": _TOY_STREAM, "fusion-paper": _TOY_PAPER,
           "score-paper": _TOY_PAPER},
}

# fixed seeds for the model weights the workloads start from
RAW_INIT_SEED, DIFF_INIT_SEED, FUSION_INIT_SEED = 101, 202, 303


# ---------------------------------------------------------------------------
# setup
# ---------------------------------------------------------------------------

def _corpus_digest(root: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(root)):
        h.update(name.encode())
        with open(os.path.join(root, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _synthesize(spec: Spec, seed: int, root: str):
    """Write the seeded corpus; lengths are a fixed spread, assigned by seed."""
    manifest = vsr.data.synth_generate(spec.classes, spec.subjects, spec.reps, spec.t_max,
                                       spec.height, spec.width, seed, root)
    if spec.t_min != spec.t_max:
        n = len(manifest.records)
        spread = [spec.t_min + round((spec.t_max - spec.t_min) * i / (n - 1))
                  for i in range(n)]
        order = Rng(seed).permutation(n)
        for rec, k in zip(manifest.records, order):
            path = os.path.join(root, rec.path)
            vsr.data.save_utterance(path, _load_utterance(path)[:spread[k]])


def _split(manifest, spec: Spec):
    val_subject = f"s{spec.subjects - 1:02d}"
    train = [r.path for r in manifest.records if r.subject != val_subject]
    val = [r.path for r in manifest.records if r.subject == val_subject]
    return train, val


def setup(workload: str, spec: Spec, seed: int, work: str):
    """Everything a job needs: synthesis, loading, preprocessing, model build."""
    root = os.path.join(work, "corpus")
    _synthesize(spec, seed, root)
    manifest = vsr.data.load_manifest(root)
    train_paths, val_paths = _split(manifest, spec)
    st = SimpleNamespace(root=root, manifest=manifest, train_paths=train_paths,
                         val_paths=val_paths, work=work)
    dim = manifest.frame_dim
    shape = dict(encoder_sizes=spec.encoder_sizes, bottleneck=spec.bottleneck)
    if workload == "stream-bench":
        kinds = ("raw",)
    else:
        kinds = ("raw", "diff")
        raw = vsr.model.build_stream(dim, spec.classes, spec.hidden, Rng(RAW_INIT_SEED),
                                     "raw", **shape)
        diff = vsr.model.build_stream(dim, spec.classes, spec.hidden, Rng(DIFF_INIT_SEED),
                                      "diff", **shape)
    if workload == "score-paper":
        fusion = vsr.model.build_fusion(raw, diff, spec.hidden, Rng(FUSION_INIT_SEED))
        st.checkpoint = os.path.join(work, "fusion.vsrm")
        vsr.model.save_checkpoint(st.checkpoint, fusion)
        st.model = vsr.model.load_checkpoint(st.checkpoint,
                                             expect={"classes": str(spec.classes)})
        return st
    if workload == "fusion-paper":
        st.raw, st.diff = raw, diff
    train = vsr.data.load_utterances(root, manifest, train_paths)
    val = vsr.data.load_utterances(root, manifest, val_paths)
    st.train = vsr.training.samples_from_utterances(train, kinds)
    st.val = vsr.training.samples_from_utterances(val, kinds)
    if workload == "stream-bench":
        st.frames = np.concatenate([s.streams["raw"] for s in st.train])
    return st


# ---------------------------------------------------------------------------
# jobs
# ---------------------------------------------------------------------------

def _roundtrip_identical(path: str, scratch: str) -> bool:
    """save -> load -> save reproduces the checkpoint byte for byte."""
    _save_checkpoint(scratch, _load_checkpoint(path))
    with open(path, "rb") as a, open(scratch, "rb") as b:
        return a.read() == b.read()


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _score(st, model, n_classes: int):
    """Read every container and label it; returns (report, utterance count, frames)."""
    utts = vsr.data.load_utterances(st.root, st.manifest)
    report = vsr.evaluation.evaluate(model, utts, n_classes)
    return report, len(utts), sum(u.frames.shape[0] for u in utts)


def _train_job(workload: str, spec: Spec, seed: int, st) -> dict:
    """Pretrain (stream-bench only), fit, save, then score every container."""
    clock = time.perf_counter
    out = {"checks": {}}
    t0 = clock()
    if workload == "stream-bench":
        sizes = [st.manifest.frame_dim, *spec.encoder_sizes, spec.bottleneck]
        layers, errors = vsr.rbm.pretrain_stack(
            sizes, st.frames, PretrainConfig(epochs=spec.pretrain_epochs, seed=seed))
        out["pretrain_s"] = clock() - t0
        out["checks"]["rbm_errors_finite"] = all(math.isfinite(e) for h in errors for e in h)
        model = vsr.model.build_stream(st.manifest.frame_dim, spec.classes, spec.hidden,
                                       Rng(RAW_INIT_SEED), "raw", encoder_init=layers,
                                       encoder_sizes=spec.encoder_sizes,
                                       bottleneck=spec.bottleneck)
        cfg = TrainConfig.for_stream(max_epochs=spec.epochs, patience=spec.epochs,
                                     batch_utts=spec.batch_utts, seed=seed)
        t_fit = clock()
        model, history = vsr.training.train_stream(model, st.train, st.val, cfg)
    else:
        cfg = TrainConfig.for_fusion(max_epochs=spec.epochs, patience=spec.epochs,
                                     batch_utts=spec.batch_utts, seed=seed)
        t_fit = clock()
        model, history = vsr.training.train_fusion(st.raw, st.diff, st.train, st.val, cfg)
    out["fit_s"] = clock() - t_fit
    ckpt = os.path.join(st.work, "trained.vsrm")
    vsr.model.save_checkpoint(ckpt, model)
    timed = clock() - t0
    out["checks"]["checkpoint_roundtrip"] = _roundtrip_identical(
        ckpt, os.path.join(st.work, "trained.again.vsrm"))
    t_eval = clock()
    report, out["eval_utts"], _ = _score(st, model, spec.classes)
    out["eval_s"] = clock() - t_eval
    out["job_s"] = timed + out["eval_s"]

    losses = [e["train_loss"] for e in history.epochs]
    out["epoch_s"] = [e["wall_time"] for e in history.epochs]
    out["frames"] = len(history.epochs) * sum(s.streams["raw"].shape[0] for s in st.train)
    out["train_loss_final"] = losses[-1]
    out["val_accuracy_final"] = history.epochs[-1]["val_accuracy"]
    out["checks"]["all_epochs_ran"] = len(history.epochs) == spec.epochs
    out["checks"]["loss_finite_and_falling"] = (all(math.isfinite(x) for x in losses)
                                                and losses[-1] < losses[0])
    out["checks"]["val_accuracy_floor"] = out["val_accuracy_final"] >= spec.min_val_accuracy
    out["checks"]["confusion_total"] = int(report.confusion.sum()) == out["eval_utts"]
    out["digest"] = _digest(ckpt) + json.dumps([losses, report.to_dict()], sort_keys=True)
    return out


def _score_job(spec: Spec, st) -> dict:
    """One scoring pass: read every container, preprocess, label."""
    t0 = time.perf_counter()
    report, n_utts, n_frames = _score(st, st.model, spec.classes)
    job_s = time.perf_counter() - t0
    return {"job_s": job_s, "epoch_s": [job_s], "fit_s": job_s, "frames": n_frames,
            "eval_s": job_s, "eval_utts": n_utts,
            "checks": {"confusion_total": int(report.confusion.sum()) == n_utts
                       == len(st.manifest.records)},
            "digest": json.dumps(report.to_dict(), sort_keys=True)}


def _planned_ops(workload: str, spec: Spec, st) -> int:
    """Gradient steps plus scored utterances in one job."""
    steps = 0
    if workload != "score-paper":
        steps = spec.epochs * math.ceil(len(st.train_paths) / spec.batch_utts)
    return steps + len(st.manifest.records)


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------

def machine_facts(blas_threads: int) -> dict:
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: deps.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        pass
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "blas_threads": blas_threads, "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)), "machine": platform.machine()}


def run_workload(workload: str, seed: int, seconds: float, trace: bool, toy: bool,
                 blas_threads: int, benchmark_json: str, work_root: str,
                 trace_root: str, setups: int) -> int:
    with open(benchmark_json, encoding="utf-8") as fh:
        declared = json.load(fh)
    spec = SPECS[toy][workload]
    work = os.path.join(work_root, f"{workload}-s{seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        return _run(workload, spec, seed, seconds, trace, blas_threads, declared, work,
                    trace_root, setups)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(workload, spec, seed, seconds, trace, blas_threads, declared, work,
         trace_root, setups) -> int:
    tracer = Tracer() if trace else None
    setup_s, digests = [], set()
    if tracer:
        tracer.install()
    for _ in range(setups):
        st = None  # let the previous setup's arrays go before building again
        t0 = time.perf_counter()
        st = setup(workload, spec, seed, work)
        setup_s.append(time.perf_counter() - t0)
        digests.add(_corpus_digest(st.root))
    if tracer:
        tracer.uninstall()
    checks = {"corpus_identical_across_setups": len(digests) == 1}
    if workload == "score-paper":
        checks["checkpoint_roundtrip"] = _roundtrip_identical(
            st.checkpoint, os.path.join(work, "fusion.again.vsrm"))

    # closed loop, one caller; in a traced run odd jobs are traced
    jobs, traced, untraced = [], [], []
    attempted = failed = 0
    started = time.perf_counter()
    for index in itertools.count():
        on = tracer is not None and index % 2 == 1
        if on:
            tracer.phase = index
            tracer.install()
        ops = _planned_ops(workload, spec, st)
        attempted += ops
        try:
            job = (_score_job(spec, st) if workload == "score-paper"
                   else _train_job(workload, spec, seed, st))
        except (TrainingDiverged, NonFiniteError, ValueError) as exc:
            print(f"job {index} failed: {exc}", file=sys.stderr)
            failed += ops
            job = None
        finally:
            if on:
                tracer.uninstall()
        if job is not None:
            jobs.append(job)
            (traced if on else untraced).append(job["job_s"])
        if time.perf_counter() - started >= seconds and (
                tracer is None or (traced and untraced) or not jobs):
            break
    if not jobs:
        print("error: every job failed", file=sys.stderr)
        return 1

    for job in jobs:
        for name, ok in job["checks"].items():
            checks[name] = checks.get(name, True) and ok
    checks["jobs_identical"] = len({j["digest"] for j in jobs}) == 1

    median = statistics.median
    e2e = {
        "setup_s": (median(setup_s), f"median of {len(setup_s)} setups"),
        "epoch_s_p50": (median([e for j in jobs for e in j["epoch_s"]]),
                        f"median of {sum(len(j['epoch_s']) for j in jobs)} "
                        + ("scoring passes" if workload == "score-paper"
                           else f"epochs, {spec.epochs} per job")),
        "frames_per_s": (sum(j["frames"] for j in jobs) / sum(j["fit_s"] for j in jobs),
                         f"total over {len(jobs)} jobs"),
        "job_s_p50": (median([j["job_s"] for j in jobs]), f"median of {len(jobs)} jobs"),
        "eval_utts_per_s": (sum(j["eval_utts"] for j in jobs) / sum(j["eval_s"] for j in jobs),
                            f"total over {len(jobs)} jobs, {jobs[0]['eval_utts']} utts each"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "this process"),
    }
    info = {}
    if "pretrain_s" in jobs[0]:
        info["pretrain_frames_per_s"] = (
            median([spec.pretrain_epochs * len(st.frames) / j["pretrain_s"] for j in jobs]),
            "frames/s", f"median of {len(jobs)} jobs, {spec.pretrain_epochs} CD-1 epoch(s)")
    for name in ("train_loss_final", "val_accuracy_final"):
        if name in jobs[0]:
            info[name] = (jobs[0][name], "", "deterministic for the seed")
    info["failed_frac"] = (failed / attempted, "frac",
                           f"{failed} of {attempted} gradient steps and scored utterances")

    facts = machine_facts(blas_threads)
    corpus = next(iter(digests))
    units = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    print(f"workload {workload}  seed {seed}  trace {int(trace)}  jobs {len(jobs)}")
    print("machine " + json.dumps(facts, sort_keys=True))
    print(f"corpus sha256 {corpus}  ({len(st.manifest.records)} utterances)")
    rows = [(n, v, units[n], note) for n, (v, note) in e2e.items()]
    rows += [(n, v, u, note) for n, (v, u, note) in info.items()]
    for name, value, unit, note in rows:
        print(f"  {name:<22} {value:12.6g} {unit:<9} {note}")
    for name, ok in checks.items():
        print(f"  check {name}: {'ok' if ok else 'FAILED'}")

    if tracer:
        values = tracer.per_layer(setups, len(traced),
                                  median(traced) / median(untraced) - 1.0)
        named = declared["per_layer"]
        path = os.path.join(trace_root, f"trace-{workload}-s{seed}.json")
        tracer.dump(path, {"workload": workload, "seed": seed, "machine": facts,
                           "corpus_sha256": corpus, "setups": setups,
                           "traced_jobs": len(traced)})
        print(f"spans written to {os.path.relpath(path)}")
        if tracer.missing:
            print("not traced (absent from the program): " + ", ".join(tracer.missing))
    else:
        values = {n: v for n, (v, _) in e2e.items()}
        named = declared["end_to_end"]
    result = {"correct": all(checks.values()), "attempted": attempted, "failed": failed,
              "metrics": {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
                          for m in named}}
    print(json.dumps(result))
    return 0
