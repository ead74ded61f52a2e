"""Acceptance suite: one test per shipping criterion.

Each test states a promise the package has to keep, from gradient fidelity
and bit-level determinism up to actually learning the bundled synthetic
benchmark end to end. Tolerances are pinned here and nowhere else; if one
of these fails, the release is broken.
"""

import time
from types import SimpleNamespace

import numpy as np
import pytest

import vsr.evaluation as evaluation
import vsr.training as training
from oracles import ref_delta
from test_data import (
    avletters2_manifest,
    avletters_manifest,
    cuave_manifest,
    oulu_manifest,
)
from vsr.data import LoadedUtterance, load_utterance, make_split, save_utterance
from vsr.evaluation import aggregate_runs, evaluate, render_report
from vsr.gradcheck import CHECKS, run_checks
from vsr.layers import DeltaWindow, append_deltas, delta_forward
from vsr.model import (
    CheckpointError,
    astype_model,
    build_stream,
    load_checkpoint,
    named_params,
    save_checkpoint,
)
from vsr.numerics import Rng
from vsr.rbm import PretrainConfig, rbm_init, train_rbm
from vsr.training import (
    Adam,
    SeqSample,
    TrainConfig,
    make_batches,
    samples_from_utterances,
    train_epoch,
    train_fusion,
    train_stream,
)


# ---------------------------------------------------------------------------
# shared benchmark runs for the learnability and fusion criteria
# ---------------------------------------------------------------------------

def _fit_stream(bench, kind, seed):
    cfg = TrainConfig.for_stream(max_epochs=50, seed=seed,
                                 track_train_accuracy=True)
    model = build_stream(input_dim=bench.manifest.frame_dim, classes=4,
                         hidden=64, rng=Rng(seed), stream_kind=kind)
    train = samples_from_utterances(bench.train, (kind,))
    val = samples_from_utterances(bench.val, (kind,))
    return train_stream(model, train, val, cfg)


@pytest.fixture(scope="module")
def benchmark_runs(bench):
    """Five full pipelines (raw, diff, fusion) on the synthetic benchmark."""
    started = time.perf_counter()
    fusion_train = samples_from_utterances(bench.train, ("raw", "diff"))
    fusion_val = samples_from_utterances(bench.val, ("raw", "diff"))
    runs = []
    for seed in range(5):
        raw_model, raw_hist = _fit_stream(bench, "raw", seed)
        diff_model, diff_hist = _fit_stream(bench, "diff", seed)
        fused, _ = train_fusion(raw_model, diff_model, fusion_train, fusion_val,
                                TrainConfig.for_fusion(max_epochs=50, seed=seed))
        runs.append(SimpleNamespace(
            raw_train=max(e["train_accuracy"] for e in raw_hist.epochs),
            diff_train=max(e["train_accuracy"] for e in diff_hist.epochs),
            raw_test=evaluate(raw_model, bench.test, 4).accuracy,
            fused_test=evaluate(fused, bench.test, 4).accuracy,
        ))
    return SimpleNamespace(runs=runs, elapsed=time.perf_counter() - started)


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_01_gradient_checks_for_layers_and_full_graphs():
    started = time.perf_counter()
    results = run_checks(None, instances=3, seed=0)
    elapsed = time.perf_counter() - started
    assert set(results) == set(CHECKS)
    for name, err in results.items():
        assert err < 1e-5, f"{name} max relative error {err:.3e}"
    assert elapsed < 60.0


def test_02_delta_features_match_a_brute_force_regression():
    win = DeltaWindow(2)
    rng = Rng(6)

    # constant in time: first and second derivative blocks exactly zero
    const = np.repeat(rng.normal((1, 5)), 7, axis=0)
    assert np.all(delta_forward(const, win) == 0.0)
    assert np.all(append_deltas(const, win)[:, 5:] == 0.0)

    # unit-slope ramp: interior first derivative is 1
    ramp = np.arange(9.0)[:, None] * np.ones((1, 3))
    interior = delta_forward(ramp, win)[2:-2]
    assert np.allclose(interior, 1.0, rtol=0, atol=1e-12)

    # random sequences against the plain-loop reference, edges included
    for theta in (1, 2, 3):
        w = DeltaWindow(theta)
        for t_len in (1, 2, 5, 9):
            seq = rng.normal((t_len, 4))
            assert np.allclose(delta_forward(seq, w), ref_delta(seq, theta),
                               rtol=0, atol=1e-12)


def test_03_rbm_pretraining_lowers_reconstruction_error():
    started = time.perf_counter()
    improved = 0
    for seed in range(10):
        data_rng = Rng(1000 + seed)
        basis = data_rng.normal((8, 64))
        x = data_rng.normal((500, 8)) @ basis + 0.1 * data_rng.normal((500, 64))
        x = ((x - x.mean(axis=0)) / x.std(axis=0)).astype(np.float32)
        rbm = rbm_init(64, 32, "rectified", Rng(seed))
        errors = train_rbm(rbm, x, PretrainConfig(seed=seed), Rng(seed))
        assert len(errors) == 20
        improved += errors[-1] < errors[0]
    assert improved >= 9, f"reconstruction error fell in only {improved}/10 seeds"
    assert time.perf_counter() - started < 120.0


def test_04_streams_learn_the_synthetic_benchmark(benchmark_runs):
    run = benchmark_runs.runs[0]
    assert run.raw_train >= 0.99
    assert run.raw_test >= 0.70
    assert run.diff_train >= 0.90
    assert benchmark_runs.elapsed < 15 * 60.0


def test_05_fusion_keeps_pace_with_the_raw_stream(benchmark_runs):
    raw_mean = np.mean([r.raw_test for r in benchmark_runs.runs])
    fused_mean = np.mean([r.fused_test for r in benchmark_runs.runs])
    assert fused_mean >= raw_mean - 0.02, \
        f"fused mean {fused_mean:.3f} vs raw mean {raw_mean:.3f}"


def test_06_protocol_split_sizes_are_exact():
    oulu = make_split(oulu_manifest(), "oulu", Rng(0))
    assert (len(oulu.train), len(oulu.val), len(oulu.test)) == (1050, 150, 360)

    cuave = make_split(cuave_manifest(), "cuave", Rng(0))
    assert (len(cuave.train), len(cuave.val), len(cuave.test)) == (590, 300, 900)

    avl = make_split(avletters_manifest(), "avletters", Rng(0))
    assert (len(avl.train), len(avl.val), len(avl.test)) == (520, 0, 260)

    for fold in range(5):
        split = make_split(avletters2_manifest(), f"avletters2-fold-{fold}", Rng(0))
        assert (len(split.train), len(split.val), len(split.test)) == (546, 182, 182)


def test_07_padding_frames_contribute_zero_gradient(bench):
    # mixed-length 64-bit batches, trained once per padding choice: any
    # gradient leaking out of a padding frame would split the twins apart
    lengths = [5, 9, 14, 20, 7, 12, 20, 3]
    samples = [SeqSample(streams={"raw": training.stream_features(
                   u.frames[:t_len], "raw", np.float64)}, label=u.label)
               for u, t_len in zip(bench.train[:8], lengths)]
    outcomes = []
    for pad_to in (None, 31):
        model = build_stream(input_dim=bench.manifest.frame_dim, classes=4,
                             hidden=5, rng=Rng(3), encoder_sizes=(24, 12),
                             bottleneck=6, dtype=np.float64)
        cfg = TrainConfig.for_stream(lr=0.003, precision="f64")
        batches = make_batches(samples, 4, Rng(10), pad_to=pad_to)
        loss = train_epoch(model, batches, Adam(), cfg)
        outcomes.append((loss, {n: p.copy() for n, p in named_params(model).items()}))
    assert outcomes[0][0] == outcomes[1][0]
    for name in outcomes[0][1]:
        assert np.array_equal(outcomes[0][1][name], outcomes[1][1][name]), name


def test_08_determinism_and_byte_level_round_trips(bench, tmp_path):
    def run_once():
        model = build_stream(input_dim=bench.manifest.frame_dim, classes=4,
                             hidden=8, rng=Rng(13), encoder_sizes=(32, 16),
                             bottleneck=8)
        train = samples_from_utterances(bench.train[:10], ("raw",))
        val = samples_from_utterances(bench.val[:5], ("raw",))
        cfg = TrainConfig.for_stream(batch_utts=5, max_epochs=3, seed=13)
        model, _ = train_stream(model, train, val, cfg)
        return model

    # identical seeds and config: byte-identical checkpoints and reports
    first, second = run_once(), run_once()
    path_a, path_b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(path_a, first)
    save_checkpoint(path_b, second)
    assert path_a.read_bytes() == path_b.read_bytes()
    report_a = render_report(evaluate(first, bench.test, 4, split="test"), "json")
    report_b = render_report(evaluate(second, bench.test, 4, split="test"), "json")
    assert report_a == report_b

    # checkpoint write -> read -> write round trip
    path_c = tmp_path / "c.ckpt"
    save_checkpoint(path_c, load_checkpoint(path_a))
    assert path_c.read_bytes() == path_a.read_bytes()

    # utterance container write -> read -> write round trip
    utt_path = bench.root / bench.split.test[0]
    original = utt_path.read_bytes()
    copy_path = tmp_path / "copy.vsru"
    save_utterance(copy_path, load_utterance(utt_path))
    assert copy_path.read_bytes() == original

    # corrupt files fail loudly, with the cause named
    ckpt_bytes = path_a.read_bytes()
    (tmp_path / "trunc.ckpt").write_bytes(ckpt_bytes[: len(ckpt_bytes) // 2])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(tmp_path / "trunc.ckpt")
    (tmp_path / "magic.ckpt").write_bytes(b"XXXX" + ckpt_bytes[4:])
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(tmp_path / "magic.ckpt")
    (tmp_path / "short.vsru").write_bytes(original[:-1])
    with pytest.raises(ValueError, match="file has"):
        load_utterance(tmp_path / "short.vsru")
    (tmp_path / "junk.vsru").write_bytes(b"JUNK" + original[4:])
    with pytest.raises(ValueError, match="magic"):
        load_utterance(tmp_path / "junk.vsru")


def test_09_metrics_match_hand_computed_values(monkeypatch):
    rng = Rng(2)
    utts = [LoadedUtterance(path=f"u{i}.vsru", subject=subject, label=label,
                            frames=rng.integers(256, (3, 4, 4)).astype(np.uint8))
            for i, (label, subject) in enumerate(zip([0, 0, 1],
                                                     ["sa", "sa", "sb"]))]
    preds = [0, 1, 1]

    def scripted(model, chunk):
        rows = [np.zeros((1, 2)) for _ in chunk]
        for row in rows:
            row[0, preds.pop(0)] = 10.0
        return rows

    monkeypatch.setattr(evaluation, "model_logits", scripted)
    model = build_stream(input_dim=16, classes=2, hidden=2, rng=Rng(0),
                         encoder_sizes=(4,), bottleneck=2)
    report = evaluate(model, utts, 2)
    assert abs(report.accuracy - 2 / 3) < 1e-9
    assert np.array_equal(report.confusion, [[1, 1], [0, 1]])
    assert abs(report.per_subject["sa"]["accuracy"] - 0.5) < 1e-9
    assert abs(report.per_subject["sb"]["accuracy"] - 1.0) < 1e-9

    agg = aggregate_runs([0.90, 0.94], [0, 1])
    assert abs(agg.mean - 0.92) < 1e-9
    assert abs(agg.std - 0.028284271247461905) < 1e-9
    assert abs(agg.max - 0.94) < 1e-9


def test_10_early_stopping_restores_the_best_weights(monkeypatch, tmp_path):
    trace = [0.50, 0.60, 0.60, 0.55, 0.58, 0.59, 0.57, 0.56]
    queue = list(trace)
    snapshots = {}

    def scripted(model, samples):
        snapshots[len(snapshots) + 1] = {name: value.copy()
                                         for name, value in named_params(model).items()}
        return queue.pop(0)

    monkeypatch.setattr(training, "_validation_accuracy", scripted)
    rng = Rng(4)
    samples = [SeqSample(streams={"raw": rng.normal((4, 6)).astype(np.float64)},
                         label=i % 3) for i in range(6)]
    model = build_stream(input_dim=6, classes=3, hidden=3, rng=Rng(4),
                         encoder_sizes=(5,), bottleneck=2, dtype=np.float64)
    cfg = TrainConfig.for_stream(lr=0.01, precision="f64", patience=5,
                                 max_epochs=50, batch_utts=3, seed=4)
    model, history = train_stream(model, samples, samples, cfg)

    assert len(history.epochs) == 8
    assert history.best_epoch == 2
    assert history.stop_reason == "early-stop"
    assert history.best_val_accuracy == 0.60

    # final weights are the post-epoch-2 snapshot, verified at the byte level
    twin = astype_model(model, np.float64)
    for name, value in named_params(twin).items():
        value[...] = snapshots[2][name]
    path_got, path_want = tmp_path / "got.ckpt", tmp_path / "want.ckpt"
    save_checkpoint(path_got, model)
    save_checkpoint(path_want, twin)
    assert path_got.read_bytes() == path_want.read_bytes()
