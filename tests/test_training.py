import hashlib
import json
import weakref

import numpy as np
import pytest

import vsr.model
import vsr.training as training
from vsr.evaluation import EvalReport
from vsr.model import (EncoderStack, build_fusion, build_stream, clip_group,
                       load_checkpoint, named_params, save_checkpoint)
from vsr.numerics import Adam, Rng
from vsr.training import (
    SeqSample,
    TrainConfig,
    TrainingDiverged,
    make_batches,
    samples_from_utterances,
    save_history,
    train_epoch,
    train_fusion,
    train_stream,
)


def tiny_model(classes=3, kind="raw", seed=0, dtype=np.float32, input_dim=6):
    return build_stream(input_dim=input_dim, classes=classes, hidden=3, rng=Rng(seed),
                        stream_kind=kind, encoder_sizes=(5, 4), bottleneck=2,
                        dtype=dtype)


def toy_samples(n, classes=3, kind="raw", t_range=(3, 7), dim=6, seed=0,
                dtype=np.float32, kinds=None):
    """Random, linearly-tinted sequences so each class is learnable."""
    rng = Rng(seed)
    kinds = kinds or (kind,)
    samples = []
    for i in range(n):
        label = i % classes
        t_len = int(rng.integers(t_range[1] - t_range[0] + 1)) + t_range[0]
        streams = {}
        for k in kinds:
            base = rng.normal((t_len, dim))
            base[:, label % dim] += 2.0  # class-dependent offset
            streams[k] = base.astype(dtype)
        samples.append(SeqSample(streams=streams, label=label))
    return samples


# ---------------------------------------------------------------------------
# configs
# ---------------------------------------------------------------------------

def test_config_stage_defaults():
    s = TrainConfig.for_stream()
    f = TrainConfig.for_fusion()
    assert s.lr == 0.0003
    assert f.lr == 0.0001
    for cfg in (s, f):
        assert cfg.batch_utts == 10
        assert cfg.patience == 5
        assert cfg.clip_threshold == 5.0
        assert cfg.max_epochs == 200


def test_config_validation():
    # NaN fails every bound when the config is built, not at the first step
    for bad in (dict(lr=-0.1), dict(lr=np.nan), dict(clip_threshold=0.0),
                dict(clip_threshold=-1.0), dict(clip_threshold=np.nan)):
        with pytest.raises(ValueError, match="bad training config"):
            TrainConfig(**{"lr": 0.1, **bad})
    assert TrainConfig(lr=0.1, clip_threshold=np.inf).clip_threshold == np.inf


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------

def test_make_batches_sizes_and_padding():
    # a batch holds the samples' own arrays, one label each; only mask pads
    samples = toy_samples(25, t_range=(3, 7))
    batches = make_batches(samples, 10, Rng(0))
    assert [len(b.lengths) for b in batches] == [10, 10, 5]
    own = {id(s.streams["raw"]): s for s in samples}
    for b in batches:
        assert b.mask.shape == (len(b.lengths), max(b.lengths))
        assert b.labels.shape == (len(b.lengths),)
        for i, (seq, n) in enumerate(zip(b.streams["raw"], b.lengths)):
            assert own[id(seq)].label == b.labels[i] and seq.shape[0] == n
            assert np.all(b.mask[i, :n] == 1)
            assert np.all(b.mask[i, n:] == 0)
    assert sorted(id(seq) for b in batches for seq in b.streams["raw"]) == sorted(own)


def test_make_batches_shuffle_is_seeded():
    samples = toy_samples(12)
    a = make_batches(samples, 4, Rng(5))
    b = make_batches(samples, 4, Rng(5))
    c = make_batches(samples, 4, Rng(6))
    flat = lambda bs: [tuple(b.lengths) + tuple(b.labels) for b in bs]
    assert flat(a) == flat(b)
    assert flat(a) != flat(c)


def test_make_batches_rejects_empty():
    with pytest.raises(ValueError):
        make_batches([], 4, Rng(0))


def test_samples_from_utterances_builds_requested_streams(bench):
    samples = samples_from_utterances(bench.test[:3], ("raw", "diff"))
    assert set(samples[0].streams) == {"raw", "diff"}
    assert samples[0].streams["raw"].shape == (20, 26 * 44)
    assert samples[0].streams["raw"].dtype == np.float32
    assert [s.label for s in samples] == [u.label for u in bench.test[:3]]


# ---------------------------------------------------------------------------
# the loss entering training
# ---------------------------------------------------------------------------

def test_initial_loss_is_near_log_k():
    classes = 5
    model = tiny_model(classes=classes)
    samples = toy_samples(20, classes=classes)
    batches = make_batches(samples, 10, Rng(2))
    cfg = TrainConfig.for_stream(lr=0.0)
    loss = train_epoch(model, batches, Adam(), cfg)
    assert abs(loss - np.log(classes)) < 0.1 * np.log(classes)


def test_train_epoch_zero_lr_keeps_parameters():
    model = tiny_model()
    before = {n: p.copy() for n, p in named_params(model).items()}
    samples = toy_samples(12)
    cfg = TrainConfig.for_stream(lr=0.0)
    train_epoch(model, make_batches(samples, 6, Rng(3)), Adam(), cfg)
    after = named_params(model)
    for name in before:
        assert np.array_equal(before[name], after[name]), name


def test_train_epoch_loss_decreases_over_epochs():
    model = tiny_model()
    samples = toy_samples(24)
    cfg = TrainConfig.for_stream(lr=0.01, clip_threshold=5.0)
    opt = Adam()
    losses = [train_epoch(model, make_batches(samples, 8, Rng(e)), opt, cfg)
              for e in range(15)]
    assert losses[-1] < 0.5 * losses[0]


def test_train_epoch_clip_threshold_infinite_matches_huge():
    samples = toy_samples(10)
    results = []
    for threshold in (np.inf, 1e18):
        model = tiny_model(seed=4)
        cfg = TrainConfig.for_stream(lr=0.01, clip_threshold=threshold)
        train_epoch(model, make_batches(samples, 5, Rng(7)), Adam(), cfg)
        results.append(named_params(model))
    for name in results[0]:
        assert np.array_equal(results[0][name], results[1][name]), name


def test_train_epoch_refuses_a_non_finite_loss():
    """Finite f32 logits of +-3e38 overflow the softmax's max shift, so the loss is inf."""
    model = tiny_model()
    model.head.b[:2] = [3e38, -3e38]
    with (np.errstate(over="ignore"),
          pytest.raises(TrainingDiverged, match="training loss became non-finite in batch 0")):
        train_epoch(model, make_batches(toy_samples(6), 6, Rng(8)), Adam(),
                    TrainConfig.for_stream())


def test_train_epoch_diverges_loudly():
    model = tiny_model()
    model.head.w[0, 0] = np.nan
    samples = toy_samples(6)
    cfg = TrainConfig.for_stream()
    with pytest.raises(TrainingDiverged):
        train_epoch(model, make_batches(samples, 6, Rng(8)), Adam(), cfg)


@pytest.mark.parametrize("clipped", [False, True])
def test_train_epoch_non_finite_gradient_names_the_batch(monkeypatch, clipped):
    """A NaN gradient with a finite loss stops training before the step,
    whether the clip (recurrent weights) or Adam (the head) finds it."""
    real = training._forward_backward
    calls = []

    def poisoned(model, batch, freeze_streams):
        loss, grads, n = real(model, batch, freeze_streams)
        calls.append(None)
        if len(calls) == 2:
            name = clip_group(grads)[0] if clipped else "head.b"
            grads[name][...] = np.nan
        return loss, grads, n

    monkeypatch.setattr(training, "_forward_backward", poisoned)
    model = tiny_model()
    samples = toy_samples(6)
    cfg = TrainConfig.for_stream(clip_threshold=np.inf)
    opt = Adam()
    with pytest.raises(TrainingDiverged, match="non-finite gradient in batch 1"):
        train_epoch(model, make_batches(samples, 3, Rng(8)), opt, cfg)
    assert {st.t for st in opt.state.values()} == {1}


# SHA-256 of the checkpoint and the epoch's mean loss after one epoch of
# mixed-length batches, recorded before the sequence layers ran on
# concatenated frames, the f64 digests again when checkpoints came to keep
# float64 (the losses held); every product here is small enough for
# OpenBLAS's single-threaded path, so the bits do not depend on the thread count
TRAINED = {
    ("stream", "f32"): ("0c045b9406162d57e6998ac0c4d51dedaa01bd0adee96d6d298e3f90bd755e53",
                        "0x1.0d801c4444444p+0"),
    ("stream", "f64"): ("28dfc8e7dd801d0f9b689c306bd685360285c370399d937accbdd800a49ceaa1",
                        "0x1.0d801b6a3734ep+0"),
    ("fusion", "f32"): ("8697751e6b6b25b434124ab8bc6b3760fca6d916baa6d19cb3d2fb38d370133a",
                        "0x1.152c73bbbbbbcp+0"),
    ("fusion", "f64"): ("ca06e73ab27bcda81b94b047978a92dc12ce214a84e4fda109a824732e6cdd81",
                        "0x1.152c737531187p+0"),
}


@pytest.mark.parametrize("precision", ["f32", "f64"])
@pytest.mark.parametrize("kind", ["stream", "fusion"])
def test_one_epoch_of_training_keeps_its_bits(tmp_path, kind, precision):
    dtype = {"f32": np.float32, "f64": np.float64}[precision]
    cfg = TrainConfig.for_stream(lr=0.003)
    samples = toy_samples(8, dtype=dtype, t_range=(1, 7), kinds=("raw", "diff"))
    model = tiny_model(seed=9, dtype=dtype)
    if kind == "fusion":
        cfg = TrainConfig.for_fusion(lr=0.003)
        model = build_fusion(model, tiny_model(seed=10, kind="diff", dtype=dtype),
                             hidden=2, rng=Rng(11), dtype=dtype)
    batches = make_batches(samples, 3, Rng(12))
    assert all(len(set(b.lengths)) > 1 for b in batches)
    loss = train_epoch(model, batches, Adam(), cfg)
    save_checkpoint(tmp_path / "m.ckpt", model)
    digest = hashlib.sha256((tmp_path / "m.ckpt").read_bytes()).hexdigest()
    assert (digest, loss.hex()) == TRAINED[kind, precision]


def test_a_float64_stream_keeps_its_trained_bits_through_its_checkpoint(tmp_path):
    """The stream checkpoint carries the first stage's weights to the fusion
    stage; a float64 fit reloads as the float64 weights it trained to."""
    model = tiny_model(seed=9, dtype=np.float64)
    samples = toy_samples(9, dtype=np.float64)
    train_stream(model, samples[:6], samples[6:], TrainConfig.for_stream(max_epochs=2))
    save_checkpoint(tmp_path / "a.ckpt", model)
    again = load_checkpoint(tmp_path / "a.ckpt")
    save_checkpoint(tmp_path / "b.ckpt", again)
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()
    loaded = named_params(again)
    for name, p in named_params(model).items():
        assert loaded[name].dtype == np.float64, name
        assert np.array_equal(loaded[name], p), name


def test_gradients_flow_only_through_valid_frames():
    # a mixed-length batch's loss and gradients are its sequences' own,
    # each scored alone and weighted by its frame count
    model = tiny_model(dtype=np.float64)
    samples = toy_samples(3, dtype=np.float64, t_range=(3, 5))
    batch = make_batches(samples, 3, Rng(11))[0]
    assert len(set(batch.lengths)) > 1
    loss_batch, grads, n_frames = training._forward_backward(model, batch, False)
    assert n_frames == sum(batch.lengths)

    want_loss, want_grads = 0.0, {}
    for s in samples:
        loss, g, n = training._forward_backward(model, make_batches([s], 1, Rng(0))[0], False)
        want_loss += loss * n / n_frames
        for name, arr in g.items():
            want_grads[name] = want_grads.get(name, 0.0) + arr * (n / n_frames)
    assert loss_batch == pytest.approx(want_loss, abs=1e-12)
    assert set(grads) == set(want_grads)
    for name in grads:
        assert np.allclose(grads[name], want_grads[name], rtol=0, atol=1e-10), name


# ---------------------------------------------------------------------------
# fit loop / early stopping
# ---------------------------------------------------------------------------

def run_stub_fit(trace, max_epochs=50, patience=5, seed=0):
    """Drive _fit with a scripted validation accuracy sequence."""
    model = tiny_model(seed=seed)
    samples = toy_samples(8)
    val = toy_samples(4, seed=1)
    cfg = TrainConfig.for_stream(lr=0.001, max_epochs=max_epochs,
                                 patience=patience, seed=seed)
    calls = {"n": 0}
    snapshots = {}
    real_accuracy = training._validation_accuracy

    # with track_train_accuracy off, the fit loop scores only the
    # validation set: one call per epoch, in epoch order
    def scripted(m, s):
        calls["n"] += 1
        snapshots[calls["n"]] = {k: p.copy() for k, p in named_params(m).items()}
        return EvalReport(accuracy=trace[calls["n"] - 1], per_subject={},
                          confusion=np.zeros((3, 3), dtype=np.int64), n_utterances=len(s))

    training._validation_accuracy = scripted
    try:
        model, history = train_stream(model, samples, val, cfg)
    finally:
        training._validation_accuracy = real_accuracy
    return model, history, snapshots


def test_early_stopping_trace():
    """Accuracy peaks at epoch 2 and never recovers; patience 5 stops the
    run after epoch 8 and restores the epoch-2 weights."""
    trace = [0.50, 0.60, 0.60, 0.55, 0.58, 0.59, 0.57, 0.56, 0.99, 0.99]
    model, history, snapshots = run_stub_fit(trace)
    assert history.best_epoch == 2  # first of the 0.60 tie
    assert len(history.epochs) == 8  # stopped before ever seeing 0.99
    assert history.stop_reason == "early-stop"
    assert history.best_val_accuracy == pytest.approx(0.60)
    restored = named_params(model)
    for name, want in snapshots[2].items():
        assert np.array_equal(restored[name], want), name


def test_early_stopping_improvement_resets_the_clock():
    # without the epoch-7 rescue the run would stop after epoch 8;
    # with it, the clock restarts and the stop lands after epoch 13
    trace = [0.10, 0.20, 0.15, 0.15, 0.15, 0.15, 0.25, 0.20, 0.20, 0.20,
             0.20, 0.20, 0.20]
    _, history, _ = run_stub_fit(trace, max_epochs=20)
    assert history.best_epoch == 7
    assert len(history.epochs) == 13
    assert history.stop_reason == "early-stop"


def test_max_epochs_cap_reported():
    trace = [0.1 + 0.01 * e for e in range(6)]
    _, history, _ = run_stub_fit(trace, max_epochs=6, patience=50)
    assert history.stop_reason == "max-epochs"
    assert history.best_epoch == 6
    assert len(history.epochs) == 6


def test_history_records_and_json(tmp_path):
    model = tiny_model()
    samples = toy_samples(10)
    val = toy_samples(5, seed=2)
    cfg = TrainConfig.for_stream(lr=0.001, max_epochs=3, patience=10,
                                 track_train_accuracy=True)
    _, history = train_stream(model, samples, val, cfg)
    assert [e["epoch"] for e in history.epochs] == [1, 2, 3]
    for e in history.epochs:
        assert set(e) >= {"epoch", "train_loss", "val_accuracy", "wall_time",
                          "train_accuracy"}
        assert 0.0 <= e["val_accuracy"] <= 1.0
    assert history.config["lr"] == 0.001
    out = tmp_path / "h.json"
    save_history(out, history)
    doc = json.loads(out.read_text())
    assert doc["stage"] == "stream"
    assert len(doc["epochs"]) == 3
    assert doc["config"]["max_epochs"] == 3


def test_history_keeps_the_validation_report_out_of_its_json():
    cfg = TrainConfig.for_stream(lr=0.001, max_epochs=2, patience=10)
    _, history = train_stream(tiny_model(), toy_samples(10), toy_samples(5, seed=2), cfg)
    assert history.val_report.accuracy == history.best_val_accuracy
    assert history.val_report.n_utterances == 5
    doc = json.loads(history.to_json())
    assert sorted(doc) == ["best_epoch", "best_val_accuracy", "config", "epochs", "seed",
                           "stage", "stop_reason"]
    assert history.to_json() == json.dumps(doc, indent=2, sort_keys=True)


def test_samples_carry_their_utterance_subject(bench):
    samples = samples_from_utterances(bench.val[:2], ("raw",), np.float64)
    assert [s.subject for s in samples] == [u.subject for u in bench.val[:2]] == ["s04", "s04"]


def test_train_stream_deterministic():
    runs = []
    for _ in range(2):
        model = tiny_model(seed=12)
        cfg = TrainConfig.for_stream(lr=0.002, max_epochs=3, patience=10, seed=3)
        model, history = train_stream(model, toy_samples(10), toy_samples(4, seed=4),
                                      cfg)
        runs.append(({n: p.copy() for n, p in named_params(model).items()}, history))
    params_a, hist_a = runs[0]
    params_b, hist_b = runs[1]
    for name in params_a:
        assert np.array_equal(params_a[name], params_b[name]), name
    assert [e["train_loss"] for e in hist_a.epochs] == \
           [e["train_loss"] for e in hist_b.epochs]


def test_train_stream_rejects_empty_sets():
    model = tiny_model()
    cfg = TrainConfig.for_stream(max_epochs=1)
    with pytest.raises(ValueError):
        train_stream(model, [], toy_samples(2), cfg)
    with pytest.raises(ValueError):
        train_stream(model, toy_samples(4), [], cfg)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_a_fit_trains_the_model_it_is_given(dtype):
    model = tiny_model(dtype=dtype)
    arrays = dict(named_params(model))
    cfg = TrainConfig.for_stream(lr=0.001, max_epochs=1)
    trained, _ = train_stream(model, toy_samples(6, dtype=dtype),
                              toy_samples(3, seed=5, dtype=dtype), cfg)
    assert trained is model
    assert all(p is arrays[n] and p.dtype == dtype for n, p in named_params(trained).items())


@pytest.mark.parametrize("model_dtype, sample_dtype", [(np.float32, np.float64),
                                                       (np.float64, np.float32)])
def test_a_fit_refuses_samples_of_another_dtype(model_dtype, sample_dtype):
    cfg = TrainConfig.for_stream(lr=0.001, max_epochs=1)
    val = toy_samples(3, seed=5, dtype=model_dtype)
    val[-1] = toy_samples(1, seed=6, dtype=sample_dtype)[0]
    with pytest.raises(ValueError, match=f"a {np.dtype(model_dtype)} model cannot train on "
                                         f"{np.dtype(sample_dtype)} samples"):
        train_stream(tiny_model(dtype=model_dtype), toy_samples(6, dtype=model_dtype), val, cfg)


def two_trained_streams(seed=13):
    streams = {}
    for kind, model_seed in (("raw", seed), ("diff", seed + 1)):
        model = tiny_model(kind=kind, seed=model_seed)
        cfg = TrainConfig.for_stream(lr=0.002, max_epochs=2, patience=10)
        model, _ = train_stream(model, toy_samples(8, kind=kind),
                                toy_samples(4, kind=kind, seed=6), cfg)
        streams[kind] = model
    return streams["raw"], streams["diff"]


def test_train_fusion_runs_and_reports():
    raw, diff = two_trained_streams()
    cfg = TrainConfig.for_fusion(lr=0.002, max_epochs=2, patience=10, seed=7)
    fused, history = train_fusion(raw, diff,
                                  toy_samples(8, kinds=("raw", "diff")),
                                  toy_samples(4, kinds=("raw", "diff"), seed=8),
                                  cfg)
    assert fused.classes == 3
    assert history.stage == "fusion"
    assert len(history.epochs) == 2
    # the source single-stream models stay untouched
    assert raw.net.stream_kind == "raw"


def test_train_fusion_freeze_streams():
    raw, diff = two_trained_streams(seed=20)
    cfg = TrainConfig.for_fusion(lr=0.01, max_epochs=2, patience=10, seed=9,
                                 freeze_streams=True)
    fused, _ = train_fusion(raw, diff, toy_samples(8, kinds=("raw", "diff")),
                            toy_samples(4, kinds=("raw", "diff"), seed=10), cfg)
    frozen = named_params(fused)
    # stream heads are dropped at fusion time; everything else must be frozen
    for name, arr in named_params(raw).items():
        if not name.startswith("head."):
            assert np.array_equal(frozen[f"raw.{name}"], arr), name
    for name, arr in named_params(diff).items():
        if not name.startswith("head."):
            assert np.array_equal(frozen[f"diff.{name}"], arr), name


def test_frozen_fusion_clips_only_the_gradients_it_applies(monkeypatch):
    """Frozen stream gradients are never applied, so they stay out of the
    recurrent clip norm: only the fusion BLSTM's six tensors reach it."""
    raw, diff = two_trained_streams(seed=20)
    batch_grads, clipped = [], []
    true_forward_backward, true_clip = training._forward_backward, training.clip_global_norm

    def forward_backward(model, batch, freeze_streams):
        out = true_forward_backward(model, batch, freeze_streams)
        batch_grads.append(out[1])
        return out

    def clip(tensors, threshold):
        tensors = list(tensors)
        names = {id(g): n for n, g in batch_grads[-1].items()}
        clipped.append([names[id(t)] for t in tensors])
        return true_clip(tensors, threshold)

    monkeypatch.setattr(training, "_forward_backward", forward_backward)
    monkeypatch.setattr(training, "clip_global_norm", clip)
    cfg = TrainConfig.for_fusion(lr=0.01, max_epochs=2, patience=10, seed=9,
                                 freeze_streams=True)
    train_fusion(raw, diff, toy_samples(8, kinds=("raw", "diff")),
                 toy_samples(4, kinds=("raw", "diff"), seed=10), cfg)
    fusion_blstm = [f"fusion_blstm.{half}.{field}" for half in ("fwd", "bwd")
                    for field in ("wx", "wh", "b")]
    assert len(clipped) == len(batch_grads) > 0
    assert all(names == fusion_blstm for names in clipped)



@pytest.mark.parametrize("frozen", [False, True])
def test_a_frozen_fusion_fit_runs_no_stream_backward(monkeypatch, frozen):
    """With freeze_streams the backward pass stops at the stream outputs:
    no stream net's delta backward runs, against one per net in a one-batch
    fit that trains them, and the fusion BLSTM forms no input gradient."""
    raw, diff = two_trained_streams(seed=20)
    calls, d_feats = [], []
    real = vsr.model.append_deltas_backward
    monkeypatch.setattr(vsr.model, "append_deltas_backward",
                        lambda *a, **k: calls.append(None) or real(*a, **k))
    real_blstm_backward = vsr.model.blstm_backward

    def blstm_backward(*args, **kwargs):
        out = real_blstm_backward(*args, **kwargs)
        d_feats.append(out[0])
        return out

    monkeypatch.setattr(vsr.model, "blstm_backward", blstm_backward)
    cfg = TrainConfig.for_fusion(lr=0.01, max_epochs=1, seed=9, freeze_streams=frozen)
    train_fusion(raw, diff, toy_samples(8, kinds=("raw", "diff")),
                 toy_samples(4, kinds=("raw", "diff"), seed=10), cfg)
    assert len(calls) == (0 if frozen else 2)
    # the fusion BLSTM's backward runs first, then each stream's
    assert [d is None for d in d_feats] == ([True] if frozen else [False] * 3)


def test_train_stream_refuses_freeze_streams():
    cfg = TrainConfig.for_stream(max_epochs=1, freeze_streams=True)
    with pytest.raises(ValueError, match="freeze_streams"):
        train_stream(tiny_model(), toy_samples(4), toy_samples(2, seed=1), cfg)


def test_train_epoch_names_a_model_it_cannot_train():
    stack = EncoderStack(layers=tiny_model().net.encoder)
    batches = make_batches(toy_samples(3), 3, Rng(0))
    with pytest.raises(TypeError, match="EncoderStack"):
        train_epoch(stack, batches, Adam(), TrainConfig.for_stream())

@pytest.mark.parametrize("fit", ["stream", "fusion", "frozen-fusion"])
def test_batch_gradients_are_gone_before_the_next_backward(monkeypatch, fit):
    """train_epoch drops a batch's gradients, clipped copies included,
    before the next batch's backward pass allocates its own."""
    true_forward_backward, true_clip = training._forward_backward, training.clip_global_norm
    previous, calls = [], []

    def forward_backward(model, batch, freeze_streams):
        alive = [name for name, ref in previous if ref() is not None]
        assert not alive, f"call {len(calls)}: gradients of the last batch still alive: {alive}"
        previous.clear()
        out = true_forward_backward(model, batch, freeze_streams)
        previous.extend((name, weakref.ref(g)) for name, g in out[1].items())
        calls.append(None)
        return out

    def clip(tensors, threshold):
        out = true_clip(tensors, threshold)
        previous.extend(("clipped", weakref.ref(g)) for g in out[0])
        return out

    monkeypatch.setattr(training, "_forward_backward", forward_backward)
    monkeypatch.setattr(training, "clip_global_norm", clip)
    # a tiny threshold makes every clip return scaled copies
    common = dict(lr=0.01, max_epochs=2, patience=10, batch_utts=3, clip_threshold=1e-3)
    if fit == "stream":
        train_stream(tiny_model(), toy_samples(8), toy_samples(4, seed=1),
                     TrainConfig.for_stream(**common))
        assert len(calls) == 2 * 3
    else:
        raw, diff = two_trained_streams(seed=20)
        before = len(calls)
        cfg = TrainConfig.for_fusion(seed=9, freeze_streams=fit == "frozen-fusion", **common)
        train_fusion(raw, diff, toy_samples(8, kinds=("raw", "diff")),
                     toy_samples(4, kinds=("raw", "diff"), seed=10), cfg)
        assert len(calls) - before == 2 * 3


def test_train_fusion_finetunes_streams_by_default():
    raw, diff = two_trained_streams(seed=30)
    cfg = TrainConfig.for_fusion(lr=0.01, max_epochs=2, patience=10, seed=11)
    fused, _ = train_fusion(raw, diff, toy_samples(8, kinds=("raw", "diff")),
                            toy_samples(4, kinds=("raw", "diff"), seed=12), cfg)
    tuned = named_params(fused)
    moved = [n for n, arr in named_params(raw).items()
             if not n.startswith("head.")
             and not np.array_equal(tuned[f"raw.{n}"], arr)]
    assert moved  # fine-tuning reached into the copied stream weights
