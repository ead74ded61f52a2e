"""Batches of concatenated sequences against per-sequence oracles.

Every batched path (LSTM, BLSTM, deltas, the stream and fusion models,
chunked evaluation) must agree with running each sequence alone: within
1e-12 for single layers, 1e-10 for whole models, since BLAS may round a
row differently when the batch around it changes. The deltas compute row
by row, so they must agree bit for bit, and no index of a sequence layer
may read or write a frame of the sequence next to it.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import vsr.evaluation as evaluation
import vsr.training as training
from oracles import ref_delta, ref_lstm
from stages import backward, forward
from vsr.data import LoadedUtterance
from vsr.evaluation import evaluate, model_logits, render_report, score_split
from vsr.gradcheck import _lstm_error, _random_lstm, _worst_error
from vsr.layers import (
    Blstm,
    DeltaWindow,
    append_deltas,
    append_deltas_backward,
    blstm_backward,
    blstm_forward,
    blstm_init,
    delta_forward,
    fc_backward,
    fc_forward,
    fc_init,
    lstm_backward,
    lstm_forward,
    lstm_init,
)
from vsr.model import build_fusion, build_stream, fusion_backward_batch, predict_label
from vsr.numerics import Rng

LENGTHS = st.lists(st.integers(1, 9), min_size=1, max_size=6)
SEEDS = st.integers(0, 2**16)
FAST = settings(max_examples=25, deadline=None, derandomize=True)


def concatenated(rng, lengths, width):
    """The [N, D] frames of random sequences of the given lengths."""
    return rng.normal((sum(lengths), width))


def split(frames, lengths):
    """The per-sequence blocks of concatenated frames."""
    return np.split(frames, np.cumsum(lengths)[:-1])


def tiny_stream(seed, kind="raw"):
    model = build_stream(input_dim=6, classes=3, hidden=3, rng=Rng(seed), stream_kind=kind,
                         encoder_sizes=(5,), bottleneck=2, dtype=np.float64)
    for p in (model.net.encoder[0].b, model.net.blstm.fwd.b, model.head.b):
        p += Rng(seed + 1).normal(p.shape)
    return model


@FAST
@given(lengths=LENGTHS, seed=SEEDS)
def test_batched_lstm_and_blstm_match_the_reference(lengths, seed):
    rng = Rng(seed)
    bl = blstm_init(3, 4, rng, dtype=np.float64)
    x = concatenated(rng, lengths, 3)
    out, _ = blstm_forward(bl, x, lengths)
    for reverse, half, h0 in ((False, bl.fwd, 0), (True, bl.bwd, 4)):
        h, _ = lstm_forward(half, x, reverse=reverse, lengths=lengths)
        assert np.array_equal(out[:, h0:h0 + 4], h)
        for got, seq in zip(split(h, lengths), split(x, lengths)):
            want = ref_lstm(half.wx, half.wh, half.b, seq, reverse=reverse)
            assert np.allclose(got, want, rtol=0, atol=1e-12)


@FAST
@given(lengths=LENGTHS, theta=st.integers(1, 3), seed=SEEDS)
@example(lengths=[6, 6, 6], theta=2, seed=1)
@example(lengths=[3], theta=3, seed=2)
def test_batched_deltas_match_the_reference(lengths, theta, seed):
    x = concatenated(Rng(seed), lengths, 4)
    got = delta_forward(x, DeltaWindow(theta), lengths)
    for got_b, seq in zip(split(got, lengths), split(x, lengths)):
        assert np.allclose(got_b, ref_delta(seq, theta), rtol=0, atol=1e-12)


def test_deltas_of_adjacent_sequences_stay_inside_their_own_frames():
    # sequences on offsets 1e3 apart: a window or an edge row read across a
    # boundary would move a delta by hundreds
    lengths, win = [1, 2, 7], DeltaWindow(3)
    rng = Rng(15)
    x = concatenated(rng, lengths, 4) + np.repeat([0.0, 1e3, -2e3], lengths)[:, None]
    d_out = concatenated(rng, lengths, 12)
    got = append_deltas(x, win, lengths)
    d_x = append_deltas_backward(d_out, win, lengths)
    for seq, got_b, d_b, d_x_b in zip(split(x, lengths), split(got, lengths),
                                      split(d_out, lengths), split(d_x, lengths)):
        alone = delta_forward(seq, win)
        assert got_b[:, 4:8].tobytes() == alone.tobytes()
        assert got_b[:, 8:].tobytes() == delta_forward(alone, win).tobytes()
        assert d_x_b.tobytes() == append_deltas_backward(d_b, win).tobytes()
        assert np.allclose(alone, ref_delta(seq, 3), rtol=0, atol=1e-12)
    # the adjoint identity over the whole batch
    lhs = float((got * d_out).sum())
    assert lhs == pytest.approx(float((d_x * x).sum()), rel=1e-12)


@FAST
@given(lengths=LENGTHS, seed=SEEDS)
def test_stream_and_fusion_logits_match_scoring_alone(lengths, seed):
    rng = Rng(seed)
    raw, diff = tiny_stream(seed), tiny_stream(seed + 7, "diff")
    fused = build_fusion(raw, diff, hidden=2, rng=Rng(seed), dtype=np.float64)
    seqs = {k: [rng.normal((t_len, 6)) for t_len in lengths] for k in ("raw", "diff")}
    splits = np.cumsum(lengths)[:-1]

    batch, _ = forward(raw, {"raw": seqs["raw"]})
    for got, seq in zip(np.split(batch, splits), seqs["raw"]):
        assert np.allclose(got, forward(raw, {"raw": [seq]})[0], rtol=0, atol=1e-10)

    batch, _ = forward(fused, seqs)
    for b, got in enumerate(np.split(batch, splits)):
        alone, _ = forward(fused, {k: [v[b]] for k, v in seqs.items()})
        assert np.allclose(got, alone, rtol=0, atol=1e-10)


def fake_utts(lengths, seed):
    rng = Rng(seed)
    return [LoadedUtterance(path=f"u{i:02d}.vsru", subject=f"s{i % 3}", label=i % 3,
                            frames=rng.integers(256, (t_len, 2, 3)).astype(np.uint8))
            for i, t_len in enumerate(lengths)]


@settings(max_examples=10, deadline=None, derandomize=True)
@given(lengths=st.lists(st.integers(2, 9), min_size=1, max_size=12), seed=SEEDS)
def test_evaluate_report_ignores_split_order(lengths, seed):
    model = tiny_stream(seed)
    utts = fake_utts(lengths, seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evaluation, "SCORE_CHUNK", 4)  # several chunks per split
        forward = render_report(evaluate(model, utts, 3), "json")
        backward = render_report(evaluate(model, utts[::-1], 3), "json")
    assert forward == backward


def test_chunked_labels_match_one_utterance_at_a_time(monkeypatch):
    model = tiny_stream(3)
    rng = Rng(4)
    samples = [training.SeqSample({"raw": rng.normal((t_len, 6))}, label=0, path=f"u{i}")
               for i, t_len in enumerate((5, 1, 9, 3, 7, 2, 8))]
    monkeypatch.setattr(evaluation, "SCORE_CHUNK", 3)
    calls, got = [], []
    real_logits, real_label = evaluation.model_logits, evaluation.predict_label
    monkeypatch.setattr(evaluation, "model_logits",
                        lambda m, chunk: calls.append(len(chunk)) or real_logits(m, chunk))
    monkeypatch.setattr(evaluation, "predict_label",
                        lambda logits: got.append(real_label(logits)) or got[-1])
    score_split(model, samples, lambda s: s.streams)
    assert calls == [3, 3, 1]
    # score_split labels the samples shortest first
    ordered = sorted(samples, key=lambda s: s.n_frames)
    want = [predict_label(forward(model, {"raw": [s.streams["raw"]]})[0]) for s in ordered]
    assert got == want
    logits = model_logits(model, [s.streams for s in samples[:2]])
    assert [lg.shape for lg in logits] == [(5, 3), (1, 3)]


def test_validation_and_evaluate_score_a_split_in_the_same_chunks(monkeypatch):
    """Past one chunk, with tied lengths listed against path order, the fit's
    validation pass and evaluate hand model_logits the same chunks, so the
    .val.json report scores what the history's best epoch scored."""
    model = tiny_stream(5)
    n = evaluation.SCORE_CHUNK + 6
    utts = fake_utts([4 + i % 2 for i in range(n)], 5)[::-1]
    chunks = []
    real = evaluation.model_logits

    def recording(m, chunk):
        chunks.append([s["raw"] for s in chunk])
        return real(m, chunk)

    monkeypatch.setattr(evaluation, "model_logits", recording)
    evaluate(model, utts, 3)
    by_evaluate = chunks[:]
    chunks.clear()
    training._validation_accuracy(model, training.samples_from_utterances(
        utts, ("raw",), np.float64))
    assert [len(c) for c in chunks] == [len(c) for c in by_evaluate] == [
        evaluation.SCORE_CHUNK, 6]
    for ours, theirs in zip(chunks, by_evaluate):
        assert all(np.array_equal(a, b) for a, b in zip(ours, theirs))


def _traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_scoring_holds_less_than_half_of_the_training_forward():
    """model_logits keeps no backward cache: on the same fusion chunk it peaks
    below half of what the cache-keeping forward holds."""
    shape = dict(classes=3, hidden=16, encoder_sizes=(64, 32), bottleneck=8,
                 dtype=np.float32)
    fused = build_fusion(build_stream(40, rng=Rng(1), stream_kind="raw", **shape),
                         build_stream(40, rng=Rng(2), stream_kind="diff", **shape),
                         hidden=16, rng=Rng(3), dtype=np.float32)
    rng = Rng(4)
    chunk = [{k: rng.normal((t_len, 40)).astype(np.float32) for k in ("raw", "diff")}
             for t_len in range(20, 41, 2)]
    seqs = {k: [s[k] for s in chunk] for k in ("raw", "diff")}
    cached = _traced_peak(lambda: forward(fused, seqs))
    scoring = _traced_peak(lambda: model_logits(fused, chunk))
    assert scoring < cached / 2, (scoring, cached)


def test_batched_gradients_are_the_sum_over_sequences():
    rng = Rng(6)
    p = lstm_init(3, 4, rng, dtype=np.float64)
    lengths = [4, 1, 3]
    x = concatenated(rng, lengths, 3)
    d_h = concatenated(rng, lengths, 4)
    for reverse in (False, True):
        _, cache = lstm_forward(p, x, reverse=reverse, lengths=lengths)
        d_x, grads = lstm_backward(p, cache, d_h)
        total = {name: 0.0 for name in grads}
        for seq, d_h1, d_x_b in zip(split(x, lengths), split(d_h, lengths),
                                    split(d_x, lengths)):
            _, c1 = lstm_forward(p, seq, reverse=reverse)
            d_x1, g1 = lstm_backward(p, c1, d_h1)
            assert np.allclose(d_x_b, d_x1, rtol=0, atol=1e-12)
            for name in grads:
                total[name] = total[name] + g1[name]
        for name in grads:
            assert np.allclose(grads[name], total[name], rtol=0, atol=1e-12), name


def test_batched_stream_gradients_match_per_sequence_sums():
    model = tiny_stream(8)
    rng = Rng(9)
    seqs = [rng.normal((t_len, 6)) for t_len in (3, 6, 1)]
    d_logits = rng.normal((10, 3))
    logits, cache = forward(model, {"raw": seqs})
    grads = backward(model, cache, d_logits)
    start, total = 0, {}
    for seq in seqs:
        _, c1 = forward(model, {"raw": [seq]})
        g1 = backward(model, c1, d_logits[start:start + len(seq)])
        start += len(seq)
        for name, g in g1.items():
            total[name] = total.get(name, 0.0) + g
    assert set(total) == set(grads)
    for name in grads:
        assert np.allclose(grads[name], total[name], rtol=0, atol=1e-10), name


def test_fc_backward_can_skip_the_input_gradient():
    rng = Rng(11)
    layer = fc_init(4, 3, rng, "relu", dtype=np.float64)
    x, d_out = rng.normal((5, 4)), rng.normal((5, 3))
    d_x, d_w, d_b = fc_backward(layer, fc_forward(layer, x)[1], d_out)
    none, d_w2, d_b2 = fc_backward(layer, fc_forward(layer, x)[1], d_out, input_grad=False)
    assert d_x.shape == (5, 4) and none is None
    assert np.array_equal(d_w, d_w2) and np.array_equal(d_b, d_b2)


def test_blstm_and_the_fusion_stage_can_skip_the_input_gradient():
    """The parameter gradients keep their bits; each backward consumes a
    cache of its own, so the forward runs once per backward."""
    rng = Rng(15)
    bl = blstm_init(3, 4, rng, dtype=np.float64)
    seq, d_out = concatenated(rng, TIED, 3), concatenated(rng, TIED, 8)
    d_seq, grads = blstm_backward(bl, blstm_forward(bl, seq, TIED)[1], d_out)
    none, grads2 = blstm_backward(bl, blstm_forward(bl, seq, TIED)[1], d_out, input_grad=False)
    assert d_seq.shape == seq.shape and none is None
    assert list(grads2) == list(grads)
    assert all(np.array_equal(grads[n], grads2[n]) for n in grads)

    fused = build_fusion(tiny_stream(8), tiny_stream(9, "diff"), hidden=2, rng=Rng(10))
    seqs = {k: [rng.normal((t_len, 6)) for t_len in TIED] for k in ("raw", "diff")}
    d_logits = rng.normal((sum(TIED), 3))
    stage = [fusion_backward_batch(fused, forward(fused, seqs)[1][1], d_logits, input_grad=g)
             for g in (True, False)]
    (d_feats, grads), (none, grads2) = stage
    assert d_feats.shape == (sum(TIED), 12) and none is None
    assert list(grads2) == list(grads)
    assert all(np.array_equal(grads[n], grads2[n]) for n in grads)


# unsorted, with ties: the packed recurrence runs the columns in order 1, 2, 4, 0, 3
TIED = [3, 7, 7, 1, 5]


def test_lstm_gradcheck_on_unsorted_lengths_with_ties():
    assert _lstm_error(Rng(12), rows=7, lengths=TIED, width=3, hidden=3) < 1e-5


def test_blstm_gradcheck_on_unsorted_lengths_with_ties():
    rng = Rng(13)
    bl = Blstm(fwd=_random_lstm(rng, 3, 3), bwd=_random_lstm(rng, 3, 3))
    seq, proj = concatenated(rng, TIED, 3), concatenated(rng, TIED, 6)
    _, cache = blstm_forward(bl, seq, TIED)
    d_seq, grads = blstm_backward(bl, cache, proj)
    arrays = {"seq": seq, **{f"{half}.{name}": getattr(getattr(bl, half), name)
                             for half in ("fwd", "bwd") for name in ("wx", "wh", "b")}}
    err = _worst_error(arrays, {"seq": d_seq, **grads},
                       lambda: float((blstm_forward(bl, seq, TIED)[0] * proj).sum()))
    assert err < 1e-5


@pytest.mark.parametrize("dtype, tol", [(np.float32, 1e-5), (np.float64, 1e-13)])
@pytest.mark.parametrize("reverse", [False, True])
def test_permuting_the_batch_columns_permutes_the_lstm(dtype, tol, reverse):
    rng = Rng(14)
    p = lstm_init(8, 64, rng, dtype=dtype)
    lengths = np.array(TIED)
    x = concatenated(rng, TIED, 8).astype(dtype)
    d_h = concatenated(rng, TIED, 64).astype(dtype)
    perm = np.array([4, 2, 0, 3, 1])  # swaps the tied pair too

    def permuted(frames):
        blocks = split(frames, lengths)
        return np.concatenate([blocks[b] for b in perm])

    out, cache = lstm_forward(p, x, reverse, lengths)
    out_p, cache_p = lstm_forward(p, permuted(x), reverse, lengths[perm])
    assert all(len(a) == sum(TIED) for a in (*cache[:5], *cache_p[:5]))
    np.testing.assert_allclose(out_p, permuted(out), rtol=0, atol=tol)
    d_x, grads = lstm_backward(p, cache, d_h)
    d_xp, grads_p = lstm_backward(p, cache_p, permuted(d_h))
    np.testing.assert_allclose(d_xp, permuted(d_x), rtol=0, atol=tol)
    for name in grads:
        np.testing.assert_allclose(grads_p[name], grads[name], rtol=tol, atol=tol)
