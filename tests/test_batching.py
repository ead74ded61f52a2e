"""Time-major batches against per-sequence oracles.

Every batched path (LSTM, BLSTM, deltas, the stream and fusion models,
chunked evaluation) must agree with running each sequence alone: within
1e-12 for single layers, 1e-10 for whole models, since BLAS may round a
row differently when the batch around it changes. Padding length, by
contrast, must change no bit at all.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import vsr.evaluation as evaluation
from oracles import ref_delta, ref_lstm
from vsr.data import LoadedUtterance
from vsr.evaluation import evaluate, model_logits, predict_labels, render_report
from vsr.layers import (
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
from vsr.model import (
    build_fusion,
    build_stream,
    fusion_forward_batch,
    predict_label,
    stream_backward_batch,
    stream_forward_batch,
)
from vsr.numerics import Rng

LENGTHS = st.lists(st.integers(1, 9), min_size=1, max_size=6)
SEEDS = st.integers(0, 2**16)
FAST = settings(max_examples=25, deadline=None, derandomize=True)


def padded_batch(rng, lengths, width, extra=0):
    """A [T, B, D] batch of random sequences, padding filled with junk."""
    return rng.normal((max(lengths) + extra, len(lengths), width))


def tiny_stream(seed, kind="raw"):
    model = build_stream(input_dim=6, classes=3, hidden=3, rng=Rng(seed), stream_kind=kind,
                         encoder_sizes=(5,), bottleneck=2, dtype=np.float64)
    for p in (model.net.encoder[0].b, model.net.blstm.fwd.b, model.head.b):
        p += Rng(seed + 1).normal(p.shape)
    return model


@FAST
@given(lengths=LENGTHS, extra=st.integers(0, 2), seed=SEEDS)
def test_batched_lstm_and_blstm_match_the_reference(lengths, extra, seed):
    rng = Rng(seed)
    bl = blstm_init(3, 4, rng, dtype=np.float64)
    x = padded_batch(rng, lengths, 3, extra)
    out, _ = blstm_forward(bl, x, lengths)
    for reverse, half, h0 in ((False, bl.fwd, 0), (True, bl.bwd, 4)):
        h, _ = lstm_forward(half, x, reverse=reverse, lengths=lengths)
        assert np.array_equal(out[..., h0:h0 + 4], h)
        for b, t_len in enumerate(lengths):
            want = ref_lstm(half.wx, half.wh, half.b, x[:t_len, b], reverse=reverse)
            assert np.allclose(h[:t_len, b], want, rtol=0, atol=1e-12)
            assert np.all(h[t_len:, b] == 0.0)


@FAST
@given(lengths=LENGTHS, extra=st.integers(0, 2), theta=st.integers(1, 3), seed=SEEDS)
# every sequence as long as the batch: no padding anywhere
@example(lengths=[6, 6, 6], extra=0, theta=2, seed=1)
@example(lengths=[3], extra=0, theta=3, seed=2)
def test_batched_deltas_match_the_reference(lengths, extra, theta, seed):
    x = padded_batch(Rng(seed), lengths, 4, extra)
    got = delta_forward(x, DeltaWindow(theta), lengths)
    for b, t_len in enumerate(lengths):
        assert np.allclose(got[:t_len, b], ref_delta(x[:t_len, b], theta), rtol=0, atol=1e-12)
        assert np.all(got[t_len:, b] == 0.0)


@FAST
@given(lengths=LENGTHS, seed=SEEDS)
def test_stream_and_fusion_logits_match_scoring_alone(lengths, seed):
    rng = Rng(seed)
    raw, diff = tiny_stream(seed), tiny_stream(seed + 7, "diff")
    fused = build_fusion(raw, diff, hidden=2, rng=Rng(seed), dtype=np.float64)
    seqs = {k: [rng.normal((t_len, 6)) for t_len in lengths] for k in ("raw", "diff")}
    splits = np.cumsum(lengths)[:-1]

    batch, _ = stream_forward_batch(raw, seqs["raw"])
    for got, seq in zip(np.split(batch, splits), seqs["raw"]):
        assert np.allclose(got, stream_forward_batch(raw, [seq])[0], rtol=0, atol=1e-10)

    batch, _ = fusion_forward_batch(fused, seqs)
    for b, got in enumerate(np.split(batch, splits)):
        alone, _ = fusion_forward_batch(fused, {k: [v[b]] for k, v in seqs.items()})
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
    streams = [{"raw": rng.normal((t_len, 6))} for t_len in (5, 1, 9, 3, 7, 2, 8)]
    monkeypatch.setattr(evaluation, "SCORE_CHUNK", 3)
    calls = []
    real = evaluation.model_logits
    monkeypatch.setattr(evaluation, "model_logits",
                        lambda m, chunk: calls.append(len(chunk)) or real(m, chunk))
    got = predict_labels(model, streams)
    assert calls == [3, 3, 1]
    want = [predict_label(stream_forward_batch(model, [s["raw"]])[0]) for s in streams]
    assert got == want
    logits = model_logits(model, streams[:2])
    assert [lg.shape for lg in logits] == [(5, 3), (1, 3)]


def test_padding_length_changes_no_bit_of_a_blstm():
    rng = Rng(5)
    bl = blstm_init(4, 3, rng, dtype=np.float64)
    lengths = [6, 2, 5, 1]
    short = padded_batch(rng, lengths, 4)
    long = np.concatenate([short, rng.normal((4, 4, 4))])  # junk past the longest
    d_out = rng.normal((10, 4, 6))
    results = []
    for x in (short, long):
        out, cache = blstm_forward(bl, x, lengths)
        d_x, grads = blstm_backward(bl, cache, d_out[:x.shape[0]])
        results.append((out[:6], d_x[:6], grads))
        assert np.all(out[6:] == 0.0) and np.all(d_x[6:] == 0.0)
    (out_a, dx_a, g_a), (out_b, dx_b, g_b) = results
    assert np.array_equal(out_a, out_b)
    assert np.array_equal(dx_a, dx_b)
    for half in ("fwd", "bwd"):
        for name in ("wx", "wh", "b"):
            assert np.array_equal(g_a[half][name], g_b[half][name]), (half, name)


def test_batched_gradients_are_the_sum_over_sequences():
    rng = Rng(6)
    p = lstm_init(3, 4, rng, dtype=np.float64)
    lengths = [4, 1, 3]
    x = padded_batch(rng, lengths, 3)
    d_h = rng.normal((4, 3, 4))
    for reverse in (False, True):
        _, cache = lstm_forward(p, x, reverse=reverse, lengths=lengths)
        d_x, grads = lstm_backward(p, cache, d_h)
        total = {name: 0.0 for name in grads}
        for b, t_len in enumerate(lengths):
            _, c1 = lstm_forward(p, x[:t_len, b], reverse=reverse)
            d_x1, g1 = lstm_backward(p, c1, d_h[:t_len, b])
            assert np.allclose(d_x[:t_len, b], d_x1, rtol=0, atol=1e-12)
            for name in grads:
                total[name] = total[name] + g1[name]
        for name in grads:
            assert np.allclose(grads[name], total[name], rtol=0, atol=1e-12), name


def test_batched_stream_gradients_match_per_sequence_sums():
    model = tiny_stream(8)
    rng = Rng(9)
    seqs = [rng.normal((t_len, 6)) for t_len in (3, 6, 1)]
    d_logits = rng.normal((10, 3))
    logits, cache = stream_forward_batch(model, seqs)
    grads = stream_backward_batch(model, cache, d_logits)
    start, total = 0, {}
    for seq in seqs:
        _, c1 = stream_forward_batch(model, [seq])
        g1 = stream_backward_batch(model, c1, d_logits[start:start + len(seq)])
        start += len(seq)
        for name, g in g1.items():
            total[name] = total.get(name, 0.0) + g
    assert set(total) == set(grads)
    for name in grads:
        assert np.allclose(grads[name], total[name], rtol=0, atol=1e-10), name


def test_append_deltas_backward_passes_the_sequence_block_through_padding():
    win = DeltaWindow(2)
    rng = Rng(10)
    lengths = [3, 1]
    x = padded_batch(rng, lengths, 2, extra=1)
    d_out = rng.normal((4, 2, 6))
    got = append_deltas_backward(d_out, win, lengths)
    # adjoint identity over the whole padded batch, padding rows included
    lhs = float((append_deltas(x, win, lengths) * d_out).sum())
    assert lhs == pytest.approx(float((got * x).sum()), abs=1e-12)


def test_fc_backward_can_skip_the_input_gradient():
    rng = Rng(11)
    layer = fc_init(4, 3, rng, "relu", dtype=np.float64)
    _, cache = fc_forward(layer, rng.normal((5, 4)))
    d_out = rng.normal((5, 3))
    d_x, d_w, d_b = fc_backward(layer, cache, d_out)
    none, d_w2, d_b2 = fc_backward(layer, cache, d_out, input_grad=False)
    assert d_x.shape == (5, 4) and none is None
    assert np.array_equal(d_w, d_w2) and np.array_equal(d_b, d_b2)
