"""The in-place forward passes against the allocating code they replaced.

lstm_forward, fc_forward and stream_features compute in buffers
they own, with the same floating-point operations in the same order as
before, so their results must equal the old formulas (kept in oracles.py)
byte for byte. The recurrent product is what changed: batches of two or
more multiply by a C-contiguous copy of wh.T, which BLAS may round
differently from the transposed view at some shapes, and each step
multiplies only its live rows, which BLAS may round differently from the
full batch. So the byte-for-byte LSTM comparison hands the reference the
same layout in its packed mode, and a separate test bounds the difference
to the full-width reference over the transposed view. lstm_backward
multiplies each gate derivative's factors in formula order too, so it must
equal the allocating backward (ref_lstm_backward) byte for byte.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import ref_fc, ref_lstm_backward, ref_lstm_steps, ref_preprocess
from vsr.data import stream_features
from vsr.layers import FcLayer, LstmParams, fc_forward, lstm_backward, lstm_forward
from vsr.numerics import Rng

DTYPES = [np.float32, np.float64]
FAST = settings(max_examples=30, deadline=None, derandomize=True)


def random_lstm(rng, d_in, hidden, dtype):
    p = LstmParams(wx=rng.normal((4 * hidden, d_in)), wh=rng.normal((4 * hidden, hidden)),
                   b=rng.normal((4 * hidden,)))
    return LstmParams(*(np.asarray(a, dtype=dtype) for a in (p.wx, p.wh, p.b)))


def library_layout(p, batch):
    return p.wh.T if batch == 1 else np.ascontiguousarray(p.wh.T)


@FAST
@given(lengths=st.lists(st.integers(1, 9), min_size=1, max_size=6),
       d_in=st.integers(1, 4), hidden=st.integers(1, 40), seed=st.integers(0, 2**16),
       dtype=st.sampled_from(DTYPES), reverse=st.booleans())
# every sequence as long as the next: each step runs the whole batch
@example(lengths=[5, 5, 5], d_in=3, hidden=7, seed=1, dtype=np.float32, reverse=False)
@example(lengths=[4, 4], d_in=2, hidden=33, seed=2, dtype=np.float64, reverse=True)
@example(lengths=[6], d_in=1, hidden=4, seed=3, dtype=np.float32, reverse=True)
def test_lstm_forward_matches_the_allocating_recurrence_bit_for_bit(
        lengths, d_in, hidden, seed, dtype, reverse):
    rng = Rng(seed)
    p = random_lstm(rng, d_in, hidden, dtype)
    x = rng.normal((sum(lengths), d_in)).astype(dtype)
    out, cache = lstm_forward(p, x, reverse=reverse, lengths=lengths)
    ref, ref_cache = ref_lstm_steps(p, x, reverse, lengths, library_layout(p, len(lengths)),
                                    packed=True)
    assert out.dtype == ref.dtype and out.tobytes() == ref.tobytes()
    for got, want in zip(cache[:5], ref_cache[:5]):  # rows, gates, c, tanh(c), h
        assert got.dtype == want.dtype and got.shape[0] == sum(lengths)
        assert got.tobytes() == want.tobytes()

    d_h = rng.normal(out.shape).astype(dtype)
    d_x, grads = lstm_backward(p, cache, d_h)
    ref_dx, ref_grads = ref_lstm_backward(p, ref_cache, d_h)
    assert d_x.tobytes() == ref_dx.tobytes()
    assert all(grads[k].tobytes() == ref_grads[k].tobytes() for k in ("wx", "wh", "b"))


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("reverse", [False, True])
def test_lstm_forward_single_sequence_matches_the_transposed_view_bit_for_bit(dtype, reverse):
    rng = Rng(3)
    p = random_lstm(rng, 5, 33, dtype)
    x = rng.normal((7, 5)).astype(dtype)
    out, _ = lstm_forward(p, x, reverse=reverse)
    ref, _ = ref_lstm_steps(p, x, reverse)
    assert out.tobytes() == ref.tobytes()


@pytest.mark.parametrize("dtype, tol", [(np.float32, 1e-5), (np.float64, 1e-13)])
@pytest.mark.parametrize("batch, hidden", [(3, 33), (2, 64), (5, 250)])
def test_lstm_forward_matches_the_transposed_view_within_rounding(dtype, tol, batch, hidden):
    rng = Rng(batch)
    p = random_lstm(rng, 4, hidden, dtype)
    p.wh *= dtype(1.0 / np.sqrt(hidden))
    lengths = [6 - k % 3 for k in range(batch)]
    x = rng.normal((sum(lengths), 4)).astype(dtype)
    out, _ = lstm_forward(p, x, lengths=lengths)
    ref, _ = ref_lstm_steps(p, x, False, lengths)
    np.testing.assert_allclose(out, ref, rtol=0, atol=tol)


@pytest.mark.parametrize("relu", [False, True])
def test_fc_forward_matches_the_allocating_formula(relu):
    rng = Rng(1)
    layer = FcLayer(w=rng.normal((4, 7)).astype(np.float32),
                    b=rng.normal((4,)).astype(np.float32), activation="relu" if relu else "linear")
    x = rng.normal((5, 7)).astype(np.float32)
    y, cache = fc_forward(layer, x)
    ref = ref_fc(layer.w, layer.b, x, relu)
    assert y.dtype == ref.dtype == np.float32
    assert y.tobytes() == ref.tobytes()
    assert cache[1] is y


def utterances():
    rng = np.random.default_rng(5)
    moving = rng.integers(0, 256, (6, 4, 5), dtype=np.uint8)
    repeated = moving.copy()
    repeated[3] = repeated[2]  # a zero row in the diff stream
    still_frame = moving.copy()
    still_frame[1] = 9  # a constant frame: a zero-variance row
    constant = np.full((5, 4, 5), 17, dtype=np.uint8)  # every row zero-variance
    return {"moving": moving, "repeated": repeated, "still_frame": still_frame,
            "constant": constant}


@pytest.mark.parametrize("name", sorted(utterances()))
@pytest.mark.parametrize("kind", ["raw", "diff"])
@pytest.mark.parametrize("dtype", DTYPES)
def test_preprocess_matches_the_allocating_formulas(name, kind, dtype):
    frames = utterances()[name]
    got = stream_features(frames, kind, dtype)
    want = ref_preprocess(frames, kind, dtype)
    assert got.dtype == want.dtype == dtype
    assert got.tobytes() == want.tobytes()
    assert np.isfinite(got).all()
    if name == "constant":
        assert not got.any()


def test_forward_passes_do_not_mutate_inputs_or_weights():
    rng = Rng(2)
    p = random_lstm(rng, 3, 4, np.float32)
    x = rng.normal((11, 3)).astype(np.float32)
    layer = FcLayer(w=rng.normal((4, 3)).astype(np.float32),
                    b=rng.normal((4,)).astype(np.float32), activation="relu")
    frames = utterances()["moving"]
    arrays = [p.wx, p.wh, p.b, x, layer.w, layer.b, frames]
    before = [a.copy() for a in arrays]
    for reverse in (False, True):
        lstm_forward(p, x, reverse=reverse, lengths=[5, 2, 4])
        lstm_forward(p, x, reverse=reverse)
    fc_forward(layer, x)
    stream_features(frames, "raw")
    stream_features(frames, "diff")
    for a, b in zip(arrays, before):
        assert a.tobytes() == b.tobytes()
