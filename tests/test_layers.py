import numpy as np
import pytest

from oracles import ref_delta, ref_lstm, ref_sigmoid
from vsr.gradcheck import max_rel_err, numerical_grad
from vsr.layers import (
    MAX_THETA,
    DeltaWindow,
    FcLayer,
    LstmParams,
    append_deltas,
    append_deltas_backward,
    blstm_forward,
    blstm_init,
    delta_backward,
    delta_forward,
    fc_backward,
    fc_forward,
    fc_init,
    lstm_backward,
    lstm_forward,
    lstm_init,
    sigmoid,
    softmax_rows,
    softmax_xent,
)
from vsr.numerics import Rng


# ---------------------------------------------------------------------------
# fully connected
# ---------------------------------------------------------------------------

def test_fc_linear_matches_matmul():
    rng = Rng(0)
    layer = fc_init(4, 3, rng, "linear", dtype=np.float64)
    x = rng.normal((5, 4))
    y, _ = fc_forward(layer, x)
    assert np.allclose(y, x @ layer.w.T + layer.b, atol=1e-15)


def test_fc_relu_clamps():
    layer = FcLayer(w=np.eye(2), b=np.array([0.0, 0.0]), activation="relu")
    y, _ = fc_forward(layer, np.array([[-3.0, 2.0]]))
    assert y.tolist() == [[0.0, 2.0]]


def test_fc_rejects_width_mismatch():
    layer = fc_init(4, 3, Rng(0))
    with pytest.raises(ValueError):
        fc_forward(layer, np.zeros(5))
    with pytest.raises(ValueError, match="unknown activation 'tanh'"):
        fc_init(4, 3, Rng(0), "tanh")


def test_fc_takes_frame_batches_only():
    layer = fc_init(4, 3, Rng(0))
    for x in (np.zeros(4), np.zeros((2, 3, 4))):
        with pytest.raises(ValueError, match=r"is not \[N, 4\]"):
            fc_forward(layer, x)


def test_fc_backward_against_finite_differences():
    rng = Rng(7)
    layer = fc_init(5, 4, rng, "relu", dtype=np.float64)
    layer.b += 0.3 * rng.normal(layer.b.shape)  # move pre-activations off the kink
    x = rng.normal((6, 5))
    d_out = rng.normal((6, 4))

    y, cache = fc_forward(layer, x)
    d_x, d_w, d_b = fc_backward(layer, cache, d_out)

    def loss_of_x(xx):
        return float((fc_forward(layer, xx)[0] * d_out).sum())

    num_dx = numerical_grad(loss_of_x, x)
    assert max_rel_err(d_x, num_dx) < 1e-6

    def loss_of_w(ww):
        stand_in = FcLayer(w=ww, b=layer.b, activation="relu")
        return float((fc_forward(stand_in, x)[0] * d_out).sum())

    num_dw = numerical_grad(loss_of_w, layer.w)
    assert max_rel_err(d_w, num_dw) < 1e-6
    # a transposed gradient would broadcast; the harness refuses it instead
    with pytest.raises(ValueError, match="gradient shapes disagree"):
        max_rel_err(d_w.T, num_dw)


def test_relu_derivative_zero_at_kink():
    layer = FcLayer(w=np.zeros((1, 1)), b=np.zeros(1), activation="relu")
    _, cache = fc_forward(layer, np.array([[5.0]]))  # pre-activation exactly 0
    d_x, d_w, d_b = fc_backward(layer, cache, np.array([[1.0]]))
    assert d_x[0, 0] == 0.0 and d_w[0, 0] == 0.0 and d_b[0] == 0.0


def test_sigmoid_matches_reference_and_saturates_cleanly():
    x = np.linspace(-40, 40, 201)
    with np.errstate(over="raise"):
        y = sigmoid(x)
    # compare on the range where 1/(1+exp(-x)) itself is safe
    assert np.allclose(y[80:121], ref_sigmoid(x[80:121]), atol=1e-12)
    assert np.all((y >= 0) & (y <= 1))
    assert sigmoid(np.array([0.0]))[0] == 0.5
    assert sigmoid(np.array([1000.0]))[0] == 1.0
    assert sigmoid(np.array([-1000.0]))[0] == 0.0


# ---------------------------------------------------------------------------
# deltas
# ---------------------------------------------------------------------------

def test_delta_constant_sequence_exactly_zero():
    for dtype in (np.float32, np.float64):
        seq = np.full((9, 5), 3.7, dtype=dtype)
        for theta in (1, 2, 3):
            out = delta_forward(seq, DeltaWindow(theta))
            assert np.all(out == 0.0), f"theta={theta} dtype={dtype}"
        assert np.all(append_deltas(seq, DeltaWindow(2))[:, 5:] == 0.0)


def test_delta_linear_ramp_interior_slope():
    t = np.arange(12, dtype=np.float64)
    seq = np.repeat(t[:, None], 3, axis=1)
    out = delta_forward(seq, DeltaWindow(2))
    # away from the replicated edges the regression returns the slope
    assert np.allclose(out[2:-2], 1.0, atol=1e-12)


def test_delta_matches_per_frame_reference():
    rng = Rng(13)
    for theta in (1, 2, 3):
        for t_len in (1, 2, 5, 9):
            seq = rng.normal((t_len, 4))
            got = delta_forward(seq, DeltaWindow(theta))
            assert np.allclose(got, ref_delta(seq, theta), atol=1e-12)


def test_delta_single_frame_is_zero():
    seq = Rng(1).normal((1, 6))
    assert np.all(delta_forward(seq, DeltaWindow(2)) == 0.0)


def test_append_deltas_layout():
    rng = Rng(5)
    seq = rng.normal((7, 3))
    win = DeltaWindow(2)
    out = append_deltas(seq, win)
    assert out.shape == (7, 9)
    assert np.array_equal(out[:, :3], seq)
    d1 = delta_forward(seq, win)
    assert np.array_equal(out[:, 3:6], d1)
    assert np.array_equal(out[:, 6:], delta_forward(d1, win))


def test_delta_backward_is_the_adjoint():
    """<v, D u> must equal <D^T v, u> for a linear map and its adjoint."""
    rng = Rng(21)
    for theta in (1, 2, 3):
        win = DeltaWindow(theta)
        u = rng.normal((8, 4))
        v = rng.normal((8, 4))
        lhs = float((v * delta_forward(u, win)).sum())
        rhs = float((delta_backward(v, win) * u).sum())
        assert abs(lhs - rhs) < 1e-12


def test_append_deltas_backward_is_the_adjoint():
    rng = Rng(22)
    win = DeltaWindow(2)
    u = rng.normal((6, 3))
    v = rng.normal((6, 9))
    lhs = float((v * append_deltas(u, win)).sum())
    rhs = float((append_deltas_backward(v, win) * u).sum())
    assert abs(lhs - rhs) < 1e-12
    with pytest.raises(ValueError, match="output width 8 not divisible by 3"):
        append_deltas_backward(v[:, :8], win)


def test_delta_window_validates_theta():
    with pytest.raises(ValueError):
        DeltaWindow(0)
    with pytest.raises(ValueError, match=f"from 1 to {MAX_THETA}, got {MAX_THETA + 1}"):
        DeltaWindow(MAX_THETA + 1)
    assert len(DeltaWindow(MAX_THETA).coeffs) == MAX_THETA


def test_delta_coefficients_are_the_regression_weights_bit_for_bit():
    for theta in (1, 2, 3, 7):
        denom = 2.0 * sum(k * k for k in range(1, theta + 1))
        assert DeltaWindow(theta).coeffs == tuple(k / denom for k in range(1, theta + 1))


# ---------------------------------------------------------------------------
# LSTM / BLSTM
# ---------------------------------------------------------------------------

def test_lstm_matches_step_by_step_reference():
    rng = Rng(31)
    p = lstm_init(5, 4, rng, dtype=np.float64)
    seq = rng.normal((7, 5))
    for reverse in (False, True):
        h, _ = lstm_forward(p, seq, reverse=reverse)
        want = ref_lstm(p.wx, p.wh, p.b, seq, reverse=reverse)
        assert h.shape == (7, 4)
        assert np.allclose(h, want, atol=1e-12)
    # and what it cannot run, it refuses by name
    for bad, lengths, named in ((seq[None], None, r"concatenated frames \[N, D\]"),
                                (seq[:0], None, "at least one frame"),
                                (seq, [3, 3], r"lengths \[3, 3\] do not split 7 frames"),
                                (seq, [7, 0], "do not split 7 frames"),
                                (seq[:, :4], None, "input width 4 != weight width 5")):
        with pytest.raises(ValueError, match=named):
            lstm_forward(p, bad, lengths=lengths)


def test_lstm_zero_weights_zero_output():
    p = lstm_init(3, 2, Rng(0), dtype=np.float64)
    p.wx[:] = 0
    p.wh[:] = 0
    p.b[:] = 0
    h, _ = lstm_forward(p, Rng(1).normal((5, 3)))
    assert np.all(h == 0.0)


def test_lstm_reverse_equals_flip_run_flip():
    rng = Rng(32)
    p = lstm_init(4, 3, rng, dtype=np.float64)
    seq = rng.normal((6, 4))
    h_rev, _ = lstm_forward(p, seq, reverse=True)
    h_flip, _ = lstm_forward(p, seq[::-1].copy())
    assert np.allclose(h_rev, h_flip[::-1], atol=1e-15)


def test_lstm_forget_bias_starts_at_one():
    p = lstm_init(6, 5, Rng(3))
    h = p.hidden
    assert np.all(p.b[h:2 * h] == 1.0)
    assert np.all(p.b[:h] == 0.0)
    assert np.all(p.b[2 * h:] == 0.0)


def test_lstm_backward_against_finite_differences():
    rng = Rng(33)
    p = lstm_init(3, 2, rng, dtype=np.float64)
    seq = rng.normal((4, 3))
    d_h = rng.normal((4, 2))
    h, cache = lstm_forward(p, seq)
    d_x, grads = lstm_backward(p, cache, d_h)

    def loss_of_seq(s):
        return float((lstm_forward(p, s)[0] * d_h).sum())

    assert max_rel_err(d_x, numerical_grad(loss_of_seq, seq)) < 1e-6

    def loss_of_wx(wx):
        q = LstmParams(wx=wx, wh=p.wh, b=p.b)
        return float((lstm_forward(q, seq)[0] * d_h).sum())

    assert max_rel_err(grads["wx"], numerical_grad(loss_of_wx, p.wx)) < 1e-6


def test_blstm_halves_are_the_two_directions():
    rng = Rng(34)
    bl = blstm_init(4, 3, rng, dtype=np.float64)
    seq = rng.normal((5, 4))
    out, _ = blstm_forward(bl, seq)
    assert out.shape == (5, 6)
    h_f, _ = lstm_forward(bl.fwd, seq)
    h_b, _ = lstm_forward(bl.bwd, seq, reverse=True)
    assert np.array_equal(out[:, :3], h_f)
    assert np.array_equal(out[:, 3:], h_b)


def test_blstm_first_frame_sees_the_whole_sequence():
    # Changing the last input frame must reach the output at t=0 through
    # the reverse-time half.
    rng = Rng(35)
    bl = blstm_init(3, 2, rng, dtype=np.float64)
    seq = rng.normal((6, 3))
    out1, _ = blstm_forward(bl, seq)
    seq2 = seq.copy()
    seq2[-1] += 1.0
    out2, _ = blstm_forward(bl, seq2)
    assert not np.allclose(out1[0], out2[0])


# ---------------------------------------------------------------------------
# softmax cross-entropy
# ---------------------------------------------------------------------------

def test_xent_two_way_tie_is_log_two():
    loss, d = softmax_xent(np.array([[0.0, 0.0]]), np.array([0]))
    assert loss == pytest.approx(np.log(2.0), abs=1e-12)
    assert np.allclose(d, [[-0.5, 0.5]], atol=1e-12)


def test_xent_uniform_logits_log_k():
    for k in (2, 5, 26):
        logits = np.zeros((3, k))
        loss, _ = softmax_xent(logits, np.zeros(3, dtype=int))
        assert loss == pytest.approx(np.log(k), abs=1e-12)


def test_xent_shift_invariance():
    rng = Rng(41)
    logits = rng.normal((6, 4)) * 50
    labels = Rng(42).integers(4, (6,))
    loss1, d1 = softmax_xent(logits, labels)
    loss2, d2 = softmax_xent(logits + 1234.5, labels)
    assert abs(loss1 - loss2) < 1e-9
    assert np.allclose(d1, d2, atol=1e-9)


def test_xent_huge_logits_stay_finite():
    logits = np.array([[1e4, -1e4, 0.0]])
    loss, d = softmax_xent(logits, np.array([1]))
    assert np.isfinite(loss) and np.all(np.isfinite(d))
    assert loss == pytest.approx(2e4, rel=1e-6)


def test_xent_gradient_sums_to_zero_per_frame():
    rng = Rng(45)
    logits = rng.normal((4, 6))
    _, d = softmax_xent(logits, np.array([0, 1, 2, 3]))
    assert np.allclose(d.sum(axis=1), 0.0, atol=1e-12)


def test_xent_rejects_bad_inputs():
    logits = np.zeros((2, 3))
    with pytest.raises(ValueError):
        softmax_xent(np.zeros((0, 3)), np.zeros(0, dtype=int))
    with pytest.raises(ValueError):
        softmax_xent(logits, np.array([0, 3]))  # label out of range
    with pytest.raises(ValueError, match="one entry per frame"):
        softmax_xent(logits, np.array([0, 1, 2]))


def test_softmax_rows_normalizes():
    rng = Rng(46)
    p = softmax_rows(rng.normal((4, 5)) * 30)
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(p > 0)
