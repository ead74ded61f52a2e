import numpy as np
import pytest

from oracles import ref_sigmoid
from vsr.numerics import Rng
from vsr.rbm import (
    GaussianRbm,
    PretrainConfig,
    cd1_update,
    hidden_mean,
    pretrain_stack,
    rbm_init,
    reconstruct_visible,
    sample_hidden,
    train_rbm,
)


class ZeroNoise:
    """Stands in for an Rng; all Gaussian draws come back zero."""

    def normal(self, size=None):
        return np.zeros(size if size is not None else ())


def tiny_rbm(w, vbias=None, hbias=None, kind="rectified"):
    w = np.asarray(w, dtype=np.float64)
    return GaussianRbm(
        w=w,
        vbias=np.zeros(w.shape[1]) if vbias is None else np.asarray(vbias, float),
        hbias=np.zeros(w.shape[0]) if hbias is None else np.asarray(hbias, float),
        hidden_kind=kind,
    )


def test_init_statistics_and_shapes():
    rbm = rbm_init(50, 30, "rectified", Rng(0), dtype=np.float64)
    assert rbm.w.shape == (30, 50)
    assert np.all(rbm.vbias == 0) and np.all(rbm.hbias == 0)
    assert abs(rbm.w.std() - 0.01) < 0.002
    assert np.array_equal(rbm.w, rbm_init(50, 30, "rectified", Rng(0), np.float64).w)
    with pytest.raises(ValueError):
        rbm_init(4, 4, "binary", Rng(0))


def test_hidden_mean_rectifies():
    rbm = tiny_rbm([[1.0], [-1.0]])
    assert hidden_mean(rbm, np.array([2.0])).tolist() == [2.0, 0.0]
    lin = tiny_rbm([[1.0], [-1.0]], kind="linear")
    assert hidden_mean(lin, np.array([2.0])).tolist() == [2.0, -2.0]


def test_hidden_mean_batch_matches_rows():
    rng = Rng(2)
    rbm = rbm_init(6, 4, "rectified", Rng(3), np.float64)
    v = rng.normal((5, 6))
    batch = hidden_mean(rbm, v)
    rows = np.stack([hidden_mean(rbm, v[i]) for i in range(5)])
    assert np.allclose(batch, rows, atol=1e-12)


def test_sample_hidden_zero_noise_reduces_to_mean():
    rng = Rng(4)
    for kind in ("rectified", "linear"):
        rbm = rbm_init(5, 3, kind, Rng(5), np.float64)
        v = rng.normal((4, 5))
        assert np.allclose(sample_hidden(rbm, v, ZeroNoise()),
                           hidden_mean(rbm, v), atol=1e-12)


def test_sample_hidden_deep_negative_rectified_clamps_to_zero():
    # At a = -10 the noise variance sigmoid(a) is ~5e-5, so every draw lands
    # far below zero and the rectifier removes it.
    rbm = tiny_rbm([[1.0]], hbias=[-10.0])
    v = np.zeros((1000, 1))
    samples = sample_hidden(rbm, v, Rng(6))
    assert np.all(samples == 0.0)


def test_sample_hidden_linear_moments():
    rbm = tiny_rbm([[1.0]], kind="linear", hbias=[0.7])
    v = np.zeros((100_000, 1))
    samples = sample_hidden(rbm, v, Rng(7))
    assert abs(samples.mean() - 0.7) < 0.02
    assert abs(samples.std() - 1.0) < 0.02


def test_sample_hidden_rectified_noise_scale():
    # At a = 0 the variance is sigmoid(0) = 1/2 and the rectifier keeps the
    # positive half: mean of max(0, eps) with eps ~ N(0, 1/2) is
    # sqrt(1/2) / sqrt(2*pi).
    rbm = tiny_rbm([[1.0]])
    v = np.zeros((200_000, 1))
    samples = sample_hidden(rbm, v, Rng(8))
    want = np.sqrt(ref_sigmoid(0.0)) / np.sqrt(2 * np.pi)
    assert abs(samples.mean() - want) < 0.005


def test_reconstruct_visible():
    rbm = tiny_rbm([[1.0, 2.0], [0.5, -1.0]], vbias=[0.1, 0.2])
    got = reconstruct_visible(rbm, np.array([1.0, 2.0]))
    assert np.allclose(got, [1.0 * 1 + 0.5 * 2 + 0.1, 2.0 * 1 - 1.0 * 2 + 0.2])
    assert np.allclose(reconstruct_visible(rbm, np.zeros(2)), rbm.vbias)
    with pytest.raises(ValueError, match="hidden width 3 != rbm hidden 2"):
        reconstruct_visible(rbm, np.zeros(3))
    with pytest.raises(ValueError, match="visible width 3 != rbm visible 2"):
        hidden_mean(rbm, np.zeros(3))


def test_cd1_hand_trace():
    """Single visible, single rectified hidden, w=0.5, v=1, zero noise.

    h_pos = 0.5; sampled hidden = 0.5; v_neg = 0.25; h_neg = 0.125.
    dW = 0.5*1 - 0.125*0.25 = 0.46875 -> w = 0.5 + 0.1*0.46875 = 0.546875.
    dvb = 1 - 0.25 = 0.75 -> 0.075;  dhb = 0.5 - 0.125 = 0.375 -> 0.0375.
    error = (1 - 0.25)^2 = 0.5625.
    """
    rbm = tiny_rbm([[0.5]])
    cfg = PretrainConfig(lr=0.1, l2=0.0)
    err = cd1_update(rbm, np.array([[1.0]]), cfg, ZeroNoise())
    assert rbm.w[0, 0] == pytest.approx(0.546875, abs=1e-12)
    assert rbm.vbias[0] == pytest.approx(0.075, abs=1e-12)
    assert rbm.hbias[0] == pytest.approx(0.0375, abs=1e-12)
    assert err == pytest.approx(0.5625, abs=1e-12)


def test_cd1_weight_decay_pulls_weights_down():
    rbm_plain = tiny_rbm([[0.5]])
    rbm_decayed = tiny_rbm([[0.5]])
    v = np.array([[1.0]])
    cd1_update(rbm_plain, v, PretrainConfig(lr=0.1, l2=0.0), ZeroNoise())
    cd1_update(rbm_decayed, v, PretrainConfig(lr=0.1, l2=0.1), ZeroNoise())
    # decay subtracts lr*l2*w = 0.1*0.1*0.5 exactly, weights only
    assert rbm_plain.w[0, 0] - rbm_decayed.w[0, 0] == pytest.approx(0.005, abs=1e-12)
    assert rbm_plain.vbias[0] == rbm_decayed.vbias[0]
    assert rbm_plain.hbias[0] == rbm_decayed.hbias[0]


def test_cd1_zero_lr_changes_nothing_but_reports_error():
    rng = Rng(9)
    rbm = rbm_init(6, 3, "rectified", Rng(10), np.float64)
    w0, vb0, hb0 = rbm.w.copy(), rbm.vbias.copy(), rbm.hbias.copy()
    err = cd1_update(rbm, rng.normal((8, 6)), PretrainConfig(lr=0.0), Rng(11))
    assert np.array_equal(rbm.w, w0)
    assert np.array_equal(rbm.vbias, vb0)
    assert np.array_equal(rbm.hbias, hb0)
    assert err > 0.0


def test_cd1_fixed_point_with_zero_noise():
    # With w=0 and the data sitting exactly on the visible bias, the
    # negative phase reproduces the positive phase and nothing moves.
    rbm = tiny_rbm(np.zeros((3, 2)), vbias=[0.4, -0.2], hbias=[0.1, 0.0, -0.3])
    v = np.tile(np.array([0.4, -0.2]), (5, 1))
    err = cd1_update(rbm, v, PretrainConfig(lr=0.1, l2=0.0), ZeroNoise())
    assert np.all(rbm.w == 0.0)
    assert np.allclose(rbm.vbias, [0.4, -0.2], atol=1e-15)
    assert np.allclose(rbm.hbias, [0.1, 0.0, -0.3], atol=1e-15)
    assert err == pytest.approx(0.0, abs=1e-15)


def test_cd1_rejects_empty_batch():
    rbm = tiny_rbm([[0.5]])
    with pytest.raises(ValueError):
        cd1_update(rbm, np.zeros((0, 1)), PretrainConfig(), Rng(0))
    with pytest.raises(ValueError, match="at least one frame"):
        train_rbm(rbm, np.zeros((0, 1)), PretrainConfig(), Rng(0))


def test_train_rbm_epoch_count_and_error_drop():
    rng = Rng(12)
    frames = rng.normal((200, 10)).astype(np.float32)
    rbm = rbm_init(10, 6, "rectified", Rng(13))
    cfg = PretrainConfig(epochs=5, batch=32, lr=0.01, l2=0.0, seed=0)
    errors = train_rbm(rbm, frames, cfg, Rng(14))
    assert len(errors) == 5
    assert all(np.isfinite(e) and e >= 0 for e in errors)
    assert errors[-1] < errors[0]


def test_train_rbm_reproducible():
    frames = Rng(15).normal((60, 8)).astype(np.float32)
    runs = []
    for _ in range(2):
        rbm = rbm_init(8, 4, "rectified", Rng(16))
        train_rbm(rbm, frames, PretrainConfig(epochs=3, batch=16), Rng(17))
        runs.append(rbm.w.copy())
    assert np.array_equal(runs[0], runs[1])


def test_pretrain_stack_shapes_and_activations():
    frames = Rng(18).normal((4, 30)).astype(np.float32)
    cfg = PretrainConfig(epochs=0)
    layers, history = pretrain_stack([30, 16, 8, 5], frames, cfg)
    assert [l.w.shape for l in layers] == [(16, 30), (8, 16), (5, 8)]
    assert [l.activation for l in layers] == ["relu", "relu", "linear"]
    assert history == [[], [], []]


def test_pretrain_stack_zero_epochs_is_the_seeded_init():
    frames = Rng(19).normal((3, 12)).astype(np.float32)
    layers, _ = pretrain_stack([12, 7, 4], frames, PretrainConfig(epochs=0, seed=21))
    # replay the documented draw order: one init per layer from Rng(seed)
    rng = Rng(21)
    for layer, (vis, hid, kind) in zip(layers,
                                       [(12, 7, "rectified"), (7, 4, "linear")]):
        want = rbm_init(vis, hid, kind, rng)
        assert np.array_equal(layer.w, want.w)
        assert np.all(layer.b == 0.0)


def test_pretrain_stack_greedy_layers_do_not_reach_back():
    # Adding a deeper layer must not change how the first one trains. The
    # first layer is rectified in both stacks, so its draws line up.
    frames = Rng(20).normal((50, 9)).astype(np.float32)
    cfg = PretrainConfig(epochs=2, batch=16, seed=5)
    shallow, _ = pretrain_stack([9, 6, 4], frames, cfg)
    deep, _ = pretrain_stack([9, 6, 4, 3], frames, cfg)
    assert np.array_equal(shallow[0].w, deep[0].w)
    assert np.array_equal(shallow[0].b, deep[0].b)


def test_pretrain_stack_history_lengths():
    frames = Rng(23).normal((40, 7)).astype(np.float32)
    cfg = PretrainConfig(epochs=3, batch=16)
    layers, history = pretrain_stack([7, 5, 3], frames, cfg)
    assert len(history) == 2
    assert all(len(h) == 3 for h in history)


def test_pretrain_config_validation():
    with pytest.raises(ValueError):
        PretrainConfig(epochs=-1)
    with pytest.raises(ValueError):
        PretrainConfig(batch=0)
    with pytest.raises(ValueError):
        PretrainConfig(lr=-0.1)
    # NaN fails every bound when the config is built
    for bad in (dict(lr=float("nan")), dict(l2=float("nan")), dict(l2=-1.0)):
        with pytest.raises(ValueError, match="bad pretraining config"):
            PretrainConfig(**bad)


def test_pretrain_stack_rejects_bad_frames():
    with pytest.raises(ValueError):
        pretrain_stack([5, 3], np.zeros((0, 5), dtype=np.float32), PretrainConfig())
    with pytest.raises(ValueError):
        pretrain_stack([5, 3], np.zeros((4, 6), dtype=np.float32), PretrainConfig())
    with pytest.raises(ValueError, match="an input width and one hidden width"):
        pretrain_stack([5], np.zeros((4, 5), dtype=np.float32), PretrainConfig())
