import copy
import os
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import ref_adam

from vsr.numerics import (
    ADAM_BLOCK,
    Adam,
    AdamState,
    NonFiniteError,
    Rng,
    clip_global_norm,
    glorot_init,
    require_finite,
)


def test_rng_reproducible():
    a = Rng(42)
    b = Rng(42)
    assert np.array_equal(a.normal((10,)), b.normal((10,)))
    assert np.array_equal(a.uniform(-1, 1, (5,)), b.uniform(-1, 1, (5,)))
    assert np.array_equal(a.permutation(20), b.permutation(20))
    assert np.array_equal(a.integers(7, (100,)), b.integers(7, (100,)))


def test_rng_seeds_differ():
    assert not np.array_equal(Rng(0).normal((50,)), Rng(1).normal((50,)))


def test_rng_integers_range():
    draws = Rng(3).integers(5, (2000,))
    assert draws.min() >= 0
    assert draws.max() <= 4
    assert set(np.unique(draws)) == {0, 1, 2, 3, 4}


def test_rng_permutation_is_permutation():
    p = Rng(9).permutation(31)
    assert sorted(p.tolist()) == list(range(31))


def test_glorot_bounds_strict():
    fan_in, fan_out = 7, 13
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    w = glorot_init(fan_in, fan_out, Rng(0))
    assert w.shape == (fan_out, fan_in)
    assert w.dtype == np.float32
    assert np.all(np.abs(w) < limit)


def test_glorot_deterministic():
    assert np.array_equal(glorot_init(30, 20, Rng(5)), glorot_init(30, 20, Rng(5)))
    assert not np.array_equal(glorot_init(30, 20, Rng(5)), glorot_init(30, 20, Rng(6)))


def test_glorot_spread():
    # Draws should actually fill the interval, not cluster at zero.
    w = glorot_init(100, 100, Rng(1), dtype=np.float64)
    limit = np.sqrt(6.0 / 200)
    assert np.abs(w).max() > 0.9 * limit
    assert abs(w.mean()) < 0.01


def test_adam_first_step_hand_trace():
    """One step with g=0.5, lr=0.1: both moment corrections cancel and the
    update is lr * g / (|g| + eps), slightly under 0.1 in magnitude."""
    p = np.array([1.0])
    Adam().step({"p": p}, {"p": np.array([0.5])}, lr=0.1)
    expected = 1.0 - 0.1 * (0.5 / (0.5 + 1e-8))
    assert abs(p[0] - expected) < 1e-12
    assert abs(p[0] - 0.9000000020) < 1e-9


def test_adam_second_step_hand_trace():
    p = np.array([1.0])
    opt = Adam()
    g = np.array([0.5])
    opt.step({"p": p}, {"p": g}, lr=0.1)
    opt.step({"p": p}, {"p": g}, lr=0.1)
    # With a constant gradient the corrected moments stay (0.5, 0.25),
    # so the second step repeats the first.
    assert abs(p[0] - 0.8000000040) < 1e-9


def test_adam_zero_lr_is_noop():
    p = np.array([1.5, -2.0])
    before = p.copy()
    opt = Adam()
    opt.step({"p": p}, {"p": np.array([3.0, -1.0])}, lr=0.0)
    assert np.array_equal(p, before)
    assert opt.state["p"].t == 1  # the step still counts


def test_adam_dict_optimizer_keeps_state_per_name():
    rng = Rng(11)
    params = {"a": rng.normal((4,)), "b": rng.normal((3, 2))}
    opt = Adam()
    grads = {"a": np.ones(4), "b": np.zeros((3, 2))}
    b_before = params["b"].copy()
    for _ in range(3):
        opt.step(params, grads, lr=0.01)
    assert np.array_equal(params["b"], b_before)  # zero grad, zero movement
    assert np.all(params["a"] < rng_a_start(11))
    assert opt.state["a"].t == 3


def rng_a_start(seed):
    return Rng(seed).normal((4,))


def test_adam_rejects_shape_mismatch():
    p = np.zeros(3)
    with pytest.raises(ValueError):
        Adam().step({"p": p}, {"p": np.zeros(4)}, lr=0.1)


# one element, exactly one block, one block plus one, several blocks, 0-d, 2-d
ADAM_SHAPES = [(1,), (ADAM_BLOCK,), (ADAM_BLOCK + 1,), (3 * ADAM_BLOCK + 5,), (),
               (4, 7), (300, 700)]


def fresh_state(p):
    return AdamState(m=np.zeros_like(p), v=np.zeros_like(p))


def random_tensors(rng, shapes, dtype):
    return {f"p{i}": np.asarray(rng.normal(shape), dtype=dtype)
            for i, shape in enumerate(shapes)}


def assert_same_state(opt_state, ref_state):
    for name, ref in ref_state.items():
        got = opt_state[name]
        assert got.t == ref.t, name
        assert np.array_equal(got.m, ref.m), name
        assert np.array_equal(got.v, ref.v), name


@settings(max_examples=30, deadline=None, derandomize=True)
@given(dtype=st.sampled_from([np.float32, np.float64]),
       shapes=st.lists(st.sampled_from(ADAM_SHAPES), min_size=1, max_size=4),
       steps=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
       lr=st.sampled_from([0.0, 1e-4, 3e-3, 0.5]))
def test_adam_matches_reference_bit_for_bit(dtype, shapes, steps, seed, lr):
    """Adam.step, over all tensors at once or one at a time, equals the
    textbook update exactly."""
    rng = Rng(seed)
    params = random_tensors(rng, shapes, dtype)
    ref = copy.deepcopy(params)
    single = copy.deepcopy(params)
    ref_state = {n: fresh_state(p) for n, p in ref.items()}
    opt, single_opt = Adam(), Adam()
    for _ in range(steps):
        grads = random_tensors(rng, shapes, dtype)
        opt.step(params, grads, lr)
        for name, g in grads.items():
            ref_adam(ref[name], g, ref_state[name], lr)
            single_opt.step({name: single[name]}, {name: g}, lr)
    for name in params:
        assert params[name].dtype == dtype
        assert np.array_equal(params[name], ref[name]), name
        assert np.array_equal(single[name], ref[name]), name
    assert_same_state(opt.state, ref_state)
    assert_same_state(single_opt.state, ref_state)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adam_non_finite_last_gradient_changes_nothing(bad, dtype):
    rng = Rng(5)
    shapes = [(3 * ADAM_BLOCK + 5,), (4, 7), ()]
    params = random_tensors(rng, shapes, dtype)
    opt = Adam()
    opt.step(params, random_tensors(rng, shapes, dtype), lr=0.01)
    params["late"] = np.ones(6, dtype=dtype)  # no moments yet
    before = copy.deepcopy(params)
    state_before = copy.deepcopy(opt.state)
    grads = random_tensors(rng, shapes, dtype)
    grads["late"] = np.ones(6, dtype=dtype)
    grads["late"][4] = bad
    with pytest.raises(NonFiniteError, match="'late'"):
        opt.step(params, grads, lr=0.01)
    for name in params:
        assert np.array_equal(params[name], before[name]), name
    assert set(opt.state) == set(state_before)
    assert_same_state(opt.state, state_before)


def test_adam_screen_passes_a_finite_gradient_whose_sum_overflows():
    p = np.zeros(4, dtype=np.float32)
    opt = Adam()
    with np.errstate(over="ignore"):
        opt.step({"p": p}, {"p": np.full(4, 3e38, dtype=np.float32)}, lr=0.1)
    assert np.all(np.isfinite(p)) and opt.state["p"].t == 1


def test_adam_rejects_dtype_mismatch():
    p = np.zeros(3, dtype=np.float32)
    opt = Adam()
    opt.state["p"] = st_ = fresh_state(p)
    with pytest.raises(ValueError, match="dtype"):
        opt.step({"p": p}, {"p": np.zeros(3)}, lr=0.1)
    assert st_.t == 0


def test_adam_non_contiguous_param_is_updated_in_place():
    base = Rng(2).normal((ADAM_BLOCK // 64, 130))
    p = base[:, ::2]  # a strided view: updated as one block, still in place
    ref = p.copy()
    g = Rng(3).normal(p.shape)
    opt = Adam()
    opt.step({"p": p}, {"p": g}, lr=0.01)
    ref_adam(ref, g, fresh_state(ref), lr=0.01)
    assert np.array_equal(base[:, ::2], ref)


def test_adam_concurrent_callers_get_the_reference_result():
    """More callers than cores, frequent thread switches: every caller still
    gets the reference result."""
    shapes = [(2 * ADAM_BLOCK + 3,), (50, 9)]
    results, errors = {}, []

    def run(k):
        try:
            rng = Rng(100 + k)
            params = random_tensors(rng, shapes, np.float32)
            ref = copy.deepcopy(params)
            ref_state = {n: fresh_state(p) for n, p in ref.items()}
            opt = Adam()
            for _ in range(3):
                grads = random_tensors(rng, shapes, np.float32)
                opt.step(params, grads, lr=0.01)
                for name, g in grads.items():
                    ref_adam(ref[name], g, ref_state[name], lr=0.01)
            results[k] = all(np.array_equal(params[n], ref[n]) for n in params)
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(k,)) for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert results == {k: True for k in range(6)}


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_adam_runs_in_a_forked_child():
    """A child forked after a step in the parent completes a step of its
    own."""
    shapes = [(3 * ADAM_BLOCK,)]
    params = random_tensors(Rng(0), shapes, np.float32)
    grads = random_tensors(Rng(1), shapes, np.float32)
    Adam().step(params, grads, lr=0.01)
    pid = os.fork()
    if pid == 0:  # child
        code = 1
        try:
            Adam().step(params, grads, lr=0.01)
            code = 0
        finally:
            os._exit(code)
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        time.sleep(0.01)
    else:
        os.kill(pid, 9)
        os.waitpid(pid, 0)
        pytest.fail("Adam step in a forked child did not finish")
    assert os.waitstatus_to_exitcode(status) == 0


def test_adam_step_starts_no_thread():
    """A multi-block step runs on the calling thread alone."""
    shapes = [(3 * ADAM_BLOCK + 5,), (50, 9)]
    params = random_tensors(Rng(0), shapes, np.float32)
    grads = random_tensors(Rng(1), shapes, np.float32)
    before = threading.active_count()
    Adam().step(params, grads, lr=0.01)
    assert threading.active_count() == before


def test_clip_scales_above_threshold():
    grads = [np.array([[3.0]]), np.array([[4.0]])]
    clipped, scale = clip_global_norm(grads, 2.5)
    assert scale == pytest.approx(0.5)
    assert clipped[0][0, 0] == pytest.approx(1.5)
    assert clipped[1][0, 0] == pytest.approx(2.0)
    norm_after = np.sqrt(sum(float((g ** 2).sum()) for g in clipped))
    assert norm_after == pytest.approx(2.5)


def test_clip_identity_below_threshold():
    grads = [np.array([[3.0]]), np.array([[4.0]])]
    clipped, scale = clip_global_norm(grads, 5.0)  # norm is exactly 5
    assert scale == 1.0
    assert clipped[0] is grads[0]


def test_clip_infinite_threshold_is_noop():
    g = [Rng(2).normal((6, 6)) * 100]
    clipped, scale = clip_global_norm(g, np.inf)
    assert scale == 1.0
    assert np.array_equal(clipped[0], g[0])


def test_clip_rejects_nonfinite():
    with pytest.raises(NonFiniteError):
        clip_global_norm([np.array([np.nan])], 1.0)


def test_require_finite_names_the_tensor():
    with pytest.raises(NonFiniteError, match="stream logits"):
        require_finite(np.array([1.0, np.inf]), "stream logits")
    x = np.arange(3.0)
    assert require_finite(x, "x") is x
