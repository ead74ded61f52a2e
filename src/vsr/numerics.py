"""Deterministic numeric foundations: RNG, initializers, Adam, clipping.

All tensors are plain numpy arrays (row-major, rank 1-3). Training runs in
float32, or float64 under --precision f64; gradient checking runs the whole
graph in float64: finite-difference tolerances are out of float32's reach.

The Adam update is one in-place kernel applied block by block: every
tensor is cut into slices of ADAM_BLOCK elements, small enough that a
block's parameter, gradient, moments and two scratch buffers stay in L2
cache while the kernel's passes run over them. The blocks run one after
another on the calling thread. Every operation is elementwise, so the
blocking changes no bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_DTYPE = np.float32

_UINT64_MASK = (1 << 64) - 1


class NonFiniteError(ValueError):
    """A tensor that must be finite contains NaN or Inf."""


def require_finite(arr: np.ndarray, what: str = "tensor") -> np.ndarray:
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"non-finite values in {what}")
    return arr


class Rng:
    """Seeded, platform-independent random source.

    Wraps numpy's Philox 4x64 counter-based bit generator: the same 64-bit
    seed yields the same value stream on every platform. Uniform doubles
    carry 53 random mantissa bits; standard normals use the ziggurat method.
    One Rng instance drives all sampling of a run (init, RBM noise,
    shuffling) so a recorded seed reproduces the run bit-for-bit.
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & _UINT64_MASK
        self._gen = np.random.Generator(np.random.Philox(self.seed))

    def uniform(self, low: float = 0.0, high: float = 1.0, size=None):
        return self._gen.uniform(low, high, size)

    def normal(self, size=None):
        return self._gen.standard_normal(size)

    def integers(self, high: int, size=None):
        """Uniform integers in [0, high)."""
        return self._gen.integers(0, high, size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)


def glorot_init(fan_in: int, fan_out: int, rng: Rng, dtype=DEFAULT_DTYPE) -> np.ndarray:
    """Uniform Glorot sheet of shape [fan_out, fan_in].

    Entries are i.i.d. uniform on (-L, L) with L = sqrt(6 / (fan_in + fan_out)),
    kept strictly inside the bound even after the dtype cast.
    """
    if fan_in < 1 or fan_out < 1:
        raise ValueError(f"fan_in and fan_out must be >= 1, got {fan_in}, {fan_out}")
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    w = rng.uniform(-limit, limit, (fan_out, fan_in)).astype(dtype)
    # rounding during the cast may land exactly on +/-L; pull those inside
    bound = np.nextafter(np.asarray(limit, dtype=dtype), np.asarray(0, dtype=dtype))
    return np.clip(w, -bound, bound)


@dataclass
class AdamState:
    """Per-parameter Adam moments; shapes mirror the parameter."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0


# Kingma & Ba's defaults (arXiv:1412.6980), fixed for every fit
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

# 64Ki elements is 256 KiB per float32 array (512 KiB in float64): the six
# arrays the kernel touches fit a 4 MiB L2 cache.
ADAM_BLOCK = 1 << 16


def _adam_kernel(p, g, m, v, s1, s2, bc1, bc2, lr):
    """The Adam arithmetic on one block, in place; s1 and s2 are scratch.

    m <- b1*m + (1-b1)*g;  v <- b2*v + (1-b2)*g^2;
    p <- p - (lr/bc1) * m / (sqrt(v/bc2) + eps).
    """
    m *= BETA1
    m += np.multiply(g, 1.0 - BETA1, out=s1)
    v *= BETA2
    np.square(g, out=s1)
    s1 *= 1.0 - BETA2
    v += s1
    np.divide(v, bc2, out=s2)
    np.sqrt(s2, out=s2)
    s2 += EPS
    np.multiply(m, lr / bc1, out=s1)
    s1 /= s2
    p -= s1


def _adam_update(jobs, lr: float) -> None:
    """Update checked (param, grad, state) triples whose t is already advanced.

    Each tensor runs as ADAM_BLOCK-element slices of its flat views, in
    order on the calling thread (a tensor that is not C-contiguous is one
    block), every block reusing one scratch pair.
    """
    lr, buf = float(lr), None
    for p, g, st in jobs:
        bc1, bc2 = 1.0 - BETA1 ** st.t, 1.0 - BETA2 ** st.t
        arrays = (p, g, st.m, st.v)
        if p.flags.c_contiguous and st.m.flags.c_contiguous and st.v.flags.c_contiguous:
            flat = [a.reshape(-1) for a in arrays]
            blocks = ([a[i:i + ADAM_BLOCK] for a in flat]
                      for i in range(0, p.size, ADAM_BLOCK))
        else:
            blocks = [arrays]
        for bp, bg, bm, bv in blocks:
            if buf is None or buf.dtype != bp.dtype or buf.shape[1] < bp.size:
                buf = np.empty((2, max(bp.size, ADAM_BLOCK)), bp.dtype)
            s1, s2 = (row[:bp.size].reshape(bp.shape) for row in buf)
            _adam_kernel(bp, bg, bm, bv, s1, s2, bc1, bc2, lr)


def _adam_check(param: np.ndarray, grad: np.ndarray, m_shape, what: str) -> None:
    """Refuse mismatched shapes or dtypes and non-finite gradients."""
    if param.shape != grad.shape or param.shape != m_shape or param.dtype != grad.dtype:
        raise ValueError(
            f"adam shape or dtype mismatch in {what}: param {param.shape} "
            f"{param.dtype}, grad {grad.shape} {grad.dtype}, m {m_shape}"
        )
    # cheap screen first: a sum of squares cannot cancel, so NaN or Inf
    # always shows in it; an overflow only sends the step to the exact check
    flat = grad.reshape(-1)
    if not math.isfinite(float(np.dot(flat, flat))):
        require_finite(grad, what)


class Adam:
    """Adam over a named parameter dict, one moment pair per tensor.

    m <- b1*m + (1-b1)*g;  v <- b2*v + (1-b2)*g^2;
    param <- param - lr * m_hat / (sqrt(v_hat) + eps).

    Arithmetic is in each parameter's dtype: its gradient must share it,
    and lr and the fixed BETA1, BETA2 and EPS are applied as Python floats.
    A step is all or nothing: every shape is checked and every gradient
    screened for NaN/Inf before any parameter, moment or step count changes.
    The update itself runs blocked on the calling thread (module docstring),
    with the same result bit for bit as one tensor at a time.
    """

    def __init__(self):
        self.state: dict[str, AdamState] = {}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray], lr: float):
        for name, p in params.items():
            st = self.state.get(name)
            _adam_check(p, grads[name], p.shape if st is None else st.m.shape,
                        f"adam gradient {name!r}")
        jobs = []
        for name, p in params.items():
            st = self.state.get(name)
            if st is None:
                st = self.state[name] = AdamState(np.zeros_like(p), np.zeros_like(p))
            st.t += 1
            jobs.append((p, grads[name], st))
        _adam_update(jobs, lr)


# float64 elements squared at once when clip_global_norm takes a norm
CLIP_BLOCK = 1 << 16


def _square_sum(flat: np.ndarray, buf: np.ndarray) -> float:
    """np.square(flat, dtype=np.float64).sum() bit for bit, a block at a time.

    numpy sums a contiguous array pairwise, splitting n elements at n // 2
    rounded down to a multiple of 8. Recursing on the same split points
    down to CLIP_BLOCK elements and summing each block, squared into buf,
    in one call repeats every addition in its order.
    """
    n = flat.size
    if n <= CLIP_BLOCK:
        return np.square(flat, out=buf[:n], dtype=np.float64).sum()
    half = n // 2 - n // 2 % 8
    return _square_sum(flat[:half], buf) + _square_sum(flat[half:], buf)


def clip_global_norm(grads, threshold: float):
    """Scale a tensor group so its global L2 norm is at most threshold.

    Returns (scaled tensors, applied scale). Inputs are left untouched;
    when the norm is already within the threshold the originals are
    returned with scale 1.0. Each tensor's squares are summed in C order
    (_square_sum), so no tensor-sized float64 temporary is made.
    """
    if not threshold > 0:
        raise ValueError(f"clip threshold must be > 0, got {threshold}")
    grads = list(grads)
    buf = np.empty(min(CLIP_BLOCK, max((g.size for g in grads), default=0)), np.float64)
    total = 0.0
    for g in grads:
        total += float(_square_sum(g.reshape(-1), buf))
    norm = math.sqrt(total)
    if not math.isfinite(norm):
        raise NonFiniteError("non-finite values in gradients passed to clip_global_norm")
    if norm <= threshold:
        return grads, 1.0
    scale = threshold / norm
    return [g * scale for g in grads], scale
