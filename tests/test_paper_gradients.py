"""The analytic gradients at the paper's widths, checked by directional derivatives.

Every check in vsr.gradcheck builds tiny shapes, where entry-wise central
differences are cheap. At the paper's widths (1144 pixels, a 2000-1000-500-50
encoder per stream, H=250 BLSTMs, a 1000->250 fusion BLSTM; 13.7M parameters)
they are not, so this test compares, for each parameter tensor, the analytic
gradient projected on one random unit direction supported on that tensor
with a central difference of the loss along that direction. A direction per
tensor, not one over the whole model, keeps a wrong row of a small tensor
from vanishing in the sum.
"""

import numpy as np

from vsr.gradcheck import _jitter_biases
from vsr.layers import softmax_xent
from vsr.model import (build_fusion, build_stream, fusion_backward_batch,
                       fusion_forward_batch, named_params, stream_backward_batch,
                       stream_forward_batch, stream_kinds)
from vsr.numerics import Rng

PIXELS, CLASSES = 1144, 10
LENGTHS = (5, 3, 4)
STEP = 1e-5
# |a - n| / max(|a|, |n|) per tensor. The worst tensor read 9.1e-7 at this seed
# and 2.5e-7 to 6.2e-6 at seeds 1-5: round-off in the loss difference. A row of
# fc_backward's d_w scaled by 1.001 reads 3.9e-4 on out.w, and a row of
# lstm_backward's d_wh scaled by 1.001 reads 2.0e-5 on raw.blstm.bwd.wh.
TOL = 1e-5


def test_every_paper_width_tensor_matches_its_directional_derivative():
    rng = Rng(0)
    raw, diff = (build_stream(input_dim=PIXELS, classes=CLASSES, rng=rng, stream_kind=kind,
                              dtype=np.float64) for kind in ("raw", "diff"))
    model = build_fusion(raw, diff, rng=rng)
    del raw, diff
    _jitter_biases(model, rng)
    params = named_params(model)
    assert len(params) == 36
    seqs = {kind: [rng.normal((t, PIXELS)).astype(np.float64) for t in LENGTHS]
            for kind in stream_kinds(model)}
    labels = rng.integers(CLASSES, (sum(LENGTHS),))

    feats, stream_cache = stream_forward_batch(model, seqs)
    logits, cache = fusion_forward_batch(model, feats, LENGTHS)
    d_feats, grads = fusion_backward_batch(model, cache, softmax_xent(logits, labels)[1])
    stream_backward_batch(model, stream_cache, d_feats, grads)

    def loss() -> float:
        feats, _ = stream_forward_batch(model, seqs, keep_cache=False)
        return softmax_xent(fusion_forward_batch(model, feats, LENGTHS, keep_cache=False)[0],
                            labels)[0]

    errors = {}
    for name, p in params.items():
        v = rng.normal(p.shape).astype(np.float64)
        v /= np.linalg.norm(v)
        analytic = float(np.vdot(grads[name], v))
        orig = p.copy()
        p += STEP * v
        f_plus = loss()
        p[...] = orig - STEP * v
        f_minus = loss()
        p[...] = orig
        numerical = (f_plus - f_minus) / (2 * STEP)
        errors[name] = abs(analytic - numerical) / max(abs(analytic), abs(numerical))
    worst = max(errors, key=errors.get)
    assert errors[worst] < TOL, f"{worst}: {errors[worst]:.3e} (all: {errors})"
