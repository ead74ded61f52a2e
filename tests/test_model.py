import hashlib
import struct

import numpy as np
import pytest

from oracles import ref_delta, ref_lstm, ref_softmax
from stages import backward, forward
from vsr.fileio import read_tensors, write_tensors
from vsr.layers import MAX_THETA, DeltaWindow, FcLayer, blstm_backward, blstm_forward, fc_init
from vsr.model import (
    CheckpointError,
    EncoderStack,
    SingleStreamModel,
    _layers,
    astype_model,
    build_fusion,
    build_stream,
    clip_group,
    load_checkpoint,
    named_params,
    predict_label,
    save_checkpoint,
)
from vsr.numerics import Rng
from vsr.rbm import PretrainConfig, pretrain_stack


def tiny_stream(classes=3, kind="raw", seed=0, dtype=np.float64, hidden=3):
    return build_stream(input_dim=6, classes=classes, hidden=hidden, rng=Rng(seed),
                        stream_kind=kind, encoder_sizes=(5, 4), bottleneck=2,
                        theta=2, dtype=dtype)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_build_stream_default_architecture_shapes():
    model = build_stream(input_dim=1144, classes=10, hidden=20, rng=Rng(0))
    enc = model.net.encoder
    assert [l.w.shape for l in enc] == [(2000, 1144), (1000, 2000),
                                        (500, 1000), (50, 500)]
    assert [l.activation for l in enc] == ["relu", "relu", "relu", "linear"]
    assert model.net.blstm.fwd.wx.shape == (80, 150)  # 4H x 3*bottleneck
    assert model.head.w.shape == (10, 40)
    assert model.net.delta.theta == 2


def test_build_stream_reproducible_and_seed_sensitive():
    a = named_params(tiny_stream(seed=5))
    b = named_params(tiny_stream(seed=5))
    c = named_params(tiny_stream(seed=6))
    assert set(a) == set(b) == set(c)
    for name in a:
        assert np.array_equal(a[name], b[name]), name
    assert any(not np.array_equal(a[n], c[n]) for n in a)
    # an omitted rng draws as Rng(0)
    omitted = named_params(build_stream(input_dim=6, classes=3, hidden=3,
                                        encoder_sizes=(5, 4), bottleneck=2, theta=2))
    seeded = named_params(tiny_stream(seed=0, dtype=np.float32))
    assert all(np.array_equal(p, seeded[n]) for n, p in omitted.items())


def test_build_stream_accepts_matching_pretrained_encoder():
    rng = Rng(1)
    enc = [fc_init(6, 5, rng, "relu", np.float64),
           fc_init(5, 4, rng, "relu", np.float64),
           fc_init(4, 2, rng, "linear", np.float64)]
    model = build_stream(input_dim=6, classes=3, hidden=3, rng=Rng(2),
                         stream_kind="raw", encoder_init=enc,
                         encoder_sizes=(5, 4), bottleneck=2, dtype=np.float64)
    # the model holds the given arrays, so a pretrained encoder is held once
    assert all(mine.w is given.w and mine.b is given.b
               for mine, given in zip(model.net.encoder, enc))


def test_build_stream_rejects_mismatched_encoder():
    enc = [fc_init(7, 5, Rng(0), "relu")]
    with pytest.raises(ValueError, match="shapes"):
        build_stream(input_dim=6, classes=3, rng=Rng(0), encoder_init=enc,
                     encoder_sizes=(5,), bottleneck=2)
    enc = [fc_init(6, 5, Rng(0), "relu", np.float32), fc_init(5, 2, Rng(0), "linear", np.float32)]
    with pytest.raises(ValueError, match="dtype float32 is not the model's float64"):
        build_stream(input_dim=6, classes=3, rng=Rng(0), encoder_init=enc,
                     encoder_sizes=(5,), bottleneck=2, dtype=np.float64)


def test_build_fusion_checks_streams():
    raw = tiny_stream(kind="raw")
    diff = tiny_stream(kind="diff", seed=1)
    fused = build_fusion(raw, diff, hidden=4, rng=Rng(3), dtype=np.float64)
    assert fused.fusion_blstm.fwd.wx.shape == (16, 12)  # input 2*3 + 2*3
    assert fused.out.w.shape == (3, 8)
    with pytest.raises(ValueError, match="raw and a diff"):
        build_fusion(raw, raw)
    with pytest.raises(ValueError, match="class"):
        build_fusion(raw, tiny_stream(classes=4, kind="diff"))


def test_build_fusion_copies_stream_weights():
    raw = tiny_stream(kind="raw")
    diff = tiny_stream(kind="diff", seed=1)
    fused = build_fusion(raw, diff, hidden=3, rng=Rng(0), dtype=np.float64)
    assert np.array_equal(fused.raw.encoder[0].w, raw.net.encoder[0].w)
    fused.raw.encoder[0].w += 1.0
    assert not np.array_equal(fused.raw.encoder[0].w, raw.net.encoder[0].w)


def test_build_fusion_defaults_to_the_raw_streams_width():
    raw = tiny_stream(kind="raw", hidden=3)
    diff = tiny_stream(kind="diff", seed=1, hidden=5)
    fused = build_fusion(raw, diff, rng=Rng(0), dtype=np.float64)
    assert fused.fusion_blstm.hidden == 3
    assert fused.fusion_blstm.fwd.wx.shape == (12, 2 * 3 + 2 * 5)
    assert fused.out.w.shape == (3, 6)


@pytest.mark.parametrize("source, dtype", [(np.float32, np.float64),
                                           (np.float64, np.float32)])
def test_build_fusion_holds_one_precision(source, dtype):
    """The copied streams take the fusion layers' dtype, so no layer call
    of the built model mixes precisions."""
    raw = tiny_stream(kind="raw", dtype=source)
    diff = tiny_stream(kind="diff", seed=1, dtype=source)
    fused = build_fusion(raw, diff, hidden=2, rng=Rng(0), dtype=dtype)
    assert {p.dtype for p in named_params(fused).values()} == {np.dtype(dtype)}
    assert all(p.dtype == source for p in named_params(raw).values())
    rng = Rng(2)
    logits, _ = forward(fused, {k: [rng.normal((4, 6)).astype(dtype)]
                                for k in ("raw", "diff")}, keep_cache=False)
    assert logits.dtype == dtype
    # by default the fusion keeps the streams' dtype and draws from Rng(0)
    default = named_params(build_fusion(raw, diff, hidden=2))
    want = named_params(build_fusion(raw, diff, hidden=2, rng=Rng(0), dtype=source))
    assert all(p.dtype == source and np.array_equal(p, want[n]) for n, p in default.items())


def test_named_params_cover_everything_once():
    model = tiny_stream()
    names = list(named_params(model))
    assert len(names) == len(set(names))
    assert "enc0.w" in names and "head.b" in names
    assert "blstm.fwd.wx" in names and "blstm.bwd.b" in names

    fused = build_fusion(tiny_stream(kind="raw"), tiny_stream(kind="diff", seed=1),
                         hidden=3, rng=Rng(0), dtype=np.float64)
    fnames = list(named_params(fused))
    assert "raw.enc0.w" in fnames and "diff.blstm.fwd.wx" in fnames
    assert "fusion_blstm.bwd.wh" in fnames and "out.w" in fnames


def test_clip_group_selects_recurrent_tensors():
    model = tiny_stream()
    names = named_params(model)
    group = clip_group(names)
    assert all("blstm" in n for n in group)
    assert any(n.startswith("blstm.fwd") for n in group)
    assert "head.w" not in group and "enc0.w" not in group


# ---------------------------------------------------------------------------
# forward composition
# ---------------------------------------------------------------------------

def test_stream_forward_matches_stagewise_reference():
    """Recompute encoder -> deltas -> BLSTM -> head with the plain oracles."""
    model = tiny_stream(dtype=np.float64)
    rng = Rng(9)
    seq = rng.normal((7, 6))
    got, _ = forward(model, {"raw": [seq]})

    x = seq
    for layer in model.net.encoder:
        pre = x @ layer.w.T + layer.b
        x = np.maximum(pre, 0) if layer.activation == "relu" else pre
    d1 = ref_delta(x, 2)
    d2 = ref_delta(d1, 2)
    feats = np.concatenate([x, d1, d2], axis=1)
    bl = model.net.blstm
    h = np.concatenate([ref_lstm(bl.fwd.wx, bl.fwd.wh, bl.fwd.b, feats),
                        ref_lstm(bl.bwd.wx, bl.bwd.wh, bl.bwd.b, feats, reverse=True)],
                       axis=1)
    want = h @ model.head.w.T + model.head.b
    assert got.shape == (7, 3)
    assert np.allclose(got, want, atol=1e-10)


def test_stream_forward_batch_matches_singles():
    model = tiny_stream(dtype=np.float64)
    rng = Rng(10)
    seqs = [rng.normal((t, 6)) for t in (3, 5, 2)]
    stacked, _ = forward(model, {"raw": seqs})
    assert stacked.shape == (10, 3)
    singles = [forward(model, {"raw": [s]})[0] for s in seqs]
    assert np.allclose(stacked, np.concatenate(singles), atol=1e-10)


def test_stream_forward_single_frame():
    model = tiny_stream(dtype=np.float64)
    logits, _ = forward(model, {"raw": [Rng(11).normal((1, 6))]})
    assert logits.shape == (1, 3)
    assert np.all(np.isfinite(logits))


def blstm_output(net, seq):
    """A stream net's BLSTM output [T, 2H], read through an identity head."""
    width = 2 * net.blstm.hidden
    probe = SingleStreamModel(net=net, head=FcLayer(np.eye(width), np.zeros(width)))
    return forward(probe, {net.stream_kind: [seq]})[0]


def test_fusion_forward_matches_manual_concat():
    raw = tiny_stream(kind="raw", dtype=np.float64)
    diff = tiny_stream(kind="diff", seed=1, dtype=np.float64)
    fused = build_fusion(raw, diff, hidden=3, rng=Rng(4), dtype=np.float64)
    rng = Rng(12)
    seq_raw, seq_diff = rng.normal((5, 6)), rng.normal((5, 6))
    logits, _ = forward(fused, {"raw": [seq_raw], "diff": [seq_diff]})

    h_raw = blstm_output(fused.raw, seq_raw)
    h_diff = blstm_output(fused.diff, seq_diff)
    joint = np.concatenate([h_raw, h_diff], axis=1)
    bl = fused.fusion_blstm
    h = np.concatenate([ref_lstm(bl.fwd.wx, bl.fwd.wh, bl.fwd.b, joint),
                        ref_lstm(bl.bwd.wx, bl.bwd.wh, bl.bwd.b, joint, reverse=True)],
                       axis=1)
    want = h @ fused.out.w.T + fused.out.b
    assert np.allclose(logits, want, atol=1e-10)


def test_fusion_rejects_length_mismatch():
    fused = build_fusion(tiny_stream(kind="raw"), tiny_stream(kind="diff", seed=1),
                         hidden=3, rng=Rng(0), dtype=np.float64)
    rng = Rng(13)
    with pytest.raises(ValueError, match="length"):
        forward(fused, {"raw": [rng.normal((4, 6))], "diff": [rng.normal((5, 6))]})


def test_fusion_head_zeroed_outputs_its_bias():
    fused = build_fusion(tiny_stream(kind="raw"), tiny_stream(kind="diff", seed=1),
                         hidden=3, rng=Rng(0), dtype=np.float64)
    fused.out.w[:] = 0.0
    fused.out.b[:] = np.array([1.0, -2.0, 0.5])
    rng = Rng(14)
    logits, _ = forward(fused, {"raw": [rng.normal((4, 6))], "diff": [rng.normal((4, 6))]})
    assert np.allclose(logits, [1.0, -2.0, 0.5], atol=1e-12)


# ---------------------------------------------------------------------------
# utterance-level prediction
# ---------------------------------------------------------------------------

def one_hotish(rows, scale=10.0):
    """Logits whose per-frame argmax follows rows."""
    out = np.zeros((len(rows), max(rows) + 1))
    for t, k in enumerate(rows):
        out[t, k] = scale
    return out


def test_predict_label_majority():
    assert predict_label(one_hotish([0, 0, 1])) == 0
    assert predict_label(one_hotish([2, 1, 2, 0, 2])) == 2
    assert predict_label(one_hotish([1])) == 1


def test_predict_label_tie_breaks_on_summed_posterior():
    # frame 0 votes class 0, frame 1 votes class 1; class 1 holds the
    # larger summed posterior (0.35 + 0.60 vs 0.55 + 0.35 for class 0).
    logits = np.log(np.array([[0.55, 0.35, 0.10],
                              [0.35, 0.60, 0.05]]))
    assert predict_label(logits) == 1
    # flip the balance and the tie resolves the other way
    logits2 = np.log(np.array([[0.60, 0.35, 0.05],
                               [0.40, 0.55, 0.05]]))
    assert predict_label(logits2) == 0


def test_predict_label_exact_tie_takes_smaller_index():
    logits = np.array([[2.0, 1.0], [1.0, 2.0]])  # mirrored: posteriors tie
    assert predict_label(logits) == 0


def test_predict_label_invariant_to_per_frame_shifts():
    rng = Rng(15)
    logits = rng.normal((6, 4))
    shifted = logits + rng.normal((6,))[:, None]
    assert predict_label(logits) == predict_label(shifted)


def test_predict_label_posterior_tiebreak_matches_reference():
    rng = Rng(16)
    for _ in range(20):
        logits = rng.normal((2, 3))
        votes = np.bincount(np.argmax(logits, axis=1), minlength=3)
        top = np.flatnonzero(votes == votes.max())
        want = top[0]
        if len(top) > 1:
            sums = np.stack([ref_softmax(r) for r in logits]).sum(axis=0)
            best = max(top, key=lambda k: (sums[k], -k))
            want = int(best)
        assert predict_label(logits) == want


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def test_checkpoint_roundtrip_stream(tmp_path):
    model = tiny_stream(dtype=np.float32)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model, extra_meta={"note": "unit"})
    again = load_checkpoint(path)
    meta = again.meta
    assert meta["kind"] == "stream" and meta["stream"] == "raw"
    assert meta["note"] == "unit"
    a, b = named_params(model), named_params(again)
    assert set(a) == set(b)
    for name in a:
        assert np.array_equal(a[name], b[name]), name
    assert again.net.delta.theta == model.net.delta.theta
    # logits agree bit for bit
    seq = Rng(17).normal((4, 6)).astype(np.float32)
    assert np.array_equal(forward(model, {"raw": [seq]})[0],
                          forward(again, {"raw": [seq]})[0])


def test_checkpoint_roundtrip_fusion(tmp_path):
    fused = build_fusion(tiny_stream(kind="raw"), tiny_stream(kind="diff", seed=1),
                         hidden=3, rng=Rng(5), dtype=np.float64)
    path = tmp_path / "f.ckpt"
    save_checkpoint(path, fused)
    again = load_checkpoint(path)
    assert again.meta["kind"] == "fusion"
    a, b = named_params(fused), named_params(again)
    for name in a:
        assert b[name].dtype == np.float64
        assert np.array_equal(a[name], b[name]), name


def test_checkpoint_roundtrip_encoder_stack(tmp_path):
    rng = Rng(6)
    stack = EncoderStack(layers=[fc_init(8, 5, rng, "relu"),
                                 fc_init(5, 2, rng, "linear")],
                         meta={"kind": "encoder"})
    path = tmp_path / "e.ckpt"
    save_checkpoint(path, stack)
    again = load_checkpoint(path)
    assert isinstance(again, EncoderStack)
    assert [l.activation for l in again.layers] == ["relu", "linear"]
    assert np.array_equal(again.layers[0].w, stack.layers[0].w)


def test_checkpoint_save_load_save_is_byte_identical(tmp_path):
    model = tiny_stream()
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(p1, model)
    again = load_checkpoint(p1)
    save_checkpoint(p2, again)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_magic_pinned(tmp_path):
    # the version names the dtype of every tensor in the file
    path = tmp_path / "m.ckpt"
    for dtype, version in ((np.float32, 1), (np.float64, 2)):
        save_checkpoint(path, tiny_stream(dtype=dtype))
        head = path.read_bytes()[:6]
        assert head[:4] == b"VSRM"
        assert int.from_bytes(head[4:6], "little") == version


def test_checkpoint_truncation_detected(tmp_path):
    path = tmp_path / "t.ckpt"
    save_checkpoint(path, tiny_stream())
    blob = path.read_bytes()
    path.write_bytes(blob[:-3])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)


def test_checkpoint_truncation_names_the_file(tmp_path):
    path = tmp_path / "t.ckpt"
    save_checkpoint(path, tiny_stream())
    path.write_bytes(path.read_bytes()[:12])  # inside the first metadata key
    with pytest.raises(CheckpointError, match="truncated: wanted") as err:
        load_checkpoint(path)
    assert f"checkpoint {path}: truncated" in str(err.value)


def test_checkpoint_tensor_cut_short_is_named(tmp_path):
    path = tmp_path / "t.ckpt"
    save_checkpoint(path, tiny_stream())
    path.write_bytes(path.read_bytes()[:-4])  # head.b, the last tensor, loses half a value
    with pytest.raises(CheckpointError) as err:
        load_checkpoint(path)
    assert (f"checkpoint {path}: truncated: tensor 'head.b' of shape (3,) needs 24 bytes, "
            f"20 are left") in str(err.value)


def test_checkpoint_refuses_a_declared_size_past_the_file(tmp_path):
    # 2**31 * 2**31 * 4 elements wrap to 0 in 64-bit integers
    path = tmp_path / "huge.ckpt"
    write_tensors(path, {"kind": "encoder"}, [("enc0.w", np.zeros((2, 2), dtype=np.float32))])
    shape = struct.pack("<I", 2) + struct.pack("<2I", 2, 2)
    blob = path.read_bytes()
    assert blob.count(shape) == 1
    path.write_bytes(blob.replace(shape, struct.pack("<I", 3)
                                  + struct.pack("<3I", 2**31, 2**31, 4)))
    with pytest.raises(CheckpointError) as err:
        load_checkpoint(path)
    assert (f"checkpoint {path}: truncated: tensor 'enc0.w' of shape "
            f"({2**31}, {2**31}, 4) needs {2**66} bytes, 16 are left") in str(err.value)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_checkpoint_refuses_a_non_finite_weight(tmp_path, value):
    weights = np.zeros((12, 3), dtype=np.float32)
    weights[5, 1] = value
    with pytest.raises(CheckpointError) as err:
        tampered(tmp_path, "stream", tensors={"blstm.bwd.wh": weights})
    assert (f"checkpoint {tmp_path / 't.ckpt'}: tensor 'blstm.bwd.wh' holds non-finite "
            f"values") in str(err.value)


def test_checkpoint_loads_the_largest_finite_weights(tmp_path):
    weights = np.full((12, 3), np.finfo(np.float32).max, dtype=np.float32)
    weights[::2] *= -1
    model = tampered(tmp_path, "stream", tensors={"blstm.bwd.wh": weights})
    assert np.array_equal(model.net.blstm.bwd.wh, weights)


def test_checkpoint_loads_huge_finite_float64_weights(tmp_path):
    """A float64 sum of these overflows; every value is finite all the same."""
    weights = np.full((12, 3), 1e308)
    model = tampered(tmp_path, "stream", tensors={"blstm.bwd.wh": weights})
    assert model.net.blstm.bwd.wh.dtype == np.float64
    assert np.array_equal(model.net.blstm.bwd.wh, weights)


def test_checkpoint_trailing_garbage_detected(tmp_path):
    path = tmp_path / "g.ckpt"
    save_checkpoint(path, tiny_stream())
    path.write_bytes(path.read_bytes() + b"xx")
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_bad_magic_detected(tmp_path):
    path = tmp_path / "b.ckpt"
    save_checkpoint(path, tiny_stream())
    blob = bytearray(path.read_bytes())
    blob[:4] = b"NOPE"
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def test_checkpoint_expect_mismatch(tmp_path):
    path = tmp_path / "e.ckpt"
    save_checkpoint(path, tiny_stream(classes=3))
    with pytest.raises(CheckpointError, match="classes"):
        load_checkpoint(path, expect={"classes": "26"})
    model = load_checkpoint(path, expect={"classes": "3"})
    assert model.classes == 3


def test_astype_model_roundtrip():
    model = tiny_stream(dtype=np.float32)
    up = astype_model(model, np.float64)
    assert all(p.dtype == np.float64 for p in named_params(up).values())
    down = astype_model(up, np.float32)
    a, b = named_params(model), named_params(down)
    for name in a:
        assert np.array_equal(a[name], b[name]), name


# ---------------------------------------------------------------------------
# the layer table
# ---------------------------------------------------------------------------

def tiny_fusion():
    return build_fusion(tiny_stream(kind="raw"), tiny_stream(kind="diff", seed=1),
                        hidden=3, rng=Rng(5), dtype=np.float64)


def tiny_encoder():
    layers, _ = pretrain_stack([6, 5, 2], Rng(4).normal((10, 6)),
                               PretrainConfig(epochs=0, seed=3))
    return EncoderStack(layers=layers, meta={"kind": "encoder"})


KINDS = {"stream": tiny_stream, "fusion": tiny_fusion, "encoder": tiny_encoder}


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_checkpoint_names_follow_the_layer_table(tmp_path, kind):
    model = KINDS[kind]()
    save_checkpoint(tmp_path / "m.ckpt", model)
    meta, tensors = read_tensors(tmp_path / "m.ckpt", CheckpointError)
    assert list(tensors) == list(named_params(model))  # file order
    stored = sorted(k[:-len(".activation")] for k in meta if k.endswith(".activation"))
    assert stored == sorted(name for name, layer in _layers(model)
                            if isinstance(layer, FcLayer))


def test_blstm_backward_names_its_gradients_as_the_model_names_its_blstm():
    model = tiny_stream()
    bl = model.net.blstm
    out, cache = blstm_forward(bl, Rng(20).normal((5, bl.fwd.wx.shape[1])))
    _, grads = blstm_backward(bl, cache, np.ones_like(out))
    params = {name[len("blstm."):]: p for name, p in named_params(model).items()
              if name.startswith("blstm.")}
    assert list(grads) == list(params) == ["fwd.wx", "fwd.wh", "fwd.b",
                                           "bwd.wx", "bwd.wh", "bwd.b"]
    assert all(grads[n].shape == p.shape for n, p in params.items())


def test_backward_passes_return_every_named_param():
    rng = Rng(18)
    model = tiny_stream()
    logits, cache = forward(model, {"raw": [rng.normal((4, 6)), rng.normal((2, 6))]})
    grads = backward(model, cache, np.ones_like(logits))
    params = named_params(model)
    assert set(grads) == set(params)
    assert all(grads[n].shape == p.shape for n, p in params.items())

    fused = tiny_fusion()
    seqs = {"raw": [rng.normal((3, 6))], "diff": [rng.normal((3, 6))]}
    logits, cache = forward(fused, seqs)
    grads = backward(fused, cache, np.ones_like(logits))
    params = named_params(fused)
    assert set(grads) == set(params)
    assert all(grads[n].shape == p.shape for n, p in params.items())


@pytest.mark.parametrize("kind", ["stream", "fusion"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_the_cache_free_forward_keeps_the_logits_bits(kind, dtype):
    """keep_cache=False runs the same layers in the same order, so on the
    same mixed-length batch its logits equal the training forward's."""
    model = astype_model(KINDS[kind](), dtype)
    rng = Rng(19)
    seqs = {k: [rng.normal((t_len, 6)).astype(dtype) for t_len in (5, 1, 8, 3, 8)]
            for k in ("raw", "diff")}
    cached, cache = forward(model, seqs)
    logits, none = forward(model, seqs, keep_cache=False)
    assert cache is not None and none is None
    assert logits.dtype == dtype and logits.shape == (25, 3)
    assert np.array_equal(logits, cached)


@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_astype_model_shares_no_array_with_its_source(kind, dtype):
    model = KINDS[kind]()
    clone = astype_model(model, dtype)
    assert all(p.dtype == dtype for p in named_params(clone).values())
    for name, p in named_params(model).items():
        for other, q in named_params(clone).items():
            assert not np.shares_memory(p, q), (name, other)


@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_a_cast_to_the_same_dtype_saves_the_same_bytes(tmp_path, kind, dtype):
    model = astype_model(KINDS[kind](), dtype)
    save_checkpoint(tmp_path / "m.ckpt", model)
    save_checkpoint(tmp_path / "cast.ckpt", astype_model(model, dtype))
    assert (tmp_path / "cast.ckpt").read_bytes() == (tmp_path / "m.ckpt").read_bytes()


# SHA-256 of checkpoints of the seeded tiny models, fixed before the layer
# table replaced the per-kind naming code; no training, so no BLAS rounding.
# The stream and fusion fixtures are float64, pinned again when checkpoints
# came to keep float64; their float32 casts keep the bytes the float64
# models had while every checkpoint was stored as float32.
GOLDEN = {"stream": "7fd2e59385994d909b3399d4dbf242c5ea154255b61817260d0f0e6150961df1",
          "fusion": "d1be576869c48e95a97f2495731639ba754b1aa4a606d5b78dfaa179f4a41e0e",
          "encoder": "3712ca7d3b4f678e0ad383a044c3ee02e5c16899548b2f1e87dc2bd553388302",
          "stream-f32": "6c54fa0635be5e53dd37487428d3fc40ea5885979ede53f17914a4d7c76595b7",
          "fusion-f32": "02368b78c8560fbbc6434997435ab398d7645bb4812cf28ca739259a11fdc6de"}


@pytest.mark.parametrize("kind", sorted(GOLDEN))
def test_checkpoint_bytes_are_pinned(tmp_path, kind):
    base, _, f32 = kind.partition("-")
    model = KINDS[base]()
    save_checkpoint(tmp_path / "m.ckpt", astype_model(model, np.float32) if f32 else model)
    assert hashlib.sha256((tmp_path / "m.ckpt").read_bytes()).hexdigest() == GOLDEN[kind]


# ---------------------------------------------------------------------------
# load-time shape checks
# ---------------------------------------------------------------------------

def tampered(tmp_path, kind, tensors=None, meta=None, extra=()):
    """Save a tiny model of kind, swap in the given tensors/metadata, and reload."""
    save_checkpoint(tmp_path / "m.ckpt", KINDS[kind]())
    stored_meta, stored = read_tensors(tmp_path / "m.ckpt", CheckpointError)
    stored.update(tensors or {})
    stored_meta.update(meta or {})
    write_tensors(tmp_path / "t.ckpt", stored_meta, [*stored.items(), *extra])
    return load_checkpoint(tmp_path / "t.ckpt")


# tiny stream: frames 6 -> enc 5, 4, 2 -> BLSTM H=3 on 3*2 features -> head 3x6;
# tiny fusion: two such streams -> fusion BLSTM H=3 on 2*3 + 2*3 -> out 3x6
@pytest.mark.parametrize("kind, name, shape", [
    ("stream", "enc1.w", (4, 6)),            # input width != enc0 output width
    ("stream", "enc0.b", (4,)),              # bias against its weight
    ("stream", "blstm.fwd.wx", (12, 7)),     # input width != 3 x bottleneck
    ("stream", "blstm.bwd.wx", (12, 7)),
    ("stream", "blstm.fwd.wh", (12, 4)),     # recurrent width against 4H rows
    ("stream", "blstm.fwd.b", (11,)),        # bias against 4H
    ("stream", "blstm.bwd.wh", (16, 4)),     # bwd half against the fwd half
    ("stream", "head.w", (3, 5)),            # head width != 2H
    ("stream", "head.b", ()),
    ("encoder", "enc1.w", (2, 4)),
    ("fusion", "diff.blstm.fwd.wx", (12, 5)),
    ("fusion", "fusion_blstm.fwd.wx", (12, 11)),  # != 2H_raw + 2H_diff
    ("fusion", "fusion_blstm.bwd.b", (16,)),
    ("fusion", "out.w", (3, 9)),             # out width != 2H_fusion
])
def test_load_checks_the_shape_chain(tmp_path, kind, name, shape):
    with pytest.raises(CheckpointError, match=f"tensor '{name}' has shape"):
        tampered(tmp_path, kind, tensors={name: np.zeros(shape, dtype=np.float32)})


@pytest.mark.parametrize("kind, out", [("stream", "head.w"), ("fusion", "out.w")])
def test_load_checks_classes_against_the_classifier_rows(tmp_path, kind, out):
    with pytest.raises(CheckpointError, match=f"says 4 classes, but {out} has 3 rows"):
        tampered(tmp_path, kind, meta={"classes": "4"})


@pytest.mark.parametrize("kind, name", [("stream", "extra.w"), ("fusion", "head.w"),
                                        ("encoder", "enc3.w")])
def test_load_refuses_tensors_the_table_does_not_list(tmp_path, kind, name):
    with pytest.raises(CheckpointError, match=f"does not have: \\['{name}'\\]"):
        tampered(tmp_path, kind, extra=[(name, np.zeros((2, 2), dtype=np.float32))])


def test_load_refuses_a_repeated_tensor(tmp_path):
    with pytest.raises(CheckpointError, match="repeats tensor 'enc0.b'"):
        tampered(tmp_path, "encoder", extra=[("enc0.b", np.zeros(5, dtype=np.float32))])


def test_load_refuses_an_unknown_head_activation(tmp_path):
    with pytest.raises(CheckpointError, match="unknown activation 'tanh' for head"):
        tampered(tmp_path, "stream", meta={"head.activation": "tanh"})


@pytest.mark.parametrize("kind", ["stream", "fusion"])
@pytest.mark.parametrize("theta", ["x", "2.5", "0", "-1", str(MAX_THETA + 1)])
def test_load_refuses_a_bad_delta_window(tmp_path, kind, theta):
    with pytest.raises(CheckpointError) as err:
        tampered(tmp_path, kind, meta={"theta": theta})
    assert f"metadata theta is {theta!r}" in str(err.value)
    assert str(tmp_path / "t.ckpt") in str(err.value)


@pytest.mark.parametrize("stored, broken, named", [
    (b"kind", b"ki\xffd", "a metadata key"),
    (b"raw", b"r\xe9w", "the value of metadata key 'stream'"),
    (b"head.w", b"head.\xff", "a tensor name"),
])
def test_load_names_a_string_that_is_not_utf8(tmp_path, stored, broken, named):
    save_checkpoint(tmp_path / "m.ckpt", tiny_stream())
    field = struct.pack("<I", len(stored)) + stored
    blob = (tmp_path / "m.ckpt").read_bytes()
    assert blob.count(field) == 1
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(blob.replace(field, struct.pack("<I", len(broken)) + broken))
    with pytest.raises(CheckpointError) as err:
        load_checkpoint(bad)
    assert f"checkpoint {bad}: {named} is not valid UTF-8" in str(err.value)


def _edit_bytes(edit):
    """Writes a tiny stream checkpoint with edit applied to its bytes."""
    def write(path):
        save_checkpoint(path, tiny_stream())
        path.write_bytes(edit(path.read_bytes()))
    return write


def _edit_entries(meta=None, tensors=None, drop=None, extra=(), unset=None):
    """Writes a tiny stream checkpoint with its metadata and tensors edited;
    drop names a tensor to leave out, unset a metadata key."""
    def write(path):
        save_checkpoint(path, tiny_stream())
        stored_meta, stored = read_tensors(path, CheckpointError)
        stored.update(tensors or {})
        stored.pop(drop, None)
        stored_meta.pop(unset, None)
        write_tensors(path, {**stored_meta, **(meta or {})}, [*stored.items(), *extra])
    return write


@pytest.mark.parametrize("write, expect, named", [
    (_edit_bytes(lambda b: b + b"xx"), None, "2 trailing bytes"),
    (_edit_bytes(lambda b: b"XXXX" + b[4:]), None, "bad magic b'XXXX'"),
    (_edit_bytes(lambda b: b[:4] + struct.pack("<H", 3) + b[6:]), None,
     "unsupported version 3, expected 1 or 2"),
    (_edit_bytes(lambda b: b[:12]), None, "truncated: wanted"),
    (_edit_bytes(lambda b: b), {"classes": "26"}, "metadata mismatch: classes is '3'"),
    (_edit_entries(meta={"kind": "rnn"}), None, "kind 'rnn' is not one of"),
    (_edit_entries(meta={"theta": "0"}), None, "metadata theta is '0'"),
    (_edit_entries(meta={"head.activation": "tanh"}), None, "unknown activation 'tanh'"),
    (_edit_entries(meta={"classes": "4"}), None, "says 4 classes, but head.w has 3 rows"),
    (_edit_entries(drop="head.b"), None, "missing tensor 'head.b'"),
    (_edit_entries(drop="enc0.w"), None, "no enc0.w tensor"),
    (_edit_entries(tensors={"head.w": np.zeros((3, 5), dtype=np.float32)}), None,
     "tensor 'head.w' has shape 3x5"),
    (_edit_entries(tensors={"head.b": np.full(3, np.nan, dtype=np.float32)}), None,
     "tensor 'head.b' holds non-finite values"),
    (_edit_entries(extra=[("head.b", np.zeros(3, dtype=np.float32))]), None,
     "repeats tensor 'head.b'"),
    (_edit_entries(extra=[("extra.w", np.zeros((2, 2), dtype=np.float32))]), None,
     "does not have: ['extra.w']"),
    # save_checkpoint always writes these values, so the reader requires them
    (_edit_entries(meta={"stream": "foo"}), None,
     "metadata stream is 'foo', expected one of raw/diff"),
    (_edit_entries(unset="enc2.activation"), None,  # the linear bottleneck
     "missing metadata key 'enc2.activation'"),
    (_edit_entries(unset="stream"), None, "missing metadata key 'stream'"),
    (_edit_entries(unset="theta"), None, "missing metadata key 'theta'"),
    # past Python's 4300-digit limit int() raises a plain ValueError
    (_edit_entries(meta={"theta": "9" * 5000}), None, "metadata theta is '9999"),
    (_edit_entries(extra=[("deep.w", np.zeros((1, 1, 1), dtype=np.float32))]), None,
     "tensor 'deep.w' has rank 3, expected at most 2"),
    # numpy's min and max raise a plain ValueError on an empty array
    (_edit_entries(tensors={"head.b": np.zeros(0)}), None,
     "tensor 'head.b' of shape (0,) holds no values"),
], ids=["trailing", "magic", "version", "truncated", "expect", "kind", "theta",
        "activation", "classes", "missing", "no-encoder", "shape", "non-finite",
        "repeated", "unknown", "stream", "no-activation", "no-stream", "no-theta",
        "long-theta", "rank", "empty"])
def test_every_checkpoint_error_names_the_file_once(tmp_path, write, expect, named):
    path = tmp_path / "t.ckpt"
    write(path)
    with pytest.raises(CheckpointError) as err:
        load_checkpoint(path, expect=expect)
    message = str(err.value)
    assert message.startswith(f"checkpoint {path}: ")
    assert message.count(str(path)) == 1
    assert named in message


def test_load_refuses_a_file_that_is_not_regular():
    """The refusal comes before any read, so a device cannot make it allocate."""
    with pytest.raises(CheckpointError, match="^checkpoint /dev/null: not a regular file$"):
        load_checkpoint("/dev/null")


def test_load_refuses_a_rank_numpy_cannot_build(tmp_path):
    """Past 64 dimensions numpy raises a plain ValueError; the reader refuses first."""
    name = b"deep.w"
    blob = (b"VSRM" + struct.pack("<HII", 1, 0, 1) + struct.pack("<I", len(name)) + name
            + struct.pack("<66I", 65, *[1] * 65) + bytes(4))
    (tmp_path / "deep.ckpt").write_bytes(blob)
    with pytest.raises(CheckpointError, match="'deep.w' has rank 65, expected at most 2"):
        load_checkpoint(tmp_path / "deep.ckpt")


def test_load_accepts_a_delta_window_wider_than_any_sequence(tmp_path):
    model = tampered(tmp_path, "stream", meta={"theta": "99"})
    assert model.net.delta.theta == 99
    logits, _ = forward(model, {"raw": [Rng(0).normal((4, 6))]})
    assert np.isfinite(logits).all()
