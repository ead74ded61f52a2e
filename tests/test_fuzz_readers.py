"""Property-based fuzzing of the three readers of files a user hands vsr.

Each reader starts from a well-formed file and takes a mutated copy:
truncations, bit flips, huge declared sizes, invalid UTF-8 and, for the
manifest, values of the wrong JSON type. Whatever the mutation, a reader
returns or raises its own error naming the file (ContainerError,
CheckpointError, or ValueError for the manifest), and nothing else: the
command line turns exactly those into exit code 2.
"""

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vsr.data import (MANIFEST_NAME, ContainerError, DatasetManifest, UtteranceRecord,
                      load_manifest, load_utterance, save_manifest, save_utterance)
from vsr.model import (CheckpointError, EncoderStack, build_fusion, build_stream,
                       load_checkpoint, save_checkpoint)
from vsr.numerics import Rng

FUZZ = settings(max_examples=150, deadline=None, derandomize=True)

# a u32 field that declares a size: each wraps or dwarfs the file
HUGE = st.sampled_from([2**32 - 1, 2**31, 2**24 + 1, 65537])


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """One well-formed file of each kind, a float64 (version 2) stream among
    the checkpoints, and a path to write mutants to."""
    root = tmp_path_factory.mktemp("fuzz")
    rng = Rng(3)
    save_utterance(root / "u.vsru", rng.integers(256, (3, 4, 5)).astype(np.uint8))
    shape = dict(encoder_sizes=(5,), bottleneck=2)
    raw = build_stream(6, 3, 2, Rng(1), "raw", **shape)
    diff = build_stream(6, 3, 2, Rng(2), "diff", **shape)
    for name, model in (("stream", raw), ("fusion", build_fusion(raw, diff, 2, Rng(3))),
                        ("encoder", EncoderStack(layers=raw.net.encoder,
                                                 meta={"kind": "encoder", "stream": "raw"})),
                        ("stream64", build_stream(6, 3, 2, Rng(1), "raw", **shape,
                                                  dtype=np.float64))):
        save_checkpoint(root / f"{name}.ckpt", model)
    records = [UtteranceRecord(f"s{i % 2}/u{i}.vsru", f"s{i % 2}", i % 3) for i in range(4)]
    save_manifest(root, DatasetManifest(classes=["a", "b", "c"], height=4, width=5,
                                        records=records))
    (root / "m").mkdir()
    return root


def _mutate(data, blob: bytes) -> bytes:
    """A truncation, bit flips, a huge u32, invalid UTF-8 or a tail of junk."""
    kind = data.draw(st.sampled_from(["truncate", "flip", "huge", "utf8", "append"]))
    if kind == "truncate":
        return blob[:data.draw(st.integers(0, len(blob) - 1))]
    out = bytearray(blob)
    if kind == "flip":
        for pos in data.draw(st.lists(st.integers(0, len(blob) - 1), min_size=1, max_size=4)):
            out[pos] ^= 1 << data.draw(st.integers(0, 7))
    elif kind == "huge":
        pos = data.draw(st.integers(0, len(blob) - 4))
        out[pos:pos + 4] = struct.pack("<I", data.draw(HUGE))
    elif kind == "utf8":
        pos = data.draw(st.integers(0, len(blob) - 1))
        out[pos:pos + 1] = data.draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"]))
    else:
        out += data.draw(st.binary(min_size=1, max_size=16))
    return bytes(out)


@FUZZ
@given(data=st.data())
def test_a_mutated_container_loads_or_names_itself(files, data):
    path = files / "mutant.vsru"
    blob = (files / "u.vsru").read_bytes()
    if data.draw(st.booleans()):  # a header that declares a huge size
        field = data.draw(st.sampled_from([6, 10, 14]))  # T, H, W
        blob = blob[:field] + struct.pack("<I", data.draw(HUGE)) + blob[field + 4:]
    path.write_bytes(_mutate(data, blob))
    try:
        frames = load_utterance(path)
    except ContainerError as exc:
        assert str(exc).startswith(f"utterance {path}: ")
    else:
        assert frames.nbytes + 18 == path.stat().st_size


@FUZZ
@given(data=st.data())
def test_a_mutated_checkpoint_loads_or_names_itself(files, data):
    path = files / "mutant.ckpt"
    kind = data.draw(st.sampled_from(["stream", "fusion", "encoder", "stream64"]))
    path.write_bytes(_mutate(data, (files / f"{kind}.ckpt").read_bytes()))
    try:
        load_checkpoint(path)
    except CheckpointError as exc:
        assert str(exc).startswith(f"checkpoint {path}: ")


@FUZZ
@given(value=st.sampled_from(["0", "-1", "1e3", " 2", "2\x00", "\u0663", "9" * 5000,
                              "fusion", "encoder", "diff", "linear"]) | st.text(max_size=8))
def test_a_checkpoint_with_any_metadata_value_loads_or_names_itself(files, value):
    """Well-formed bytes around a metadata value of the wrong form, in each key
    the reader interprets, of each kind of checkpoint."""
    path = files / "meta.ckpt"
    for kind in ("stream", "fusion", "encoder"):
        model = load_checkpoint(files / f"{kind}.ckpt")
        for key in ("theta", "classes", "kind", "stream", "enc0.activation"):
            meta = {key: value}
            if key == "enc0.activation":  # save_checkpoint writes it from the layer
                encoder = model.layers if kind == "encoder" else (
                    model.net.encoder if kind == "stream" else model.raw.encoder)
                encoder[0].activation, meta = value, {}
            save_checkpoint(path, model, extra_meta=meta)
            try:
                load_checkpoint(path)
            except CheckpointError as exc:
                assert str(exc).startswith(f"checkpoint {path}: ")


_JSON = st.recursive(st.none() | st.booleans() | st.integers() | st.floats()
                     | st.text(max_size=6),
                     lambda inner: st.lists(inner, max_size=3)
                     | st.dictionaries(st.text(max_size=4), inner, max_size=3),
                     max_leaves=6)


@FUZZ
@given(data=st.data())
def test_a_mutated_manifest_loads_or_names_itself(files, data):
    root = files / "m"
    path = root / MANIFEST_NAME
    lines = (files / MANIFEST_NAME).read_text().splitlines()
    if data.draw(st.booleans()):
        path.write_bytes(_mutate(data, "\n".join(lines).encode() + b"\n"))
    else:  # one value of the wrong JSON type, or a path out of the dataset
        lineno = data.draw(st.integers(0, len(lines) - 1))
        doc = json.loads(lines[lineno])
        key = data.draw(st.sampled_from(sorted(doc)))
        doc[key] = "@"
        value = data.draw(_JSON | st.sampled_from(
            ["../x.vsru", "/etc/hostname", "a/../../x", "a\x00b", 2**64, -(2**31)]))
        text = data.draw(st.sampled_from([json.dumps(value), "9" * 5000, "[" * 5000]))
        lines[lineno] = json.dumps(doc).replace('"@"', text)
        path.write_text("\n".join(lines) + "\n")
    try:
        manifest = load_manifest(root)
    except ValueError as exc:
        assert str(exc).startswith(str(path))
    else:
        assert all(not r.path.startswith(("/", "..")) for r in manifest.records)
