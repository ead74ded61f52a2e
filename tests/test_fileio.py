"""Artifact writes go through a temp file and os.replace: all or nothing."""

import os

import pytest

import vsr.cli
import vsr.fileio as fileio
from vsr.data import DatasetManifest, UtteranceRecord, save_manifest
from vsr.fileio import write_atomic
from vsr.model import build_stream, save_checkpoint
from vsr.numerics import Rng
from vsr.training import TrainHistory, save_history


def test_write_atomic_replaces_the_file(tmp_path):
    path = tmp_path / "a.txt"
    path.write_bytes(b"old contents, longer than the new ones")
    write_atomic(path, "né\n")
    assert path.read_bytes() == "né\n".encode("utf-8")
    write_atomic(str(path), b"\x00\x01")
    assert path.read_bytes() == b"\x00\x01"
    assert os.listdir(tmp_path) == ["a.txt"]


def test_write_atomic_gives_the_mode_of_a_plain_open(tmp_path):
    write_atomic(tmp_path / "atomic", b"x")
    with open(tmp_path / "plain", "wb") as fh:
        fh.write(b"x")
    assert os.stat(tmp_path / "atomic").st_mode == os.stat(tmp_path / "plain").st_mode


def tiny_model():
    return build_stream(input_dim=6, classes=3, hidden=3, rng=Rng(0), stream_kind="raw",
                        encoder_sizes=(5,), bottleneck=2)


WRITERS = {
    "checkpoint": ("m.ckpt", lambda d: save_checkpoint(d / "m.ckpt", tiny_model())),
    "manifest": ("manifest.jsonl", lambda d: save_manifest(d, DatasetManifest(
        classes=["a", "b"], height=4, width=5,
        records=[UtteranceRecord("u.vsru", "s00", 1)]))),
    "history": ("h.json", lambda d: save_history(d / "h.json", TrainHistory("stream", 3))),
    "cli report": ("r.json", lambda d: vsr.cli._write(d / "r.json", '{"accuracy": 1.0}')),
}


class HalfWriter:
    """A file that takes half of what it is given, then fails."""

    def __init__(self, path, mode):
        self.fh = open(path, mode)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[:len(data) // 2])
        self.fh.flush()
        raise OSError("no space left on device")

    def writelines(self, chunks):
        self.fh.writelines(chunks[:len(chunks) // 2])
        self.write(bytes(chunks[len(chunks) // 2]))


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_a_write_failing_midway_keeps_the_old_file(tmp_path, monkeypatch, writer):
    name, write = WRITERS[writer]
    (tmp_path / name).write_bytes(b"the old artifact")
    monkeypatch.setattr(fileio, "open", HalfWriter, raising=False)
    with pytest.raises(OSError, match="no space left"):
        write(tmp_path)
    assert (tmp_path / name).read_bytes() == b"the old artifact"
    assert os.listdir(tmp_path) == [name]
    monkeypatch.undo()
    write(tmp_path)
    assert (tmp_path / name).read_bytes() != b"the old artifact"
    assert os.listdir(tmp_path) == [name]


def test_a_failed_rename_removes_the_temp_file(tmp_path, monkeypatch):
    def refuse(src, dst):
        raise PermissionError("read-only target")

    monkeypatch.setattr(fileio.os, "replace", refuse)
    with pytest.raises(PermissionError):
        write_atomic(tmp_path / "a.bin", b"data")
    assert os.listdir(tmp_path) == []
