"""Atomic artifact writes, reads that refuse a non-regular file, and the tensor file format."""

from __future__ import annotations

import math
import os
import stat
import struct
import threading
from typing import Callable

import numpy as np


def open_regular(path, error: Callable[[str], Exception]):
    """path opened for binary reading, or error("not a regular file") raised
    before a byte is read: the open does not block, so a FIFO is refused
    rather than waited on, and a device allocates nothing. error is an
    exception type or any function of the message that returns one."""
    fh = open(path, "rb", opener=lambda p, f: os.open(p, f | getattr(os, "O_NONBLOCK", 0)))
    if not stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
        fh.close()
        raise error("not a regular file")
    return fh


def write_atomic(path, data: bytes | str | list) -> None:
    """Write data to path as one step: all or nothing.

    data is bytes, a str (written as UTF-8), or a list of bytes-like chunks
    (numpy arrays included) written one after another without joining them.

    The bytes go to a temp file next to path, which os.replace then moves
    over it, so a reader sees the old file or the whole new one, never a
    truncated one. This guards against a killed or crashing process, not
    against power loss: nothing is fsynced, so the data may reach the disk
    after the rename. A failed write removes its temp file and leaves the
    old file as it was. The new file gets the mode a plain open() would.
    """
    path = os.fspath(path)
    if isinstance(data, str):
        data = data.encode("utf-8")
    tmp = f"{path}.{os.getpid()}-{threading.get_ident()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            if isinstance(data, list):
                fh.writelines(data)
            else:
                fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


TENSORS_MAGIC = b"VSRM"
# the file version names the one dtype every tensor of the file is stored in
TENSOR_DTYPES = {1: np.dtype("<f4"), 2: np.dtype("<f8")}


def _pack_str(s: str) -> bytes:
    raw = s.encode("utf-8")
    return struct.pack("<I", len(raw)) + raw


def write_tensors(path, meta: dict[str, str], tensors) -> None:
    """Write metadata and a list of (name, array) pairs as one tensor file
    (write_atomic), as float64 (version 2) if any array is, else as float32
    (version 1); equal inputs give equal bytes. README's "Data model" has the layout."""
    version = 2 if any(value.dtype == np.float64 for _, value in tensors) else 1
    chunks = [TENSORS_MAGIC, struct.pack("<H", version)]
    chunks.append(struct.pack("<I", len(meta)))
    for key in sorted(meta):
        chunks.append(_pack_str(key))
        chunks.append(_pack_str(str(meta[key])))
    chunks.append(struct.pack("<I", len(tensors)))
    for name, value in tensors:
        chunks.append(_pack_str(name))
        chunks.append(struct.pack("<I", value.ndim))
        chunks.append(struct.pack(f"<{value.ndim}I", *value.shape))
        chunks.append(np.ascontiguousarray(value, dtype=TENSOR_DTYPES[version]))
    write_atomic(path, chunks)


class _Reader:
    def __init__(self, blob: bytes, error: type[Exception]):
        self.blob = blob
        self.pos = 0
        self.error = error

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.blob):
            raise self.error(f"truncated: wanted {self.pos + n} bytes, "
                             f"file has {len(self.blob)}")
        out = self.blob[self.pos:self.pos + n]
        self.pos += n
        return out

    def u16(self) -> int:
        return struct.unpack("<H", self.take(2))[0]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def string(self, what: str, key: str | None = None) -> str:
        """The next length-prefixed UTF-8 string; what (of key) names it in errors."""
        raw = self.take(self.u32())
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            field = what if key is None else f"{what} {key!r}"
            raise self.error(f"{field} is not valid UTF-8 "
                             f"({exc.reason} at byte {exc.start})") from None


def read_tensors(path, error: type[Exception]):
    """(metadata, name -> array) of a write_tensors file, each array a writable
    copy in the version's dtype; error(message) for anything else."""
    with open_regular(path, error) as fh:
        reader = _Reader(fh.read(), error)
    magic = reader.take(4)
    if magic != TENSORS_MAGIC:
        raise error(f"bad magic {magic!r}, expected {TENSORS_MAGIC!r}")
    version = reader.u16()
    if version not in TENSOR_DTYPES:
        raise error(f"unsupported version {version}, expected 1 or 2")
    stored = TENSOR_DTYPES[version]
    meta = {}
    for _ in range(reader.u32()):
        key = reader.string("a metadata key")
        meta[key] = reader.string("the value of metadata key", key)
    tensors: dict[str, np.ndarray] = {}
    for _ in range(reader.u32()):
        name = reader.string("a tensor name")
        if name in tensors:
            raise error(f"repeats tensor {name!r}")
        rank = reader.u32()
        shape = tuple(reader.u32() for _ in range(rank))
        size, left = stored.itemsize * math.prod(shape), len(reader.blob) - reader.pos
        if size > left:
            raise error(f"truncated: tensor {name!r} of shape {shape} needs "
                        f"{size} bytes, {left} are left")
        if rank > 2:  # every vsr tensor is a vector or a matrix
            raise error(f"tensor {name!r} has rank {rank}, expected at most 2")
        if size == 0:
            raise error(f"tensor {name!r} of shape {shape} holds no values")
        data = np.frombuffer(reader.take(size), dtype=stored).reshape(shape).astype(
            stored.newbyteorder("="))
        # min and max propagate NaN and show Inf; np.isfinite would allocate a mask
        if not (np.isfinite(data.min()) and np.isfinite(data.max())):
            raise error(f"tensor {name!r} holds non-finite values")
        tensors[name] = data
    if reader.pos != len(reader.blob):
        raise error(f"{len(reader.blob) - reader.pos} trailing bytes after the tensors")
    return meta, tensors
