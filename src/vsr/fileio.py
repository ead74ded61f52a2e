"""Atomic artifact writes, and reads that refuse a non-regular file before reading."""

from __future__ import annotations

import os
import stat
import threading


def open_regular(path, error: type[Exception]):
    """path opened for binary reading, or error("not a regular file") raised
    before a byte is read: the open does not block, so a FIFO is refused
    rather than waited on, and a device allocates nothing."""
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
