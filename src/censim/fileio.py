"""Atomic file output.

Every file censim writes goes through atomic_open: the text lands in a
temporary file next to the target, is flushed to disk, and only a block that
finishes without error moves it over the target with os.replace.  A failed
write leaves the previous file (or no file) in place and no temporary file
behind, and since the data is on disk before the rename, a crash leaves
either the old or the new content, never a truncated file.  The rename
itself is not synced (the directory is not fsync'ed), so a crash right
after a write may still show the old file.

The new file keeps an existing target's permission bits, and a symlinked
target is written through: the link stays, the file it points to is
replaced.
"""

from __future__ import annotations

import contextlib
import os
import secrets
import shutil


@contextlib.contextmanager
def atomic_open(path: str, newline: str | None = None):
    """Text handle whose content replaces path when the block succeeds."""
    path = os.path.realpath(path)
    tmp = f"{path}.{os.getpid()}.{secrets.token_hex(4)}.tmp"
    try:
        with open(tmp, "x", newline=newline, encoding="utf-8") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        with contextlib.suppress(FileNotFoundError):
            shutil.copymode(path, tmp)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise
