"""Atomic text-file writes shared by the model, dataset and result writers."""

from __future__ import annotations

import os
import stat
import tempfile


def atomic_write(path: str, text: str) -> None:
    """Write `text` to `path` so readers see the old file or the new, never a part.

    The text goes to a temporary file in the same directory, which then
    replaces `path`.  The file gets the mode of the file it replaces, or
    that of a plain `open` (0o666 less the umask) when there is none;
    `mkstemp`'s own 0o600 would survive the replace.  If anything fails,
    the temporary file is removed and the error propagates.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    try:
        mode = stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        os.fchmod(fd, mode)
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
