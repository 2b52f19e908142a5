"""Atomic text-file writes shared by the model, dataset and result writers."""

from __future__ import annotations

import os
import tempfile


def atomic_write(path: str, text: str) -> None:
    """Write `text` to `path` so readers see the old file or the new, never a part.

    The text goes to a temporary file in the same directory, which then
    replaces `path`.  If anything fails, the temporary file is removed and
    the error propagates.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
