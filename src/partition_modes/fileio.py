"""Atomic text output shared by the writers and the CLI."""

from __future__ import annotations

import os
import secrets
from contextlib import contextmanager


@contextmanager
def atomic_text_file(path):
    """Open a temporary file beside ``path`` for writing and rename it
    over the target once the block completes, so a failure never leaves
    a partial file behind.  The file is created as ``open(path, "w")``
    would create it, with the permissions the umask allows."""
    path = os.path.abspath(path)
    tmp = "%s.%s.tmp" % (path, secrets.token_hex(8))
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
