"""Text files: atomic output, and the one line format of partition and
edge-list files, whitespace-separated integers."""

from __future__ import annotations

import os
from contextlib import contextmanager

import numpy as np


@contextmanager
def atomic_text_file(path):
    """Open a temporary file beside ``path`` for writing and rename it
    over the target once the block completes, so a failure never leaves
    a partial file behind.  The file is created as ``open(path, "w")``
    would create it, with the permissions the umask allows.  Its name
    takes 16 random hex digits from ``os.urandom``, as ``secrets`` would
    draw them, without loading ``hashlib``."""
    path = os.path.abspath(path)
    tmp = "%s.%s.tmp" % (path, os.urandom(8).hex())
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def int_lines(lines, what: str):
    """Yield ``(line number, int64 array)`` per line of ``lines``, an
    iterable of text lines such as an open file, skipping blank lines and
    those whose first token starts with '#'.  A token is read as Python's
    ``int`` reads it; one that is not an integer, or lies past int64,
    raises ValueError naming the line and ``what``.  The caller opens its
    file, once, so a pipe is read as it streams."""
    for lineno, line in enumerate(lines, start=1):
        tokens = line.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        try:
            values = np.array(tokens, dtype=np.int64)
        except ValueError:
            raise ValueError("line %d: non-integer %s" % (lineno, what)) from None
        except OverflowError:
            raise ValueError("line %d: %s out of range" % (lineno, what)) from None
        yield lineno, values
