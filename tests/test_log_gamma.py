"""The description length's log-gamma terms come from the standard
library: the package imports no scipy, and the log-binomials and the
log-factorial table agree with exact integer arithmetic.  Nor does it
load hashlib, which only ``secrets`` would bring in."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import partition_modes
from partition_modes.objective import _log2_factorials
from partition_modes.tables import _log2_binom

N_MAX = 100_000


def _loaded_by_import(prefix, modules="partition_modes, partition_modes.cli"):
    """The modules named ``prefix`` or ``prefix.*`` that importing
    ``modules``, by default the package and its CLI, loads in a fresh
    interpreter."""
    src = str(Path(partition_modes.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import sys, %s\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m == %r or m.startswith(%r)))"
            % (modules, prefix, prefix + "."))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return out.strip()


def test_package_imports_no_scipy():
    assert _loaded_by_import("scipy") == "[]"


def test_package_imports_no_hashlib():
    # fileio's temporary names come from os.urandom; secrets.token_hex
    # loaded hashlib and OpenSSL with it.  numpy 1.x imports numpy.random,
    # which imports secrets, with numpy itself
    if _loaded_by_import("hashlib", "numpy") != "[]":
        pytest.skip("numpy loads hashlib on import")
    assert _loaded_by_import("hashlib") == "[]"


@settings(max_examples=200, deadline=None)
@given(st.integers(0, N_MAX), st.floats(0.0, 1.0))
@example(0, 0.0)
@example(1, 1.0)
@example(N_MAX, 0.5)
@example(N_MAX - 1, 1e-5)
def test_log2_binom_matches_exact_integers(n, frac):
    k = round(frac * n)
    exact = math.log2(math.comb(n, k))
    # lgamma(n + 1) - lgamma(k + 1) - lgamma(n - k + 1) loses the digits
    # that cancel: log2 C(99999, 1) is off by about 2e-11 relative, so
    # the error is bounded relative to the largest term, log2 n!
    scale = max(1.0, math.lgamma(n + 1) / math.log(2.0))
    assert abs(_log2_binom(n, k) - exact) <= 1e-12 * scale


@settings(max_examples=50, deadline=None)
@given(st.integers(0, N_MAX), st.floats(0.0, 1.0))
@example(N_MAX, 0.5)
def test_log2_factorial_table_matches_exact_integers(n, frac):
    table = _log2_factorials(n)
    assert table.shape == (n + 1,)
    assert table[0] == table[min(n, 1)] == 0.0
    for k in {round(frac * n), min(n, 2), n}:
        exact = math.log2(math.factorial(k)) if k > 1 else 0.0
        assert abs(table[k] - exact) <= 1e-12 * exact
