"""Span recording around the package's layer boundaries.

``install()`` replaces public functions and methods of the
``partition_modes`` modules with wrappers that record one span per call:
name, start, end, the index of the enclosing span and a few counts.
Functions imported by name into other modules are wrapped at every
binding, and the engine's move table is rebuilt from the wrapped
proposals.  Spans stay in memory until ``dump()`` writes them out.

A boundary that the package no longer has raises at ``install()``, so a
traced run fails instead of reporting 0 for the metrics built on it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

import numpy as np

_spans: list[list] = []     # [name, start, end, parent index, attrs or None]
_stack: list[int] = []
_last_cache: list = [None]


def _wrap(fn, name, attrs=None):
    """Return ``fn`` wrapped to record a span; ``attrs(bound, result)``
    adds counts once the call returns."""
    sig = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec = [name, 0.0, 0.0, _stack[-1] if _stack else -1, None]
        _stack.append(len(_spans))
        _spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as err:
            rec[4] = {"raised": type(err).__name__}
            raise
        finally:
            rec[2] = time.perf_counter()
            _stack.pop()
        if attrs is not None:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            rec[4] = attrs(bound.arguments, result)
        return result

    wrapper.__wrapped_by_perfbench__ = True
    return wrapper


def _patch(owner, attr, name, attrs=None):
    fn = getattr(owner, attr)
    if getattr(fn, "__wrapped_by_perfbench__", False):
        return fn
    wrapped = _wrap(fn, name, attrs)
    setattr(owner, attr, wrapped)
    return wrapped


def _patch_everywhere(modules, home, attr, name, attrs=None):
    """Wrap ``home.attr`` and rebind every by-name import of it."""
    original = getattr(home, attr)
    wrapped = _patch(home, attr, name, attrs)
    for mod in modules:
        if mod is not home and getattr(mod, attr, None) is original:
            setattr(mod, attr, wrapped)


# -- counts recorded with spans ----------------------------------------------

def _requested(key):
    return lambda a, _r: {"pairs": len(a[key])}


def _kernel_attrs(a, _r):
    """Pairs computed, and the bytes of the int64/float64 arrays the
    batched kernel materialises: the gathered labels and their codes
    (pairs x N each), and the contingency tables and their log terms
    (pairs x table width each)."""
    pset = a["self"].pset
    m_idx, q_idx = list(a["m_indices"]), list(a["q_indices"])
    pairs = max(len(m_idx), len(q_idx))
    width = (max(pset.partitions[i].n for i in m_idx)
             * max(pset.partitions[i].n for i in q_idx))
    return {"pairs": pairs, "bytes": 8 * (2 * pairs * pset.N + 2 * pairs * width)}


def _mcmc_attrs(a, _r):
    return {"sweeps": (10 + int(a["S"])) * int(a["sweeps_between"])}


def _cache_init_attrs(a, _r):
    _last_cache[0] = a["self"]
    return None


def cache_snapshot(cache) -> dict:
    """Row counts and bytes of a PairCache's H_mod stores, read at the
    end of a run.  A pair is stored in both directions when it is set in
    the fixed-mode row of m and in the fixed-sample row of q."""
    by_mode, by_sample = cache._by_mode, cache._by_sample
    rows = list(by_mode.values()) + list(by_sample.values())
    both = 0
    if by_mode and by_sample:
        modes = np.array(sorted(by_mode), dtype=np.int64)
        mode_rows = np.stack([by_mode[int(m)] for m in modes])
        for q, row in by_sample.items():
            both += int(np.count_nonzero(~np.isnan(row[modes])
                                         & ~np.isnan(mode_rows[:, q])))
    return {"rows": len(rows),
            "bytes": int(sum(r.nbytes for r in rows)),
            "both": both,
            "contents": int(cache.n_cid),
            "margins": len(cache._margins)}


def _run_attrs(a, result):
    cache = a.get("cache") or _last_cache[0]
    return {"steps": [[int(s), str(n), bool(acc)] for s, n, acc, *_ in result.trace],
            "cache": cache_snapshot(cache) if cache is not None else None}


# -- installation ----------------------------------------------------------

def install() -> None:
    """Wrap the layer boundaries of every ``partition_modes`` module."""
    names = ("partitions", "tables", "cache", "objective", "engine",
             "sampler", "graphs", "cli")
    pkg = importlib.import_module("partition_modes")
    mods = [importlib.import_module("partition_modes." + name) for name in names]
    partitions, tables, cache, objective, engine, sampler, graphs, cli = mods
    everywhere = mods + [pkg]

    _patch_everywhere(everywhere, partitions, "canonicalize",
                      "partitions.canonicalize")
    _patch_everywhere(everywhere, tables, "log2_omega", "tables.log2_omega")
    _patch_everywhere(everywhere, tables, "count_tables_exact",
                      "tables.count_tables_exact")
    _patch_everywhere(everywhere, tables, "count_tables_gaussian",
                      "tables.count_tables_gaussian")

    pc = cache.PairCache
    _patch(pc, "__init__", "cache.build", _cache_init_attrs)
    _patch(pc, "hmod_given_mode", "cache.lookup", _requested("q_indices"))
    _patch(pc, "hmod_against_modes", "cache.lookup_against_modes",
           _requested("m_indices"))
    _patch(pc, "entropy", "cache.entropy")
    _patch(pc, "entropies", "cache.entropy")
    _patch(pc, "_compute_block", "cache.kernel", _kernel_attrs)

    for fn in ("description_length", "full_description_length"):
        _patch_everywhere(everywhere, objective, fn, "objective." + fn)

    _patch_everywhere(everywhere, engine, "run", "engine.run", _run_attrs)
    _patch(engine, "_initial_state", "engine.init")
    for fn in ("find_mode_exact", "find_mode_sampled"):
        _patch_everywhere(everywhere, engine, fn, "engine." + fn)
    # the move table holds the functions themselves, bound at import
    engine._MOVES = tuple(
        _patch(engine, m.__name__, "engine.move." + m.__name__[len("propose_"):])
        for m in engine._MOVES)

    _patch_everywhere(everywhere, sampler, "load_partitions",
                      "sampler.load_partitions")
    _patch_everywhere(everywhere, sampler, "mcmc_sample", "sampler.mcmc",
                      _mcmc_attrs)
    _patch_everywhere(everywhere, sampler, "write_partitions",
                      "sampler.write_partitions")

    for fn in ("ring_of_cliques", "planted_partition", "sbm",
               "read_edge_list", "write_edge_list"):
        _patch_everywhere(everywhere, graphs, fn, "graphs." + fn)

    for fn in ("cmd_generate", "cmd_sample", "cmd_cluster", "cmd_describe"):
        _patch(cli, fn, "cli." + fn[len("cmd_"):])


def dump(path) -> None:
    """Write every span recorded in this process to ``path`` as JSON."""
    with open(path, "w") as fh:
        json.dump({"spans": _spans}, fh)
