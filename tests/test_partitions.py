import math
import os
import tempfile
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partition_modes import (canonicalize, conditional_entropy,
                             contingency_table, entropy, log2_omega,
                             modified_conditional_entropy, PairCache,
                             Partition, PartitionSet)
from partition_modes import partitions as partitions_module
from partition_modes.engine import EngineParams, find_mode_sampled
from partition_modes.graphs import Graph, planted_partition, ring_of_cliques, sbm
from partition_modes.objective import Clustering
from partition_modes.partitions import _int64_values, canonicalize_rows
from partition_modes.sampler import (PerturbationSpec, load_partitions,
                                     mcmc_sample)

from conftest import random_partition

label_lists = st.lists(st.integers(min_value=-5, max_value=9),
                       min_size=1, max_size=40)

INT64_MIN, INT64_MAX = -2 ** 63, 2 ** 63 - 1
int64_labels = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.sampled_from([INT64_MIN, INT64_MIN + 1, INT64_MAX - 1, INT64_MAX]),
    st.integers(min_value=INT64_MIN, max_value=INT64_MAX))


@st.composite
def label_matrices(draw):
    """S x N int64 label lists, N down to 1, some rows constant."""
    S = draw(st.integers(min_value=1, max_value=6))
    N = draw(st.integers(min_value=1, max_value=12))
    row = st.one_of(st.lists(int64_labels, min_size=N, max_size=N),
                    int64_labels.map(lambda v: [v] * N))
    return draw(st.lists(row, min_size=S, max_size=S))


def first_appearance(row):
    """Reference canonical form of one row: labels, n and counts."""
    ids = {}
    labels = [ids.setdefault(x, len(ids)) for x in row]
    return labels, len(ids), [labels.count(g) for g in range(len(ids))]


def test_canonicalize_examples():
    p = canonicalize([7, 7, 3, 3])
    assert list(p.labels) == [0, 0, 1, 1]
    assert list(p.counts) == [2, 2]
    p = canonicalize([5, 5, 5])
    assert list(p.labels) == [0, 0, 0]
    assert list(p.counts) == [3]
    p = canonicalize([2, 9, 2, 9, 9])
    assert list(p.labels) == [0, 1, 0, 1, 1]
    assert list(p.counts) == [2, 3]


def test_canonicalize_empty_input():
    with pytest.raises(ValueError, match="empty partition"):
        canonicalize([])
    # a label array of the wrong shape is not reported as empty
    for raw in (np.zeros((2, 3), dtype=np.int64), 5):
        with pytest.raises(ValueError, match="must be a 1-D sequence"):
            canonicalize(raw)


def test_canonicalize_takes_only_integral_labels():
    # a truncated label would merge communities 0.2 and 0.7
    for raw in ([0.2, 0.7, 1.5], [0, 0.5], [np.nan, 0], [np.inf, 0], ["1", "2"],
                [2 ** 63, 0], [2 ** 64, 0], np.array([2 ** 63, 0], dtype=np.uint64)):
        with pytest.raises(ValueError, match="partition labels must be integers"):
            canonicalize(raw)
        with pytest.raises(ValueError, match="partition labels must be integers"):
            canonicalize_rows([raw, raw])
    # integral floats, as np.loadtxt reads them, and the int64 extremes
    assert canonicalize([3.0, 1.0, 3.0]).labels.tolist() == [0, 1, 0]
    assert canonicalize([-2.0 ** 63, 2 ** 62]).labels.tolist() == [0, 1]
    assert canonicalize([INT64_MIN, INT64_MAX, INT64_MIN]).labels.tolist() == [0, 1, 0]
    assert canonicalize(np.array([9, 2, 9], dtype=np.uint8)).labels.tolist() == [0, 1, 0]
    # an int64 matrix, as load_partitions passes, is read in place
    rows = np.array([[4, 4, 1], [1, 2, 3]], dtype=np.int64)
    assert _int64_values(rows) is rows


_SET = PartitionSet.from_partitions([canonicalize([0, 0, 1])] * 4)
_SPEC = dict(bases=[(canonicalize([0, 0, 1]), 1.0)], node_flip_rate=0.0, S=2, seed=0)
_CLIQUES = ring_of_cliques(3, 2)[0]
_CLUSTERED = np.array([0, 0, 1, 1])

# every caller argument that must be an integer: (site, call of one
# value, the site's message, a valid value)
_INT_SITES = [
    ("Graph.N", lambda v: Graph(N=v, edges=set()), "node count and endpoints", 3),
    ("Graph.edge", lambda v: Graph(N=3, edges={(0, v)}), "node count and endpoints", 2),
    ("PerturbationSpec.S", lambda v: PerturbationSpec(**{**_SPEC, "S": v}),
     "ensemble size must be positive", 2),
    ("PerturbationSpec.seed", lambda v: PerturbationSpec(**{**_SPEC, "seed": v}),
     "ensemble size must be positive", 2),
    ("mcmc_sample.S", lambda v: mcmc_sample(_CLIQUES, S=v), "invalid sampler", 2),
    ("mcmc_sample.sweeps_between",
     lambda v: mcmc_sample(_CLIQUES, S=2, sweeps_between=v), "invalid sampler", 2),
    ("mcmc_sample.q_max", lambda v: mcmc_sample(_CLIQUES, S=2, q_max=v),
     "invalid sampler", 2),
    ("mcmc_sample.seed", lambda v: mcmc_sample(_CLIQUES, S=2, seed=v),
     "invalid sampler", 2),
] + [
    ("EngineParams." + name, lambda v, name=name: EngineParams(**{name: v}),
     "invalid engine parameters", 2)
    for name in ("seed", "k0", "mode_sample_size", "patience", "restarts")
] + [
    ("find_mode_sampled",
     lambda v: find_mode_sampled([0, 1, 2], v, np.zeros(4), PairCache(_SET)),
     "sample size must be an integer", 2),
    ("Clustering.mode_index",
     lambda v: Clustering(_CLUSTERED, [0, v], 2).validate(_SET),
     "K and the mode indices must be integers", 2),
    ("Clustering.K", lambda v: Clustering(_CLUSTERED, [0, 2], v).validate(_SET),
     "K and the mode indices must be integers", 2),
    ("ring_of_cliques.num_cliques", lambda v: ring_of_cliques(v, 2),
     "clique count and size must be integers", 3),
    ("ring_of_cliques.clique_size", lambda v: ring_of_cliques(3, v),
     "clique count and size must be integers", 2),
    ("planted_partition.q", lambda v: planted_partition(4, v, 1.0, 0.0),
     "group count must be an integer", 2),
    ("sbm.seed", lambda v: sbm([2, 2], np.eye(2), seed=v), "seed must be an integer", 2),
]


@pytest.mark.parametrize("site, call, message, good", _INT_SITES,
                         ids=[site[0] for site in _INT_SITES])
def test_integer_arguments_follow_one_rule(site, call, message, good):
    # a float is never truncated, a bool is a flag, and neither a string
    # nor None is a number: each raises the site's own ValueError
    for bad in (2.0, True, np.True_, "3", None):
        with pytest.raises(ValueError, match=message):
            call(bad)
    call(np.int64(good))


@given(label_lists)
def test_canonicalize_preserves_structure(raw):
    p = canonicalize(raw)
    arr = np.asarray(raw)
    # same nodes grouped together iff they shared a raw label
    for g in range(p.n):
        idx = np.flatnonzero(p.labels == g)
        assert len(set(arr[idx])) == 1
    assert p.counts.sum() == len(raw)
    assert p.n == len(set(raw))
    # idempotent
    assert canonicalize(p.labels) == p


@given(label_matrices())
def test_canonicalize_rows_matches_first_appearance(rows):
    parts = canonicalize_rows(np.array(rows, dtype=np.int64)).partitions
    assert len(parts) == len(rows)
    for row, p in zip(rows, parts):
        labels, n, counts = first_appearance(row)
        assert p.labels.tolist() == labels and p.labels.dtype == np.int64
        assert p.n == n and isinstance(p.n, int)
        assert p.counts.tolist() == counts
        assert canonicalize(row) == p and canonicalize(row).counts.tolist() == counts


@settings(max_examples=50)
@given(label_matrices())
def test_load_partitions_matches_first_appearance(rows):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "p.txt")
        with open(path, "w") as fh:
            fh.write("# header\n\n")
            fh.writelines(" ".join(map(str, row)) + "\n" for row in rows)
        pset = load_partitions(path)
    assert pset.S == len(rows) and pset.N == len(rows[0])
    for row, p in zip(rows, pset.partitions):
        labels, n, counts = first_appearance(row)
        assert p.labels.tolist() == labels
        assert p.n == n and p.counts.tolist() == counts


def test_canonicalize_rows_empty_input():
    for raw in (np.zeros((0, 3), dtype=np.int64), np.zeros((2, 0), dtype=np.int64)):
        with pytest.raises(ValueError, match="empty partition"):
            canonicalize_rows(raw)
    for raw in (np.zeros(3, dtype=np.int64), np.zeros((1, 2, 3), dtype=np.int64)):
        with pytest.raises(ValueError, match="must be a 2-D S x N label matrix"):
            canonicalize_rows(raw)


def test_partition_equality_and_hash():
    a = canonicalize([0, 0, 1, 1])
    b = canonicalize([5, 5, 2, 2])
    c = canonicalize([0, 1, 0, 1])
    assert a == b and hash(a) == hash(b)
    assert a != c


def test_partition_set_validation():
    a = canonicalize([0, 0, 1])
    b = canonicalize([0, 1])
    for parts in ([a, b], [b, a]):
        with pytest.raises(ValueError, match="incompatible"):
            PartitionSet.from_partitions(parts)
    with pytest.raises(ValueError, match="empty partition set"):
        PartitionSet.from_partitions([])
    pset = PartitionSet.from_partitions([a, canonicalize([4, 4, 2])])
    assert pset.S == 2 and pset.N == 3
    # equal contents are one content: one id, one shared Partition
    assert pset.cid.tolist() == [0, 0] and pset.rep.tolist() == [0]
    assert pset.partitions[0] is pset.partitions[1] and pset.partitions[0] == a


@st.composite
def repeated_label_matrices(draw):
    """S x N int64 label matrices whose rows copy a few base rows, each
    copy under its own relabeling, and a block size for the numpy pass."""
    N = draw(st.integers(min_value=1, max_value=8))
    bases = draw(st.lists(st.lists(st.integers(min_value=0, max_value=3),
                                   min_size=N, max_size=N),
                          min_size=1, max_size=4))
    picks = draw(st.lists(st.integers(min_value=0, max_value=len(bases) - 1),
                          min_size=1, max_size=30))
    relabel = st.tuples(st.permutations(range(4)),
                        st.sampled_from([0, 7, -3, INT64_MAX - 3]))
    relabels = draw(st.lists(relabel, min_size=len(picks), max_size=len(picks)))
    rows = [[perm[x] + shift for x in bases[b]]
            for b, (perm, shift) in zip(picks, relabels)]
    return (rows, draw(st.integers(min_value=1, max_value=40)),
            draw(st.integers(min_value=1, max_value=len(rows) + 2)))


@given(repeated_label_matrices())
def test_canonicalize_rows_interns_contents(case):
    rows, pass_labels, n_chunks = case
    with mock.patch.object(partitions_module, "_PASS_LABELS", pass_labels):
        pset = canonicalize_rows(np.array(rows, dtype=np.int64))
        # the same rows as an iterator of chunks, some of them empty
        chunked = canonicalize_rows(iter(np.array_split(rows, n_chunks)))
    assert chunked.S == pset.S and chunked.N == pset.N
    assert np.array_equal(chunked.cid, pset.cid) and np.array_equal(chunked.rep, pset.rep)
    assert all(a == b and a.n == b.n and np.array_equal(a.counts, b.counts)
               for a, b in zip(chunked.partitions, pset.partitions))
    # reference ids: canonical label tuples numbered by first appearance
    ids, rep = {}, []
    for i, row in enumerate(rows):
        key = tuple(first_appearance(row)[0])
        if key not in ids:
            ids[key] = len(ids)
            rep.append(i)
        assert pset.partitions[i] == canonicalize(row)
    assert pset.cid.dtype == np.int64
    assert pset.cid.tolist() == [ids[tuple(first_appearance(r)[0])] for r in rows]
    assert pset.rep.tolist() == rep
    # copies share one object, and the cache reads the set's ids
    assert len({id(p) for p in pset.partitions}) == len(pset.rep)
    assert all(pset.partitions[i] is pset.partitions[r]
               for i, r in enumerate(pset.rep[pset.cid].tolist()))
    cache = PairCache(pset)
    assert np.array_equal(cache.cid, pset.cid) and cache.n_cid == len(rep)


def _traced(build):
    """``build()``, and the bytes it held and peaked at, by tracemalloc."""
    tracemalloc.start()
    try:
        result = build()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held, peak


def test_repeated_ensemble_memory_is_bounded_by_its_contents():
    # 50,000 relabeled copies of 74 contents of 48 nodes: the raw matrix
    # is 19.2 MB, and one Partition per sample held twice that
    rng = np.random.default_rng(5)
    contents = rng.integers(0, 6, size=(74, 48))
    assert len({c.tobytes() for c in contents}) == 74
    S = 50_000
    raw = contents[rng.integers(74, size=S)] * 3 + 11
    pset, held, peak = _traced(lambda: canonicalize_rows(raw))
    assert held < 4e6 and peak < 8e6, (held, peak)
    assert pset.S == S and len(pset.rep) == 74
    assert len({id(p) for p in pset.partitions}) == 74
    assert pset.partitions[-1] == canonicalize(raw[-1])
    # 5,000 contents drawn uniformly: new contents turn up in every
    # block, and a set that kept blocks alive for them held 13.2 MB; the
    # contents' own labels are 1.9 MB
    picks = rng.integers(5000, size=S)
    raw = rng.integers(0, 6, size=(5000, 48))[picks]
    pset, held, _ = _traced(lambda: canonicalize_rows(raw))
    assert held < 6e6, held
    assert len(pset.rep) == len(set(picks.tolist()))
    assert pset.partitions[-1] == canonicalize(raw[-1])


def test_load_partitions_streams_its_file(tmp_path):
    # 50,000 lines of 74 contents of 48 labels: a loader that held the
    # lines and their stacked copy peaked at 52.5 MB
    rng = np.random.default_rng(5)
    lines = [" ".join(map(str, row)) + "\n"
             for row in rng.integers(0, 6, size=(74, 48)).tolist()]
    picks = rng.integers(74, size=50_000).tolist()
    path = tmp_path / "p.txt"
    with open(path, "w") as fh:
        fh.writelines(lines[i] for i in picks)
    pset, _, peak = _traced(lambda: load_partitions(path))
    assert peak < 4e6, peak
    assert pset.S == 50_000 and len(pset.rep) == len(set(picks))
    assert pset.partitions[-1] == canonicalize(list(map(int, lines[picks[-1]].split())))


def test_from_partitions_builds_no_label_matrix():
    # the concatenated labels of 50,000 copies of one content peaked at
    # 20.4 MB
    p = canonicalize(np.arange(48) % 5)
    parts = [p] * 50_000
    pset, _, peak = _traced(lambda: PartitionSet.from_partitions(parts))
    assert peak < 4e6, peak
    assert pset.S == 50_000 and pset.rep.tolist() == [0] and pset.partitions[-1] == p


def test_entropy_examples():
    assert entropy(canonicalize(np.repeat(np.arange(4), 25))) == pytest.approx(2.0)
    assert entropy(canonicalize(np.zeros(100))) == 0.0
    labels = np.concatenate([np.zeros(50), np.ones(25), np.full(25, 2)])
    assert entropy(canonicalize(labels)) == pytest.approx(1.5)


@given(label_lists)
def test_entropy_bounds(raw):
    p = canonicalize(raw)
    h = entropy(p)
    assert -1e-12 <= h <= math.log2(p.n) + 1e-12
    assert (h == 0) == (p.n == 1)
    if p.n > 1 and len(set(p.counts)) == 1:
        assert h == pytest.approx(math.log2(p.n))


def test_contingency_table_examples():
    m = canonicalize([0, 0, 1, 1])
    assert np.array_equal(contingency_table(m, m).t, [[2, 0], [0, 2]])
    p = canonicalize([0, 1, 0, 1])
    assert np.array_equal(contingency_table(m, p).t, [[1, 1], [1, 1]])
    single = canonicalize([0, 0, 0, 0])
    assert np.array_equal(contingency_table(single, m).t, [[2, 2]])


def test_contingency_table_margins():
    rng = np.random.default_rng(3)
    for _ in range(50):
        N = int(rng.integers(2, 60))
        m = random_partition(N, 5, rng)
        p = random_partition(N, 5, rng)
        tab = contingency_table(m, p)
        assert np.array_equal(tab.row_sums, m.counts)
        assert np.array_equal(tab.col_sums, p.counts)
        assert tab.t.sum() == N


def test_contingency_table_mismatched_N():
    with pytest.raises(ValueError, match="incompatible"):
        contingency_table(canonicalize([0, 1]), canonicalize([0, 1, 2]))
    with pytest.raises(ValueError, match="incompatible partitions"):
        modified_conditional_entropy(canonicalize([0, 1]), canonicalize([0, 1, 2]))


def test_conditional_entropy_examples():
    m = canonicalize([0, 0, 1, 1])
    assert conditional_entropy(m, m) == 0.0
    assert conditional_entropy(canonicalize([0, 0, 0, 0]), m) == 0.0
    assert conditional_entropy(canonicalize([0, 1, 0, 1]), m) == pytest.approx(1.0)


def test_conditional_entropy_zero_iff_function_of_mode():
    rng = np.random.default_rng(4)
    for _ in range(100):
        N = int(rng.integers(5, 200))
        mode = random_partition(N, 6, rng)
        # p's label at each node is a function of mode's label there
        mapping = rng.integers(0, 4, size=mode.n)
        p = canonicalize(mapping[mode.labels])
        assert conditional_entropy(p, mode) == pytest.approx(0.0, abs=1e-12)


def test_conditional_entropy_nonnegative_random_pairs():
    rng = np.random.default_rng(5)
    for _ in range(100):
        N = int(rng.integers(2, 200))
        p = random_partition(N, 8, rng)
        m = random_partition(N, 8, rng)
        assert conditional_entropy(p, m) >= 0.0


def test_modified_conditional_entropy_examples():
    half = canonicalize(np.repeat([0, 1], 50))
    assert modified_conditional_entropy(half, half) == \
        pytest.approx(math.log2(51) / 100)
    whole = canonicalize(np.zeros(100))
    assert modified_conditional_entropy(whole, whole) == 0.0
    m = canonicalize([0, 0, 1, 1])
    p = canonicalize([0, 1, 0, 1])
    assert modified_conditional_entropy(p, m) == \
        pytest.approx(1.0 + math.log2(3) / 4)


def test_modified_dominates_conditional():
    rng = np.random.default_rng(6)
    for _ in range(50):
        N = int(rng.integers(2, 120))
        p = random_partition(N, 6, rng)
        m = random_partition(N, 6, rng)
        assert modified_conditional_entropy(p, m) >= conditional_entropy(p, m) - 1e-12


def test_self_modified_entropy_matches_omega():
    rng = np.random.default_rng(7)
    for _ in range(50):
        N = int(rng.integers(2, 200))
        p = random_partition(N, 6, rng)
        expect = log2_omega(p.counts, p.counts) / N
        assert modified_conditional_entropy(p, p) == pytest.approx(expect, abs=1e-12)


def test_relabel_invariance():
    rng = np.random.default_rng(8)
    for _ in range(30):
        N = int(rng.integers(3, 80))
        p = random_partition(N, 5, rng)
        m = random_partition(N, 5, rng)
        # shuffle community identities, then recanonicalize
        perm = rng.permutation(p.n)
        p2 = canonicalize(perm[p.labels])
        assert entropy(p2) == pytest.approx(entropy(p))
        assert conditional_entropy(p2, m) == pytest.approx(conditional_entropy(p, m))
        assert modified_conditional_entropy(p2, m) == \
            pytest.approx(modified_conditional_entropy(p, m))
