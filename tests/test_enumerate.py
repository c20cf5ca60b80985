import inspect
import random
import sys
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from veronese import (
    CircularComposition,
    DegenerateComplexError,
    FacetComplex,
    SignedDecomposition,
    certificate,
    complex_invariant,
    count_types,
    distinct_types,
    enumerate_compositions,
    enumerate_facets_circular,
    induce_composition,
    table_report,
)

from veronese import canonical
from veronese.canonical import _type_candidates

import helpers
from helpers import (
    brute_force_isomorphic,
    certificate_literal,
    certificate_recursive,
    certificate_unpruned,
    random_composition,
    refine_literal,
)


def _relabel(fc: FacetComplex, perm):
    return FacetComplex(
        fc.n_labels, fc.d,
        tuple(tuple(perm[v] for v in f) for f in fc.facets),
    )


def test_certificate_relabeling_invariance():
    rng = random.Random(5)
    for _ in range(15):
        c = random_composition(rng, rng.randint(2, 5), rng.randint(6, 9))
        fc = enumerate_facets_circular(c).restrict_to_vertices()
        perm = list(range(fc.n_labels))
        rng.shuffle(perm)
        assert certificate(fc) == certificate(_relabel(fc, perm))


def test_certificate_matches_unpruned_search():
    # the orbit-pruned search keeps the minimal encoding of the full one
    rng = random.Random(4)
    checked = 0
    for d in range(1, 7):
        for n in range(d + 1, 11):
            for c in _type_candidates(d, n):
                fc = enumerate_facets_circular(c)
                expected = certificate_unpruned(fc)
                perm = rng.sample(range(fc.n_labels), fc.n_labels)
                assert certificate(fc) == expected, c
                assert certificate(_relabel(fc, perm)) == expected, c
                checked += 1
    assert checked == 160


def _unpruned_test_complexes():
    """The complexes of test_certificate_matches_unpruned_search, each
    also relabelled."""
    rng = random.Random(4)
    for d in range(1, 7):
        for n in range(d + 1, 11):
            for c in _type_candidates(d, n):
                fc = enumerate_facets_circular(c)
                yield fc
                yield _relabel(fc, rng.sample(range(fc.n_labels), fc.n_labels))


def _ranks(labels):
    order = {label: i for i, label in enumerate(sorted(set(labels)))}
    return [order[label] for label in labels]


def test_refinement_matches_literal_at_every_node(monkeypatch):
    # every refinement the search makes ends in the colors the literal
    # refinement reaches from the same start, with cell-end labels,
    # matching cells and current fingerprints
    refine = canonical._refine
    calls = 0

    def checked(facets, incidence, labels, cells, prints, changed):
        nonlocal calls
        calls += 1
        start = _ranks(labels)
        refine(facets, incidence, labels, cells, prints, changed)
        assert _ranks(labels) == refine_literal(facets, start)
        assert all(label == sum(w <= label for w in labels) - 1 for label in labels)
        groups = {}
        for v, label in enumerate(labels):
            groups.setdefault(label, []).append(v)
        assert {label: sorted(members) for label, members in cells.items()} \
            == {label: vs for label, vs in groups.items() if len(vs) > 1}
        assert prints == [tuple(sorted(labels[v] for v in f)) for f in facets]

    monkeypatch.setattr(canonical, "_refine", checked)
    for fc in _unpruned_test_complexes():
        certificate(fc)
    assert calls > 320  # more than the roots of the 320 searches


def _disjoint_cycles(*sizes):
    """A 2-regular graph as a facet complex of edges: refinement cannot
    tell its cycles apart, but no automorphism maps one onto another of
    a different length."""
    edges, first = [], 0
    for size in sizes:
        edges += [(first + i, first + (i + 1) % size) for i in range(size)]
        first += size
    return FacetComplex(first, 2, tuple(edges))


def _disjoint_edges(k):
    """k disjoint edges: 2^k k! automorphisms, found one leaf at a time."""
    return FacetComplex(2 * k, 2, tuple((2 * i, 2 * i + 1) for i in range(k)))


def _symmetric_complexes():
    yield "simplex-12", FacetComplex(12, 11, tuple(combinations(range(12), 11)))
    yield "cross-polytope-d8", enumerate_facets_circular(CircularComposition(8, (2,) * 8))
    for n in range(3, 13):
        for d in range(2, n):
            cyclic = CircularComposition(d, (n,), dividers=0 if d % 2 == 0 else -1)
            yield f"cyclic-{d}-{n}", enumerate_facets_circular(cyclic)
    for sizes in [(3, 4), (3, 3, 4), (3, 4, 6), (3, 3, 3, 4), (3, 3, 4, 4)]:
        yield f"cycles-{sizes}", _disjoint_cycles(*sizes)
    for k in (1, 2, 5, 12):
        yield f"edges-{k}", _disjoint_edges(k)
    # the open cells become twin classes below the root here
    yield "arcs-6-(2,2,2,1,1,2)", enumerate_facets_circular(
        CircularComposition(6, (2, 2, 2, 1, 1, 2)))
    for d, n_values in ((3, range(4, 13)), (4, range(5, 13))):  # perfbench `types` cells
        for n in n_values:
            for c in _type_candidates(d, n):
                yield f"types-{d}-{n}-{c.arcs}", enumerate_facets_circular(c)


def test_certificate_matches_literal_on_symmetric_complexes():
    # the back-jumping, incremental search against the orbit-pruned
    # search with a full refinement per node, and against the recursive
    # search it replaced, byte for byte
    rng = random.Random(7)
    for name, fc in _symmetric_complexes():
        expected = certificate_literal(fc)
        assert certificate(fc) == certificate_recursive(fc) == expected, name
        for _ in range(3):
            relabelled = _relabel(fc, rng.sample(range(fc.n_labels), fc.n_labels))
            assert certificate(relabelled) == certificate_recursive(relabelled) \
                == expected, name


def _recorded_seeds(monkeypatch):
    """A list that holds, after each `certificate` call, the twin
    transpositions its search was seeded with."""
    twins, seeds = canonical._twins, []

    def recording_twins(*args):
        found = twins(*args)
        seeds[:] = found
        return found

    monkeypatch.setattr(canonical, "_twins", recording_twins)
    return seeds


def test_search_visits_the_nodes_of_the_recursive_search(monkeypatch):
    # one refinement per search node.  Without twin seeds the two
    # searches prune the same subtrees, node for node.  With them, a node
    # whose open cells are twin classes is one leaf and no refinement, so
    # the search takes at most the recursive search's refinements, given
    # the same seeds; seeding never adds a node
    refine, calls = canonical._refine, {}

    def counted(name):
        def counting_refine(*args):
            calls[name] += 1
            refine(*args)
        return counting_refine

    monkeypatch.setattr(canonical, "_refine", counted("iterative"))
    monkeypatch.setattr(helpers, "_refine", counted("recursive"))
    seeds = _recorded_seeds(monkeypatch)
    complexes = list(_symmetric_complexes()) + [
        (c, enumerate_facets_circular(c)) for c in _type_candidates(6, 10)]
    unseeded = 0
    for name, fc in complexes:
        calls.update(iterative=0, recursive=0)
        assert certificate(fc) == certificate_recursive(fc, seeds), name
        assert 0 < calls["iterative"] <= calls["recursive"], name
        if not seeds:
            unseeded += 1
            assert calls["iterative"] == calls["recursive"], name
        calls["recursive"] = 0
        certificate_recursive(fc, seeds=())
        assert calls["iterative"] <= calls["recursive"], name
    assert unseeded > 0


def test_twin_seeds_are_the_automorphic_transpositions(monkeypatch):
    # every seed swaps two vertices and maps each facet to a facet, and
    # the classes its chains join hold exactly the pairs whose
    # transposition does, found by mapping every facet for every pair
    seeds = _recorded_seeds(monkeypatch)
    complexes = [fc for _, fc in _symmetric_complexes()] + [
        enumerate_facets_circular(c) for d in range(1, 7)
        for n in range(d + 1, d + 6) for c in _type_candidates(d, n)]
    for fc in complexes:
        certificate(fc)
        fc = fc.restrict_to_vertices()

        def automorphic(auto):
            return {tuple(sorted(auto.get(v, v) for v in f)) for f in fc.facets} \
                == set(fc.facets)

        assert all(len(auto) == 2 and automorphic(auto) for auto in seeds), fc
        root = list(range(fc.n_labels))

        def find(v):
            while root[v] != v:
                v = root[v]
            return v

        for u, v in seeds:
            root[find(u)] = find(v)
        pairs = list(combinations(range(fc.n_labels), 2))
        assert {(u, v) for u, v in pairs if find(u) == find(v)} \
            == {(u, v) for u, v in pairs if automorphic({u: v, v: u})}, fc


@pytest.mark.parametrize("d", [11, 40])
def test_simplex_boundary_search_is_one_path(monkeypatch, d):
    # every pair of the d+1 vertices is a twin pair, so the root's one
    # cell is a twin class: one refinement, at the root, and its first
    # leaf is the certificate
    refine, calls = canonical._refine, []

    def counting_refine(*args):
        calls.append(None)
        refine(*args)

    monkeypatch.setattr(canonical, "_refine", counting_refine)
    fc = FacetComplex(d + 1, d, tuple(combinations(range(d + 1), d)))
    certificate(fc)
    assert len(calls) == 1


def test_certificate_search_depth_is_bounded():
    # 60 disjoint edges individualize one vertex per edge, 60 levels;
    # the search must not take a call frame per level
    fc = _disjoint_edges(60)
    expected = "120:2:" + ";".join(f"{2 * i}-{2 * i + 1}" for i in range(60))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 30)
    try:
        got = certificate(fc)
    finally:
        sys.setrecursionlimit(limit)
    assert got == expected.encode("ascii")


def test_certificate_empty_complex():
    with pytest.raises(DegenerateComplexError):
        certificate(FacetComplex(3, 2, ()))


def test_certificate_merged_intervals():
    a = induce_composition(SignedDecomposition((2, 7), 1, 4))
    b = induce_composition(SignedDecomposition((3, 2, 4), 1, 4))
    ca = certificate(enumerate_facets_circular(a).restrict_to_vertices())
    cb = certificate(enumerate_facets_circular(b).restrict_to_vertices())
    assert ca == cb


def test_certificate_six_vertices_dimension_four():
    l0 = enumerate_facets_circular(CircularComposition(4, (6,), dividers=0))
    even = enumerate_facets_circular(CircularComposition(4, (2, 4)))
    odd = enumerate_facets_circular(CircularComposition(4, (3, 3)))
    assert certificate(l0) == certificate(even)
    assert certificate(l0) != certificate(odd)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_certificate_soundness_small(seed):
    rng = random.Random(seed)
    c1 = random_composition(rng, rng.randint(2, 4), rng.randint(5, 8))
    c2 = random_composition(rng, c1.d, rng.randint(5, 8))
    f1 = enumerate_facets_circular(c1).restrict_to_vertices()
    f2 = enumerate_facets_circular(c2).restrict_to_vertices()
    if f1.n_labels > 9 or f2.n_labels > 9:
        return
    assert (certificate(f1) == certificate(f2)) == brute_force_isomorphic(f1, f2)


def test_vertex_reduction_soundness():
    # when every point is a divider endpoint, growing an arc beyond 2
    # only adds non-vertices
    for d, arcs, grown in [
        (3, (2, 2, 2), (2, 5, 2)),
        (4, (2, 2, 1, 2), (2, 3, 1, 4)),
        (4, (1, 2, 1, 2), (1, 2, 1, 6)),
    ]:
        a = enumerate_facets_circular(CircularComposition(d, arcs))
        b = enumerate_facets_circular(CircularComposition(d, grown))
        assert certificate(a.restrict_to_vertices()) \
            == certificate(b.restrict_to_vertices())


def test_complex_invariant_is_invariant():
    rng = random.Random(9)
    for _ in range(10):
        c = random_composition(rng, rng.randint(2, 5), rng.randint(6, 10))
        fc = enumerate_facets_circular(c).restrict_to_vertices()
        perm = list(range(fc.n_labels))
        rng.shuffle(perm)
        assert complex_invariant(fc) == complex_invariant(_relabel(fc, perm))


def test_enumerate_compositions_examples():
    d3 = enumerate_compositions(3, 6)
    assert sorted(c.arcs for c in d3) == [(1, 1, 4), (1, 2, 3), (2, 2, 2), (6,)]
    d4 = enumerate_compositions(4, 5)
    assert sorted((c.dividers, c.arcs) for c in d4) == [
        (0, (5,)), (2, (1, 4)), (2, (2, 3)), (4, (1, 1, 1, 2)),
    ]


def test_count_types_examples():
    assert count_types(4, 8) == 6
    assert count_types(3, 6) == 2
    assert all(count_types(3, n) == 1 for n in range(7, 13))


def test_count_types_d8_regression_values():
    # the d = 8 row goes beyond the paper's Table 1; these are regression
    # values, and only n = 10 and 11 (d+2 and d+3) are checked independently,
    # against Perles' standard Gale diagrams in test_gale.py.  n = 13 and 14
    # (121 and 183 types) are left out: they take about 3.8 s more
    assert [count_types(8, n) for n in range(9, 13)] == [1, 4, 57, 91]


def test_stacked_uniqueness_small():
    from helpers import _reference_certificate_literal

    for d in (4, 5):
        for n in range(d + 1, d + 5):
            reference = _reference_certificate_literal("stacked", d, n)
            stacked = [c for cert, c in distinct_types(d, n) if cert == reference]
            assert len(stacked) == 1


def test_table_report_shape():
    rows = table_report([3], [4, 5, 6])
    assert [r["count"] for r in rows] == [1, 1, 2]
    row = rows[-1]
    assert row["d"] == 3 and row["n"] == 6
    for t in row["types"]:
        assert set(t) == {"arcs", "dividers", "certificate", "flags"}
        bytes.fromhex(t["certificate"])
