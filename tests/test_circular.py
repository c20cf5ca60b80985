import random
import time
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from veronese import (
    CircularComposition,
    FacetComplex,
    InvalidDecompositionError,
    SignedDecomposition,
    UnderdeterminedInstanceError,
    decompose_chart,
    enumerate_compositions,
    enumerate_facets_circular,
    enumerate_facets_geometric,
    enumerate_facets_line,
    facet_count,
    induce_composition,
    line_to_circle_map,
    realize,
    vertex_set,
)

from veronese.circular import dihedral_min

from helpers import (
    _compositions_nonneg,
    dihedral_min_literal,
    enumerate_facets_circular_literal,
    enumerate_facets_circular_walk_literal,
    facet_count_literal,
    facet_count_series,
    random_composition,
    random_decomposition,
)


def test_composition_validation():
    with pytest.raises(InvalidDecompositionError):
        CircularComposition(4, (3, 4, 5))  # parity
    with pytest.raises(InvalidDecompositionError):
        CircularComposition(3, (1, 1, 1, 1, 2))  # too many dividers
    with pytest.raises(InvalidDecompositionError):
        CircularComposition(3, (7,), dividers=0)  # dividerless needs even d
    with pytest.raises(InvalidDecompositionError):
        CircularComposition(4, (7,), dividers=1)  # one arc in even d has none
    for arcs, dividers in (((5,), None), ((5,), 0), ((2, 3), None)):
        with pytest.raises(InvalidDecompositionError):
            CircularComposition(0, arcs, dividers)  # no composition below d = 1
    with pytest.raises(InvalidDecompositionError):
        induce_composition(SignedDecomposition((5,), 1, 0))
    with pytest.raises(InvalidDecompositionError):
        CircularComposition(4, (3, 4), dividers=1)
    with pytest.raises(UnderdeterminedInstanceError):
        CircularComposition(4, (2, 2))


def test_dividers_follow_from_d_and_the_arcs():
    # one per arc for two or more arcs, d mod 2 for a single arc
    for d, arcs, l in ((4, (7,), 0), (3, (7,), 1), (4, (3, 4), 2), (3, (1, 2, 4), 3)):
        c = CircularComposition(d, arcs)
        assert c.l == c.dividers == l
        assert c == CircularComposition(d, arcs, dividers=l)


def test_induce_composition_examples():
    c = induce_composition(SignedDecomposition((2, 7), 1, 4))
    assert c.arcs == (2, 7) and c.dividers == 2
    c = induce_composition(SignedDecomposition((3, 2, 4), 1, 4))
    assert c.arcs == (2, 7) and c.dividers == 2
    c = induce_composition(SignedDecomposition((6,), 1, 3))
    assert c.arcs == (6,) and c.dividers == 1
    c = induce_composition(SignedDecomposition((9,), 1, 4))
    assert c.arcs == (9,) and c.dividers == 0


def test_canonical_arcs_examples():
    assert dihedral_min((7, 2)) == (2, 7)
    assert dihedral_min((1, 3, 1, 2)) == (1, 2, 1, 3)
    assert dihedral_min((5,)) == (5,)


def test_dihedral_min_matches_every_rotation_and_reflection():
    rng = random.Random(33)
    for _ in range(3000):
        length, alphabet = rng.randint(1, 40), rng.randint(1, 4)
        shape = rng.choice(["random", "constant", "periodic"])
        if shape == "random":
            arcs = tuple(rng.randint(1, alphabet) for _ in range(length))
        elif shape == "constant":
            arcs = (rng.randint(1, alphabet),) * length
        else:  # whole periods, so that the cycle is periodic too
            period = tuple(rng.randint(1, alphabet) for _ in range(rng.randint(1, 6)))
            arcs = period * max(1, length // len(period))
        assert dihedral_min(arcs) == dihedral_min_literal(arcs), arcs


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6), st.integers(0, 10 ** 6))
def test_canonical_arcs_dihedral_invariant(d, seed):
    rng = random.Random(seed)
    c = random_composition(rng, d, rng.randint(d + 1, 12))
    canon = dihedral_min(c.arcs)
    assert dihedral_min(canon) == canon
    if c.l > 1:
        i = rng.randrange(c.l)
        assert dihedral_min(c.arcs[i:] + c.arcs[:i]) == canon
        assert dihedral_min(c.arcs[::-1]) == canon


def test_enumerate_facets_circular_examples():
    fc = enumerate_facets_circular(CircularComposition(4, (3, 4)))
    assert len(fc.facets) == 12
    fc = enumerate_facets_circular(CircularComposition(3, (1, 1, 3)))
    reduced = fc.restrict_to_vertices()
    assert len(fc.facets) == 4 and reduced.n_labels == 4
    fc = enumerate_facets_circular(CircularComposition(4, (7,), dividers=0))
    assert len(fc.facets) == 14


def test_transfer_along_relabeling():
    for sizes, d in [((3, 4), 4), ((3, 2, 4), 4), ((2, 3, 1), 4),
                     ((6,), 3), ((2, 2, 2), 3), ((9,), 4), ((1, 4, 2), 5)]:
        dec = SignedDecomposition(sizes, 1, d)
        tau = line_to_circle_map(dec)
        line = enumerate_facets_line(dec)
        circ = enumerate_facets_circular(induce_composition(dec))
        mapped = tuple(sorted(tuple(sorted(tau[p] for p in f)) for f in line.facets))
        assert mapped == circ.facets


def test_vertex_set_examples():
    assert len(vertex_set(CircularComposition(4, (3, 3, 2, 2)))) == 8
    assert len(vertex_set(CircularComposition(4, (1, 1, 1, 7)))) == 5
    assert vertex_set(CircularComposition(4, (1, 9))) == tuple(range(10))


def test_facet_count_examples():
    assert facet_count(CircularComposition(4, (3, 4))) == 12
    assert facet_count(CircularComposition(4, (1, 9))) == 20
    assert facet_count(CircularComposition(3, (6,))) == 8
    assert facet_count(CircularComposition(4, (7,), dividers=0)) == 14


def test_facet_count_odd_cyclic_formula():
    for d in (3, 5, 7):
        for n in range(d + 1, 12):
            c = CircularComposition(d, (n,))
            h = (d - 1) // 2
            assert facet_count(c) == 2 * comb(n - 1 - h, h)


def _arc_sequences(n, l):
    if l == 1:
        yield (n,)
        return
    for first in range(1, n - l + 2):
        for rest in _arc_sequences(n - first, l - 1):
            yield (first,) + rest


def test_facet_count_matches_literal_sum():
    # every composition with 2 <= d <= 7 and n <= 12, then random ones
    # up to d = 12 with at most 8 arcs
    for d in range(2, 8):
        for n in range(d + 1, 13):
            cs = [CircularComposition(d, arcs) for l in range(d % 2 or 2, d + 1, 2)
                  if l <= n for arcs in _arc_sequences(n, l)]
            if d % 2 == 0:
                cs.append(CircularComposition(d, (n,), dividers=0))
            for c in cs:
                assert facet_count(c) == facet_count_literal(c), c
    rng = random.Random(12)
    for _ in range(300):
        d = rng.randint(2, 12)
        c = random_composition(rng, d, rng.randint(d + 1, d + 6))
        if c.l <= 8:
            assert facet_count(c) == facet_count_literal(c), c


def test_facet_count_many_arcs():
    # l = d leaves no consecutive pairs, and on arcs of two points no two
    # divider picks collide: one facet per choice of pick per divider
    assert facet_count(CircularComposition(200, (2,) * 200)) == 2 ** 200
    for arcs in ((1, 2, 1, 1, 3, 1, 2, 1, 1, 1, 2, 1), (3, 1, 1, 4, 1, 2, 1, 1, 2, 5)):
        c = CircularComposition(14 - len(arcs) % 4, arcs)
        assert facet_count(c) == facet_count_literal(c)


def test_facet_count_matches_series():
    # the series transfer matrix reaches where the literal sum is too
    # slow: random compositions up to d = 40 with at most 30 arcs, many
    # arcs, one huge arc, and 1-arcs beside one large arc
    rng = random.Random(28)
    cs = []
    while len(cs) < 400:
        d = rng.randint(2, 40)
        c = random_composition(rng, d, rng.randint(d + 1, d + 20))
        if c.l <= 30:
            cs.append(c)
    cs += [CircularComposition(d, arcs) for d, arcs in (
        (200, (2,) * 200), (400, (2,) * 300), (300, (4,) * 100), (1201, (2000,)))]
    for d, ones, large in ((3, 2, 9), (11, 10, 40), (30, 9, 60), (25, 24, 80)):
        for i in (0, ones // 2, ones):
            cs.append(CircularComposition(d, (1,) * i + (large,) + (1,) * (ones - i)))
    for c in cs:
        assert facet_count(c) == facet_count_series(c), c


def test_facet_count_bounded_work():
    # 100 arcs and r = 100: eight products of 50 kbit ints per arc
    c = CircularComposition(300, (4,) * 100)
    assert facet_count(c) == facet_count_series(c)
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        facet_count(c)
        best = min(best, time.perf_counter() - start)
    assert best < 0.1


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 6), st.integers(0, 10 ** 6))
def test_formula_matches_enumeration(d, seed):
    rng = random.Random(seed)
    c = random_composition(rng, d, rng.randint(d + 1, 11))
    assert facet_count(c) == len(enumerate_facets_circular(c).facets)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6), st.integers(0, 10 ** 6))
def test_vertex_set_is_union_of_facets(d, seed):
    rng = random.Random(seed)
    c = random_composition(rng, d, rng.randint(d + 1, 11))
    fc = enumerate_facets_circular(c)
    assert vertex_set(c) == fc.vertex_labels


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6), st.integers(0, 10 ** 6))
def test_facet_count_dihedral_invariance(d, seed):
    rng = random.Random(seed)
    c = random_composition(rng, d, rng.randint(d + 1, 11))
    if c.l > 1:
        arcs = list(c.arcs)
        i = rng.randrange(c.l)
        assert facet_count(CircularComposition(d, tuple(arcs[i:] + arcs[:i]))) \
            == facet_count(c)
        assert facet_count(CircularComposition(d, tuple(arcs[::-1]))) \
            == facet_count(c)


def test_realize_examples():
    t_set, xi = realize(CircularComposition(4, (3, 4)))
    assert t_set.params == tuple(range(1, 8))
    # q has its single root at the gap midpoint 7/2
    from fractions import Fraction

    from veronese import q_eval
    assert q_eval(xi, Fraction(7, 2)) == 0
    t_set, xi = realize(CircularComposition(4, (5,), dividers=0))
    assert xi.coords == (1, 0, 0, 0, 0)


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 6), st.integers(0, 10 ** 6))
def test_realize_roundtrip(d, seed):
    rng = random.Random(seed)
    c = random_composition(rng, d, rng.randint(d + 1, 10))
    t_set, xi = realize(c)
    back = induce_composition(decompose_chart(xi, t_set))
    assert back.d == c.d and dihedral_min(back.arcs) == dihedral_min(c.arcs)


def test_underdetermined():
    with pytest.raises(UnderdeterminedInstanceError):
        CircularComposition(5, (1, 1, 1, 1, 1))


def _walk_cases():
    """Every canonical composition with d <= 8 and n <= d+6, then 600
    random arc sequences, not canonicalized."""
    for d in range(1, 9):
        for n in range(d + 1, d + 7):
            yield from enumerate_compositions(d, n)
    rng = random.Random(909)
    for _ in range(600):
        d = rng.randint(1, 10)
        yield random_composition(rng, d, rng.randint(d + 1, d + 6))


def test_walk_matches_literal_search(monkeypatch):
    handed = []
    trusted = FacetComplex._trusted.__func__

    def spy(cls, n, d, facets):
        handed.append(facets)
        return trusted(cls, n, d, facets)

    monkeypatch.setattr(FacetComplex, "_trusted", classmethod(spy))
    for c in _walk_cases():
        got = enumerate_facets_circular(c).facets
        # the line walk hands over each facet once, sorted: nothing to dedupe
        facets = handed.pop()
        assert got == enumerate_facets_circular_walk_literal(c).facets \
            == enumerate_facets_circular_literal(c).facets, c
        assert len(facets) == len(set(facets)) == facet_count(c), c
        assert all(list(f) == sorted(f) for f in facets), c


def test_trusted_complexes_equal_checked_ones(monkeypatch):
    # each producer hands its own facets to FacetComplex._trusted, which
    # only sorts them; the public constructor, which checks and dedupes,
    # must build the same complex from them
    made = []
    trusted = FacetComplex._trusted.__func__

    def spy(cls, n, d, facets):
        made.append((trusted(cls, n, d, facets), FacetComplex(n, d, tuple(facets))))
        return made[-1][0]

    monkeypatch.setattr(FacetComplex, "_trusted", classmethod(spy))
    producers = {"line": 0, "geometric": 0, "restrict": 0}
    for c in _walk_cases():
        fc, (t_set, xi) = enumerate_facets_circular(c), realize(c)
        for producer, make in [("line", lambda: enumerate_facets_circular(c)),
                               ("geometric", lambda: enumerate_facets_geometric(xi, t_set)),
                               ("restrict", fc.restrict_to_vertices)]:
            made.clear()
            make()
            producers[producer] += len(made)
            assert all(got == want and got.facets == want.facets for got, want in made), c
    assert all(producers.values()), producers


def _compositions_literal(d, n):
    """enumerate_compositions from the nonnegative compositions of n - l."""
    out, seen = [], set()
    for l in range(d % 2, d + 1, 2):
        if l == 0:
            out.append(CircularComposition(d, (n,), dividers=0))
            continue
        for extra in _compositions_nonneg(n - l, l):
            canon = dihedral_min(tuple(m + 1 for m in extra))
            if canon not in seen:
                seen.add(canon)
                out.append(CircularComposition(d, canon))
    return out


def test_enumerate_compositions_match_nonnegative_compositions():
    for d in range(1, 9):
        for n in range(d + 1, d + 9):
            assert enumerate_compositions(d, n) == _compositions_literal(d, n), (d, n)
