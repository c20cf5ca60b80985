"""Acceptance gate: ten end-to-end criteria, each printing one
``criterion N: PASS``/``FAIL`` line.  All comparisons are exact (the
arithmetic is rational throughout); the only pinned tolerances are the
wall-clock budgets asserted per criterion."""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations

import sympy

from veronese import (
    Chart,
    CircularComposition,
    GroundSet,
    SignedDecomposition,
    certificate,
    chart_from_decomposition,
    count_types,
    cross_check,
    decompose_chart,
    distinct_types,
    enumerate_facets_circular,
    enumerate_facets_geometric,
    facet_count,
    induce_composition,
    is_cyclic_type,
    is_power_of_linear_form,
    realize,
    vertex_set,
    vertices_geometric,
)

from helpers import random_decomposition, random_ground_set


@contextmanager
def criterion(number: int, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_seconds, (
        f"criterion {number}: FAIL (took {elapsed:.1f}s, "
        f"budget {budget_seconds}s)"
    )
    print(f"criterion {number}: PASS ({elapsed:.1f}s)")


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _all_compositions(d, n):
    """Every composition with n points in dimension d, all admissible
    divider counts, without dihedral deduplication."""
    out = []
    for l in range(d % 2, d + 1, 2):
        if l == 0:
            out.append(CircularComposition(d, (n,), dividers=0))
        elif l <= n:
            out.extend(CircularComposition(d, arcs)
                       for arcs in _compositions(n, l))
    return out


def test_criterion_1_worked_example():
    expected = tuple(sorted([
        (3, 4, 5, 6), (2, 4, 5, 6), (2, 3, 4, 6), (1, 2, 3, 6),
        (0, 3, 5, 6), (0, 3, 4, 5), (0, 2, 5, 6), (0, 2, 4, 5),
        (0, 2, 3, 4), (0, 1, 3, 6), (0, 1, 2, 6), (0, 1, 2, 3),
    ]))
    with criterion(1, 1.0):
        t_set = GroundSet((-3, -2, -1, 1, 2, 3, 4))
        xi = Chart((0, -1, 0, 0, 0))
        assert enumerate_facets_geometric(xi, t_set).facets == expected


def test_criterion_2_four_way_equivalence():
    rng = random.Random(20260823)
    with criterion(2, 30.0):
        for _ in range(500):
            d = rng.randint(2, 6)
            n = rng.randint(d + 1, 10)
            t_set = random_ground_set(rng, n)
            dec = random_decomposition(rng, d, n)
            xi = chart_from_decomposition(dec, t_set)
            assert decompose_chart(xi, t_set) == dec
            report = cross_check(xi, t_set)
            assert report["lambda"] == report["determinant"] \
                == report["sigma_pa"] == report["s123"]


def test_criterion_3_formula_vs_enumeration():
    with criterion(3, 300.0):
        for d in range(2, 8):
            for n in range(d + 1, 13):
                for c in _all_compositions(d, n):
                    assert facet_count(c) == \
                        len(enumerate_facets_circular(c).facets)


TABLE_1 = {
    3: {n: v for n, v in zip(range(4, 13), (1, 1, 2, 1, 1, 1, 1, 1, 1))},
    4: {n: v for n, v in zip(range(5, 13), (1, 2, 5, 6, 5, 6, 6, 7))},
    5: {n: v for n, v in zip(range(6, 11), (1, 2, 8, 9, 10))},
    6: {n: v for n, v in zip(range(7, 12), (1, 3, 18, 24, 27))},
    7: {n: v for n, v in zip(range(8, 11), (1, 3, 29))},
}


def test_criterion_4_type_counts_table():
    with criterion(4, 60.0):
        for d, row in TABLE_1.items():
            for n, expected in row.items():
                assert count_types(d, n) == expected, (d, n)


def test_criterion_5_type_counts_spot_checks():
    for number, (d, n, expected) in zip(
        ("5a", "5b", "5c"),
        ((4, 21, 11), (5, 19, 31), (6, 14, 55)),
    ):
        with criterion(number, 60.0):
            assert count_types(d, n) == expected


def test_criterion_6_vertex_counts():
    rng = random.Random(6)
    with criterion(6, 10.0):
        assert len(vertex_set(CircularComposition(4, (10,), dividers=0))) == 10
        assert len(vertex_set(CircularComposition(4, (2, 3, 2, 3)))) == 8
        assert len(vertex_set(CircularComposition(4, (1, 1, 1, 7)))) == 5
        ten = CircularComposition(4, (1, 9))
        assert facet_count(ten) == 20
        assert len(vertex_set(ten)) == 10
        for _ in range(200):
            d = rng.randint(2, 6)
            n = rng.randint(d + 1, 10)
            l = rng.choice([l for l in range(d % 2, d + 1, 2) if l <= n])
            if l == 0:
                c = CircularComposition(d, (n,), dividers=0)
            else:
                cuts = sorted(rng.sample(range(1, n), l - 1))
                arcs = tuple(b - a for a, b in zip([0] + cuts, cuts + [n]))
                c = CircularComposition(d, arcs)
            t_set, xi = realize(c)
            assert vertex_set(c) == vertices_geometric(xi, t_set)


def test_criterion_7_named_type_facet_counts():
    with criterion(7, 300.0):
        # cross-polytopes: l = d dividers, every arc of size >= 2
        for d in range(2, 7):
            for n in range(2 * d, 15):
                for arcs in _compositions(n, d):
                    if min(arcs) < 2:
                        continue
                    fc = enumerate_facets_circular(CircularComposition(d, arcs))
                    assert len(fc.facets) == 2 ** d
                    assert len(fc.vertex_labels) == 2 * d
        # simplices: d+1 points in any composition
        for d in range(2, 8):
            for c in _all_compositions(d, d + 1):
                assert len(enumerate_facets_circular(c).facets) == d + 1
        # stacked family: all line intervals singletons except the last
        for d in range(3, 7):
            for n in range(d + 2, 15):
                sizes = (1,) * (d - 3) + (n - (d - 3),)
                c = induce_composition(SignedDecomposition(sizes, 1, d))
                fc = enumerate_facets_circular(c)
                assert len(fc.facets) == (d - 1) * n - (d + 1) * (d - 2)


def _distinct_projective_roots(xi, d) -> int:
    """Oracle: distinct roots of the degree-d homogenization of
    f(y) = sum xi_j y^j, counting the root at infinity when deg f < d."""
    y = sympy.Symbol("y")
    f = sympy.Poly([sympy.Rational(c) for c in reversed(xi)], y)
    repeated = sympy.gcd(f, f.diff(y))
    finite = f.degree() - sympy.Poly(repeated, y).degree()
    return finite + (1 if f.degree() < d else 0)


def test_criterion_8_chart_order_criterion():
    rng = random.Random(8)
    with criterion(8, 60.0):
        accepted = 0
        while accepted < 20:
            d = rng.randint(2, 6)
            a = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            b = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            if a == 0 and b == 0:
                continue
            scale = Fraction(rng.choice([v for v in range(-7, 8) if v]),
                             rng.randint(1, 5))
            xi = tuple(scale * math.comb(d, j) * a ** j * b ** (d - j)
                       for j in range(d + 1))
            assert is_power_of_linear_form(xi, d)
            assert _distinct_projective_roots(xi, d) <= 1
            accepted += 1
        rejected = 0
        while rejected < 100:
            d = rng.randint(2, 6)
            xi = tuple(rng.randint(-6, 6) for _ in range(d + 1))
            if not any(xi) or _distinct_projective_roots(xi, d) < 2:
                continue
            assert not is_power_of_linear_form(xi, d)
            rejected += 1


def test_criterion_9_three_dimensional_classification():
    with criterion(9, 120.0):
        octahedron = certificate(
            enumerate_facets_circular(CircularComposition(3, (2, 2, 2)))
        )
        for n in range(4, 13):
            for cert, c in distinct_types(3, n):
                assert is_cyclic_type(c) or cert == octahedron


def test_criterion_10_chamber_count():
    with criterion(10, 60.0):
        for d in range(1, 8):
            for n in range(2, 11):
                total = 0
                for k in range(0, min(d, n - 1) + 1):
                    for cuts in combinations(range(1, n), k):
                        sizes = tuple(
                            b - a for a, b in
                            zip((0,) + cuts, cuts + (n,))
                        )
                        for first_sign in (1, -1):
                            SignedDecomposition(sizes, first_sign, d)
                            total += 1
                assert total == 2 * sum(
                    math.comb(n - 1, j) for j in range(d + 1)
                )
