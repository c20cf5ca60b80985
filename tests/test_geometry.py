import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

import veronese.geometry as geometry
from veronese import (
    S123,
    Chart,
    CircularComposition,
    CrossCheckError,
    DimensionMismatchError,
    FacetComplex,
    GroundSet,
    InvalidDecompositionError,
    InvalidInstanceError,
    PointAtInfinityError,
    SignedDecomposition,
    chart_from_decomposition,
    curve_point,
    decompose_chart,
    enumerate_facets_geometric,
    facet_test_determinant,
    facet_test_lambda,
    q_eval,
    vertices_geometric,
)

from helpers import (
    chart_from_decomposition_literal,
    chirotope_literal,
    elementary_symmetric,
    facet_test_determinant_literal,
    facet_test_lambda_literal,
    lambda_eval,
    one_lambda_sign_literal,
    one_lambda_sweep_literal,
    outcome,
    q_eval_literal,
    random_chart,
    random_decomposition,
    random_ground_set,
    random_instance,
)

T_EXAMPLE = GroundSet((-3, -2, -1, 1, 2, 3, 4))
XI_EXAMPLE = Chart((0, -1, 0, 0, 0))


def test_ground_set_validation():
    with pytest.raises(InvalidInstanceError):
        GroundSet((1, 1, 2))
    with pytest.raises(InvalidInstanceError):
        GroundSet((2, 1))
    assert GroundSet((Fraction(1, 2), 1)).n == 2


def test_chart_validation():
    with pytest.raises(Exception):
        Chart((0, 0, 0))
    assert Chart((0, 1, 0)).d == 2


def test_q_eval():
    assert q_eval(Chart((1, 0, 0, 0, 0)), 7) == 1
    assert q_eval(XI_EXAMPLE, -3) == 3
    assert q_eval(Chart((-1, 0, 1)), 2) == 3


def _random_rational(rng):
    """Zero, an integer, a small fraction or one with a large denominator."""
    kind = rng.randrange(4)
    if kind == 0:
        return Fraction(0)
    if kind == 1:
        return Fraction(rng.randint(-20, 20))
    den = rng.randint(1, 7) if kind == 2 else rng.randint(10 ** 9, 10 ** 15)
    return Fraction(rng.randint(-20 * den, 20 * den), den)


def test_q_eval_matches_literal_oracle():
    rng = random.Random(911)
    for _ in range(3000):
        d = rng.randint(0, 12)
        roots = [_random_rational(rng) for _ in range(rng.randint(0, d))]
        xi = random_chart(rng, d, roots)
        if rng.random() < 0.3:
            xi = Chart(tuple(_random_rational(rng) for _ in range(d))
                       + (rng.randint(1, 9),))
        # a root hit exactly, a parameter, an int or a string
        t = rng.choice([*roots, _random_rational(rng)])
        for point in (t, int(t), str(t)):
            got = outcome(q_eval, xi, point)
            assert got == outcome(q_eval_literal, xi, point), (xi, point)
            assert got[1] is Fraction
    assert q_eval(Chart((Fraction(-3, 7),)), Fraction(5, 11)) == Fraction(-3, 7)
    assert q_eval(Chart((1, 0, -1)), 1) == 0
    assert outcome(q_eval, XI_EXAMPLE, "x") == outcome(q_eval_literal, XI_EXAMPLE, "x")


def test_chart_from_decomposition_matches_literal_oracle():
    rng = random.Random(912)
    for _ in range(1500):
        d = rng.randint(0, 12)
        n = rng.randint(1, 16)
        t_set = random_ground_set(rng, n, max_den=rng.choice([1, 8, 10 ** 12]))
        dec = random_decomposition(rng, d, rng.choice([n, n, n, n + 1]))
        got = outcome(chart_from_decomposition, dec, t_set)
        assert got == outcome(chart_from_decomposition_literal, dec, t_set), (dec, t_set)


def test_curve_point():
    assert curve_point(Chart((1, 0, 0)), 2) == (1, 2, 4)
    assert curve_point(Chart((-1, 0, 1)), 2) == (
        Fraction(1, 3), Fraction(2, 3), Fraction(4, 3))
    with pytest.raises(PointAtInfinityError):
        curve_point(Chart((-1, 0, 1)), 1)


def test_curve_point_pairing():
    xi = Chart((2, -3, 1, 5))
    pt = curve_point(xi, Fraction(7, 3))
    assert sum(c * x for c, x in zip(xi.coords, pt)) == 1


def test_lambda_eval():
    s = {1, 2, 3, 4}
    assert lambda_eval(XI_EXAMPLE, s, -3) == 280
    assert lambda_eval(XI_EXAMPLE, s, -1) == 120
    assert lambda_eval(XI_EXAMPLE, s, 2) == 0
    with pytest.raises(PointAtInfinityError):
        lambda_eval(XI_EXAMPLE, s, 0)


def test_facet_test_lambda_examples():
    assert facet_test_lambda(XI_EXAMPLE, T_EXAMPLE, {1, 2, 3, 4})
    assert not facet_test_lambda(XI_EXAMPLE, T_EXAMPLE, {-3, -2, -1, 2})
    moment = Chart((1, 0, 0, 0, 0))
    assert facet_test_lambda(moment, GroundSet((0, 1, 2, 3, 4)), {0, 1, 3, 4})


def test_facet_test_arity_and_instance_errors():
    with pytest.raises(DimensionMismatchError):
        facet_test_lambda(XI_EXAMPLE, T_EXAMPLE, {1, 2, 3})
    bad = GroundSet((-1, 0, 1, 2, 3))
    with pytest.raises(InvalidInstanceError):
        facet_test_lambda(XI_EXAMPLE, bad, {-1, 1, 2, 3})


def test_facet_test_determinant_examples():
    assert facet_test_determinant(XI_EXAMPLE, T_EXAMPLE, {1, 2, 3, 4})
    assert not facet_test_determinant(XI_EXAMPLE, T_EXAMPLE, {-3, -2, -1, 2})


EXPECTED_FACETS = tuple(sorted([
    (3, 4, 5, 6), (2, 4, 5, 6), (2, 3, 4, 6), (1, 2, 3, 6),
    (0, 3, 5, 6), (0, 3, 4, 5), (0, 2, 5, 6), (0, 2, 4, 5),
    (0, 2, 3, 4), (0, 1, 3, 6), (0, 1, 2, 6), (0, 1, 2, 3),
]))


def test_enumerate_facets_geometric_example():
    fc = enumerate_facets_geometric(XI_EXAMPLE, T_EXAMPLE)
    assert fc.facets == EXPECTED_FACETS


def test_enumerate_facets_simplex():
    fc = enumerate_facets_geometric(Chart((1, 1, 0, 1)), GroundSet((0, 1, 2, 5)))
    assert fc.facets == tuple(combinations(range(4), 3))


def test_enumerate_facets_moment_curve():
    fc = enumerate_facets_geometric(
        Chart((1, 0, 0, 0, 0)), GroundSet((0, 1, 2, 3, 4, 5, 6)))
    assert len(fc.facets) == 14


def test_decompose_chart_examples():
    dec = decompose_chart(XI_EXAMPLE, T_EXAMPLE)
    assert dec.sizes == (3, 4) and dec.first_sign == 1
    dec = decompose_chart(Chart((1, 0, 0, 0)), GroundSet((1, 2, 3, 4, 5)))
    assert dec.sizes == (5,) and dec.first_sign == 1
    # q = t^3 on a set straddling zero
    dec = decompose_chart(Chart((0, 0, 0, 1)), GroundSet((-2, -1, 1, 2, 3)))
    assert dec.sizes == (2, 3) and dec.first_sign == -1


def test_decompose_chart_vanishing():
    with pytest.raises(InvalidInstanceError):
        decompose_chart(XI_EXAMPLE, GroundSet((-1, 0, 1)))


def test_decompose_chart_rejects_too_many_sign_changes(monkeypatch):
    import veronese.geometry as geometry

    # five alternating signs are four sign changes, more than d = 2 allows
    monkeypatch.setattr(geometry, "q_eval", lambda xi, t: Fraction(-1) ** t)
    with pytest.raises(CrossCheckError):
        decompose_chart(Chart((1, 0, 0)), GroundSet((1, 2, 3, 4, 5)))


def test_chart_from_decomposition_examples():
    dec = SignedDecomposition((3, 4), 1, 4)
    xi = chart_from_decomposition(dec, T_EXAMPLE)
    assert xi.coords == (0, -1, 0, 0, 0)
    dec = SignedDecomposition((5,), 1, 3)
    xi = chart_from_decomposition(dec, GroundSet((1, 2, 3, 4, 5)))
    assert xi.coords == (1, 0, 0, 0)
    with pytest.raises(InvalidDecompositionError):
        chart_from_decomposition(SignedDecomposition((2, 2), 1, 3), T_EXAMPLE)


def test_signed_decomposition_validation():
    with pytest.raises(InvalidDecompositionError):
        SignedDecomposition((2, 0, 1), 1, 4)
    with pytest.raises(InvalidDecompositionError):
        SignedDecomposition((1, 1), 2, 3)
    with pytest.raises(InvalidDecompositionError):
        SignedDecomposition((1, 1, 1, 1), 1, 2)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5), st.integers(0, 10 ** 6))
def test_chart_decomposition_roundtrip(d, seed):
    rng = random.Random(seed)
    n = rng.randint(d + 1, 9)
    t_set = random_ground_set(rng, n)
    dec = random_decomposition(rng, d, n)
    assert decompose_chart(chart_from_decomposition(dec, t_set), t_set) == dec


def test_vertices_geometric_examples():
    assert vertices_geometric(XI_EXAMPLE, T_EXAMPLE) == tuple(range(7))
    # minimal instance: everything is a vertex
    assert vertices_geometric(
        Chart((1, 0, 0)), GroundSet((0, 1, 2))) == (0, 1, 2)


def test_chamber_invariance_and_negation():
    rng = random.Random(11)
    for _ in range(20):
        d = rng.randint(2, 4)
        n = rng.randint(d + 1, 8)
        t1 = random_ground_set(rng, n)
        dec = random_decomposition(rng, d, n)
        xi = chart_from_decomposition(dec, t1)
        # scale the chart: same chamber, same facets
        xi2 = Chart(tuple(Fraction(3, 7) * c for c in xi.coords))
        assert decompose_chart(xi2, t1) == dec
        assert enumerate_facets_geometric(xi, t1).facets \
            == enumerate_facets_geometric(xi2, t1).facets
        neg = Chart(tuple(-c for c in xi.coords))
        dneg = decompose_chart(neg, t1)
        assert dneg.sizes == dec.sizes and dneg.first_sign == -dec.first_sign
        assert enumerate_facets_geometric(neg, t1).facets \
            == enumerate_facets_geometric(xi, t1).facets


def test_chamber_count():
    # distinct signed decompositions with <= d sign changes on n points
    for n in (3, 5, 8):
        for d in (2, 3, 6):
            seen = set()
            for k in range(0, min(d, n - 1) + 1):
                for cuts in combinations(range(1, n), k):
                    bounds = (0,) + cuts + (n,)
                    sizes = tuple(b - a for a, b in zip(bounds, bounds[1:]))
                    for sgn in (1, -1):
                        seen.add(SignedDecomposition(sizes, sgn, d))
            assert len(seen) == 2 * sum(comb(n - 1, j) for j in range(d + 1))


def test_facets_are_d_sets():
    fc = enumerate_facets_geometric(XI_EXAMPLE, T_EXAMPLE)
    assert all(len(f) == 4 for f in fc.facets)


def _outcome(test, *args):
    """The test's answer, or the type of the input error it raised."""
    try:
        return test(*args)
    except (DimensionMismatchError, InvalidInstanceError, PointAtInfinityError) as exc:
        return type(exc)


def test_geometric_tests_match_literal_oracles():
    rng = random.Random(906)
    seen = set()
    for case in range(150):
        d = 1 + case % 6
        n = rng.randint(d + 1, 10)
        t_set = random_ground_set(rng, n)
        params = t_set.params
        outside = Fraction(rng.randint(-40, 40), rng.randint(1, 9))
        while outside in params:
            outside += Fraction(1, 7)
        # charts that vanish on T, outside T, or both (where d allows two roots)
        roots = ([], [rng.choice(params)], [outside], [rng.choice(params), outside])
        xi = random_chart(rng, d, roots[case % 4][:d])
        subsets = [[params[i] for i in idxs] for idxs in combinations(range(n), d)]
        some = rng.sample(subsets, min(4, len(subsets)))
        subsets += [[outside] + s[1:] for s in some]       # S leaves T
        subsets += [s[:-1] for s in some] + [s + [outside] for s in some]
        subsets += [[s[0]] + s[:-1] for s in some]         # a repeated value
        lambda_literal = []
        for s in subsets:
            for new, literal in ((facet_test_lambda, facet_test_lambda_literal),
                                 (facet_test_determinant, facet_test_determinant_literal)):
                expected = _outcome(literal, xi, t_set, s)
                assert _outcome(new, xi, t_set, s) == expected, (xi, t_set, s, new)
                seen.add((new.__name__, expected))
                if literal is facet_test_lambda_literal:
                    lambda_literal.append(expected)
        # the oracle scan: the literal lambda outcomes of the d-subsets
        if InvalidInstanceError in lambda_literal:
            with pytest.raises(InvalidInstanceError):
                enumerate_facets_geometric(xi, t_set)
        else:
            scan = zip(combinations(range(n), d), lambda_literal)
            assert enumerate_facets_geometric(xi, t_set).facets \
                == tuple(idxs for idxs, facet in scan if facet)
    # every outcome was reached by both tests
    for name in ("facet_test_lambda", "facet_test_determinant"):
        assert {got for test, got in seen if test == name} >= {
            True, False, DimensionMismatchError, InvalidInstanceError}
    assert ("facet_test_determinant", PointAtInfinityError) in seen


def _determinant_scan(xi, t_set, outside):
    """Both tests' outcomes on every d-subset of T, with an S that leaves
    T (its first value replaced by outside) after each one."""
    pairs = []
    for idxs in combinations(range(t_set.n), xi.d):
        for s in ([t_set.params[i] for i in idxs],
                  [outside] + [t_set.params[i] for i in idxs[1:]]):
            pairs.append((_outcome(facet_test_determinant, xi, t_set, s),
                          _outcome(facet_test_determinant_literal, xi, t_set, s)))
    return pairs


def test_determinant_memo_matches_literal_oracle():
    rng = random.Random(907)
    for _ in range(12):
        d = rng.randint(1, 4)
        n = rng.randint(d + 1, 8)
        t_set = random_ground_set(rng, n)
        a = chart_from_decomposition(random_decomposition(rng, d, n), t_set)
        b = random_chart(rng, d, [])
        while any(q_eval(b, t) == 0 for t in t_set.params):
            b = random_chart(rng, d, [])
        outside = Fraction(61, 2)  # beyond the span of random_ground_set
        # two charts on one ground set, interleaved A, B, A, so the memo
        # holds both instances at once; then equal but distinct objects
        twins = (Chart(tuple(a.coords)), GroundSet(tuple(t_set.params)))
        for xi, ts in ((a, t_set), (b, t_set), (a, t_set), twins):
            for got, want in _determinant_scan(xi, ts, outside):
                assert got == want, (xi, ts)
    assert geometry._determinant_memo.cache_info().hits > 0


def test_determinant_memo_never_keeps_an_error():
    xi = Chart((-2, 0, 1, 1))  # q(1) = 0
    t_set = GroundSet((-2, 0, 1, 3, 4))
    for _ in range(3):
        for s in ((0, 1, 3), (-2, 3, 4), (5, 6, 7)):
            with pytest.raises(InvalidInstanceError):
                facet_test_determinant(xi, t_set, s)
        with pytest.raises(DimensionMismatchError):
            facet_test_determinant(xi, t_set, (0, 3))
    assert geometry._determinant_memo.cache_info().currsize == 0
    # the same ground set under a chart that does not vanish on it
    ok = Chart((5, 0, 1, 1))
    assert facet_test_determinant(ok, t_set, (0, 1, 3)) \
        == facet_test_determinant_literal(ok, t_set, (0, 1, 3))


def _mask(idxs) -> int:
    return sum(1 << i for i in idxs)


def test_determinant_scan_shares_its_eliminations(monkeypatch):
    rng = random.Random(908)
    d, n = 6, 10
    t_set = random_ground_set(rng, n)
    xi = chart_from_decomposition(random_decomposition(rng, d, n), t_set)
    determinants, reduced = [], []
    sign_det, _reduced = geometry.sign_det, geometry._reduced

    def counted_det(rows):
        determinants.append(rows)
        return sign_det(rows)

    def counted_reduced(memo, rows, key):
        if key.bit_count() > 1 and key not in memo:  # n <= 61: keyed by the mask
            reduced.append(key)
        return _reduced(memo, rows, key)

    monkeypatch.setattr(geometry, "sign_det", counted_det)
    monkeypatch.setattr(geometry, "_reduced", counted_reduced)
    found = [idxs for idxs in combinations(range(n), d)
             if facet_test_determinant(xi, t_set, [t_set.params[i] for i in idxs])]
    assert determinants == []
    # each (prefix, row) pair, a mask of 2 to d+1 indices, is reduced once
    assert len(set(reduced)) == len(reduced) <= sum(comb(n, k) for k in range(2, d + 2))
    assert tuple(found) == enumerate_facets_geometric(xi, t_set).facets
    # a second scan is answered from the memo
    memo = geometry._determinant_memo(xi, t_set)[2]
    entries, scan_reduced = len(memo), len(reduced)
    for idxs in combinations(range(n), d):
        facet_test_determinant(xi, t_set, [t_set.params[i] for i in idxs])
    assert (len(memo), len(reduced)) == (entries, scan_reduced)


@pytest.mark.parametrize("d, n", [(10, 40), (12, 60)])
def test_cold_determinant_call_stays_lazy(monkeypatch, d, n):
    """One call on an empty memo makes at most d(d+1)/2 elimination
    steps for each of its n - d subsets U (see the module docstring)."""
    rng = random.Random(1000 * d + n)
    steps = []
    bareiss_step = geometry.bareiss_step

    def counted(*args):
        steps.append(1)
        return bareiss_step(*args)

    monkeypatch.setattr(geometry, "bareiss_step", counted)
    for _ in range(3):
        t_set = random_ground_set(rng, n)
        xi = chart_from_decomposition(random_decomposition(rng, d, n), t_set)
        s = rng.sample(t_set.params, d)
        geometry._determinant_memo.cache_clear()
        steps.clear()
        assert facet_test_determinant(xi, t_set, s) \
            == facet_test_lambda(xi, t_set, s), (xi, t_set, s)
        assert 0 < len(steps) <= (n - d) * d * (d + 1) // 2


def test_wide_ground_sets_keep_memo_hashes_apart():
    """Past 61 parameters the memo keys masks by their packed member
    indices, since int masks would share hashes (see the module docstring): every memo key
    hashes apart, and the scan agrees with the lambda test and, on a
    sample, with the literal oracle."""
    rng = random.Random(914)
    for d, n in ((1, 130), (2, 70)):
        xi, t_set = random_instance(rng, d, n)
        params = t_set.params
        found = tuple(idxs for idxs in combinations(range(n), d)
                      if facet_test_determinant(xi, t_set, [params[i] for i in idxs]))
        assert found == enumerate_facets_geometric(xi, t_set).facets
        memo = geometry._determinant_memo(xi, t_set)[2]
        assert len({hash(key) for key in memo}) == len(memo)
        if d == 1:
            # int masks of one or two indices would take at most 61 + 1891 hashes
            assert len(memo) > 61 + 61 * 62 // 2
        for _ in range(4):
            s = rng.sample(params, d)
            assert facet_test_determinant(xi, t_set, s) \
                == facet_test_determinant_literal(xi, t_set, s), (xi, t_set, s)


def test_chirotope_memo_matches_literal_oracle():
    rng = random.Random(909)
    for case in range(36):
        d = 1 + case % 6
        xi, t_set = random_instance(rng, d, rng.randint(d + 1, 10))
        n = t_set.n
        # a scan in random order fills part of the memo; _reduced the rest
        subsets = list(combinations(range(n), d))
        rng.shuffle(subsets)
        for idxs in subsets:
            facet_test_determinant(xi, t_set, [t_set.params[i] for i in idxs])
        _, rows, memo = geometry._determinant_memo(xi, t_set)
        for u in combinations(range(n), d + 1):
            key = _mask(u)
            got = memo[key] if key in memo else geometry._reduced(memo, rows, key)
            assert got == chirotope_literal(rows, u), (xi, t_set, u)


def test_chirotope_falls_back_to_sign_det_on_a_zero_pivot(monkeypatch):
    # row 0 has a zero leading entry, rows 1 and 2 a zero leading 2 x 2
    # minor, and row 5 is twice row 1
    rows = [[0, 1, 5], [1, 2, 3], [2, 4, 7], [3, 1, 1], [1, 0, 1], [2, 4, 6]]
    determinants = []
    sign_det = geometry.sign_det

    def counted(matrix):
        determinants.append(1)
        return sign_det(matrix)

    monkeypatch.setattr(geometry, "sign_det", counted)
    memo, zero_pivots, signs = {}, 0, set()
    for u in combinations(range(len(rows)), 3):
        got = geometry._reduced(memo, rows, _mask(u))
        assert got == memo[_mask(u)] == sign_det([rows[i] for i in u]), u
        signs.add(got)
        zero_pivots += any(sign_det([rows[i][:k] for i in u[:k]]) == 0 for k in (1, 2))
    assert 0 < zero_pivots == len(determinants) < comb(len(rows), 3)
    assert signs == {-1, 0, 1}


def test_lambda_sweep_matches_literal_oracle():
    """The mask predicate, on index keys and on values inside and off T,
    against the sweep it replaced and the per-parameter count."""
    rng = random.Random(911)
    for case in range(70):
        d = case % 7
        # the first seven cases take n = d, which leaves T minus S empty
        n = d if case < 7 else rng.randint(max(d, 1), 10)
        params = random_ground_set(rng, n).params
        q_signs = [rng.choice((1, -1)) for _ in range(n)]
        positive = _mask(i for i, q in enumerate(q_signs) if q > 0)
        outside = Fraction(rng.randint(-70, 70), rng.randint(1, 9))
        while outside in params:
            outside = Fraction(rng.randint(-70, 70), rng.randint(1, 9))
        for idxs in combinations(range(n), d):
            values = {params[i] for i in idxs}
            for keys, s in ((range(n), idxs), (params, values),
                            (params, values - {params[idxs[0]]} | {outside} if d else values)):
                members, flips = geometry._lambda_masks(keys, s)
                got = geometry._one_lambda_sign(positive, ((1 << n) - 1) ^ members, flips)
                assert got == one_lambda_sweep_literal(q_signs, keys, s) \
                    == one_lambda_sign_literal(q_signs, keys, s), (q_signs, keys, s)


def test_facet_test_lambda_places_values_off_t():
    """S values below, between, equal to and above T's parameters."""
    rng = random.Random(913)
    for case in range(120):
        d = 1 + case % 6
        xi, t_set = random_instance(rng, d, rng.randint(d + 1, 9))
        params = t_set.params
        pool = [*params, params[0] - 1, params[-1] + Fraction(1, 3),
                *((a + b) / 2 for a, b in zip(params, params[1:]))]
        for _ in range(8):
            s = rng.sample(pool, d)
            assert outcome(facet_test_lambda, xi, t_set, s) \
                == outcome(facet_test_lambda_literal, xi, t_set, s), (xi, t_set, s)


def test_chart_coefficients_are_signed_elementary_symmetric_sums():
    rng = random.Random(910)
    for _ in range(200):
        d = rng.randint(1, 12)
        n = rng.randint(d + 1, 16)
        t_set = random_ground_set(rng, n)
        dec = random_decomposition(rng, d, n)
        ends = [sum(dec.sizes[:j]) for j in range(1, len(dec.sizes))]
        roots = [(t_set.params[e - 1] + t_set.params[e]) / 2 for e in ends]
        k = len(roots)
        # q = +-prod(t - root): the coefficient of t^j is (-1)^(k-j) e_(k-j)(roots)
        want = [(-1) ** (k - j) * elementary_symmetric(roots, k - j) if j <= k else 0
                for j in range(d + 1)]
        want = Chart(tuple(want))
        if (q_eval(want, t_set.params[0]) > 0) != (dec.first_sign > 0):
            want = Chart(tuple(-c for c in want.coords))
        assert chart_from_decomposition(dec, t_set) == want, (dec, t_set)




# each value object, its fields in order and its repr
VALUES = [
    (GroundSet((1, 2)), ("params",),
     "GroundSet(params=(Fraction(1, 1), Fraction(2, 1)))"),
    (Chart((0, Fraction(1, 2))), ("coords",),
     "Chart(coords=(Fraction(0, 1), Fraction(1, 2)))"),
    (SignedDecomposition((2, 1), -1, 3), ("sizes", "first_sign", "d"),
     "SignedDecomposition(sizes=(2, 1), first_sign=-1, d=3)"),
    (CircularComposition(3, (1, 2, 1)), ("d", "arcs", "dividers"),
     "CircularComposition(d=3, arcs=(1, 2, 1), dividers=3)"),
    (FacetComplex(3, 2, ((2, 0), (0, 1))), ("n_labels", "d", "facets"),
     "FacetComplex(n_labels=3, d=2, facets=((0, 1), (0, 2)))"),
    (S123((1,), (), ((2, 3),)), ("s1", "s2", "s3"),
     "S123(s1=(1,), s2=(), s3=((2, 3),))"),
]


@pytest.mark.parametrize("value, names, text", VALUES,
                         ids=[type(v).__name__ for v, _, _ in VALUES])
def test_value_objects_keep_frozen_dataclass_semantics(value, names, text):
    assert repr(value) == text
    fields = {f: getattr(value, f) for f in names}
    twin = type(value)(**fields)
    assert twin is not value and twin == value and hash(twin) == hash(value)
    assert value != tuple(fields.values())
    assert value.__eq__(tuple(fields.values())) is NotImplemented
    for f in names:
        with pytest.raises(AttributeError):
            setattr(value, f, None)
        with pytest.raises(AttributeError):
            delattr(value, f)
    with pytest.raises(AttributeError):
        value.other = None
    assert {f: getattr(value, f) for f in names} == fields


def test_equal_distinct_instance_hits_the_determinant_memo():
    t_set, xi = GroundSet((1, 2, 3)), Chart((1, 0, 1))
    facet_test_determinant(xi, t_set, (1, 2))
    facet_test_determinant(Chart((1, 0, 1)), GroundSet((1, 2, 3)), (1, 2))
    assert geometry._determinant_memo.cache_info()[:2] == (1, 1)
