import random
from itertools import product
from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

from veronese import (
    DimensionMismatchError,
    InvalidChartError,
    is_power_of_linear_form,
    rat,
    rat_str,
    sign_det,
)

from helpers import (
    elementary_symmetric,
    is_power_of_linear_form_literal,
    outcome,
    rat_literal,
)

rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=50
)


def test_rat_parsing():
    assert rat("3/4") == Fraction(3, 4)
    assert rat("-7") == Fraction(-7)
    assert rat("+2/6") == Fraction(1, 3)
    assert rat(5) == Fraction(5)
    assert rat(Fraction(-3, 4)) == Fraction(-3, 4)
    with pytest.raises(InvalidChartError):
        rat(True)  # a bool is not taken for an int
    with pytest.raises(InvalidChartError):
        rat("1/0")
    with pytest.raises(InvalidChartError):
        rat("abc")
    with pytest.raises(InvalidChartError):
        rat(None)
    assert rat("1.5") == Fraction(3, 2)
    assert rat(" -0.25 ") == Fraction(-1, 4)
    # Fraction would compute 10**exp in full
    for text in ("1e5", "2E-3", "1.5e1", "-1e400"):
        with pytest.raises(InvalidChartError, match="exponent"):
            rat(text)


# pieces of rational literals, valid or not: signs, whitespace inside and
# around, zero denominators, underscores, decimals, exponents, non-ASCII
# digits and numbers on both sides of int's 4300-digit limit
_RAT_PIECES = st.sampled_from([
    "", " ", "\t", "\n", "\u3000", "+", "-", "0", "7", "12", "007", "/", "/0",
    "/-2", "_", "1_000", ".", ".5", "5.", "e", "E", "e5", "x", "nan", "inf",
    "\u0663", "\u00b2", "\uff17", "1" * 4300, "9" * 2200,
])


@settings(max_examples=400, deadline=None)
@given(st.one_of(
    st.lists(_RAT_PIECES, max_size=7).map("".join),
    st.tuples(_RAT_PIECES, st.sampled_from(["", "+", "-"]), st.integers(0, 10 ** 30),
              st.sampled_from(["", "/"]), st.integers(0, 10 ** 30), _RAT_PIECES)
    .map(lambda t: f"{t[0]}{t[1]}{t[2]}{t[3]}{t[4] if t[3] else ''}{t[5]}"),
))
@example("")
@example(" -12/8 ")
@example("1/0")
@example("1/-2")
@example("3 / 4")
@example("\u0663/4")
@example("1" * 4301)
@example("-" + "1" * 4300 + "/" + "2" * 4300)
@example("1/" + "0" * 4301)
def test_rat_parses_like_fraction(text):
    # the int fast path accepts, values and refuses exactly as Fraction
    assert outcome(rat, text) == outcome(rat_literal, text)


@given(rationals)
def test_rat_str_roundtrip(x):
    assert rat(rat_str(x)) == x


def test_rat_str_integers():
    assert rat_str(Fraction(4, 2)) == "2"
    assert rat_str(Fraction(-3, 9)) == "-1/3"


def test_sign_det_identity():
    assert sign_det([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 1
    assert sign_det([]) == 1  # the empty product


def test_sign_det_vandermonde():
    # rows (1, t, t^2) at t = 0, 1, 2; determinant is 2
    assert sign_det([[1, 0, 0], [1, 1, 1], [1, 2, 4]]) == 1


def test_sign_det_repeated_row():
    assert sign_det([[1, 2], [1, 2]]) == 0


def test_sign_det_swap_and_fractions():
    assert sign_det([[0, 1], [1, 0]]) == -1
    assert sign_det([[Fraction(1, 2), 0], [0, Fraction(1, 3)]]) == 1
    assert sign_det([[Fraction(-1, 2), 0], [0, Fraction(1, 3)]]) == -1


def test_sign_det_non_square():
    with pytest.raises(DimensionMismatchError):
        sign_det([[1, 2, 3], [4, 5, 6]])


def _laplace_det(rows):
    if len(rows) == 1:
        return Fraction(rows[0][0])
    total = Fraction(0)
    for j, head in enumerate(rows[0]):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * Fraction(head) * _laplace_det(minor)
    return total


@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.lists(rationals, min_size=n, max_size=n), min_size=n, max_size=n
    )
))
def test_sign_det_matches_laplace(rows):
    det = _laplace_det(rows)
    expected = 0 if det == 0 else (1 if det > 0 else -1)
    assert sign_det(rows) == expected


def _random_int_matrix(rng, n):
    rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
    kind = rng.randrange(4)
    if kind == 1 and n > 1:  # singular: a row is a combination of two others
        a, b = rng.sample(range(n), 2)
        rows[rng.randrange(n)] = [2 * x - y for x, y in zip(rows[a], rows[b])]
    elif kind == 2 and n > 1:  # the first pivot is zero: elimination swaps rows
        rows[0][0] = 0
    elif kind == 3:  # a zero column
        col = rng.randrange(n)
        for row in rows:
            row[col] = 0
    return rows


def test_sign_det_int_rows_match_fraction_rows():
    rng = random.Random(61)
    seen = set()
    for case in range(600):
        n = 1 + case % 7
        rows = _random_int_matrix(rng, n)
        before = [list(row) for row in rows]
        expected = sign_det(rows)
        assert rows == before  # int rows are copied, not eliminated in place
        assert sign_det([[Fraction(x) for x in row] for row in rows]) == expected
        mixed = [[rng.choice((bool, int, Fraction))(x) if x in (0, 1)
                  else rng.choice((int, Fraction))(x) for x in row] for row in rows]
        assert sign_det(mixed) == expected
        if n <= 5:
            det = _laplace_det(rows)
            assert expected == (det > 0) - (det < 0)
        seen.add(expected)
    assert seen == {-1, 0, 1}


@given(st.lists(rationals, min_size=1, max_size=6, unique=True))
def test_moment_curve_rows_independent(ts):
    # any <= d+1 distinct curve points are linearly independent
    k = len(ts)
    rows = [[t ** i for i in range(k)] for t in ts]
    assert sign_det(rows) != 0


def test_elementary_symmetric_values():
    assert elementary_symmetric([7, 8, 9], 0) == 1
    assert elementary_symmetric([1, 2, 3], 2) == 11
    assert elementary_symmetric([1, 2, 3], 3) == 6
    with pytest.raises(IndexError):
        elementary_symmetric([1, 2], 3)
    with pytest.raises(IndexError):
        elementary_symmetric([1, 2], -1)


@given(st.lists(rationals, min_size=0, max_size=6))
def test_elementary_symmetric_generating_function(vals):
    # prod(1 + v x) = sum sigma_i x^i: compare coefficient by coefficient
    coeffs = [Fraction(1)]
    for v in vals:
        coeffs = [
            (coeffs[i] if i < len(coeffs) else 0)
            + (v * coeffs[i - 1] if i > 0 else 0)
            for i in range(len(coeffs) + 1)
        ]
    for i in range(len(vals) + 1):
        assert elementary_symmetric(vals, i) == coeffs[i]


def test_is_power_examples():
    assert is_power_of_linear_form((1, 0, 0, 0, 0), 4)
    assert is_power_of_linear_form((1, -4, 6, -4, 1), 4)
    assert not is_power_of_linear_form((0, -1, 0, 0, 0), 4)


def test_is_power_errors():
    with pytest.raises(InvalidChartError):
        is_power_of_linear_form((0, 0, 0), 2)
    with pytest.raises(DimensionMismatchError):
        is_power_of_linear_form((1, 0, 0), 3)


@given(
    st.integers(2, 6),
    rationals,
    rationals.filter(lambda c: c != 0),
)
def test_is_power_scaling_invariance(d, a, c):
    from math import comb

    xi = tuple(comb(d, j) * a ** j for j in range(d + 1))
    scaled = tuple(c * x for x in xi)
    assert is_power_of_linear_form(xi, d)
    assert is_power_of_linear_form(scaled, d)


def _random_form(rng, d):
    """Coefficients of a power of a linear form, perhaps with one entry
    changed, or random ones, as ints, Fractions or strings."""
    def value():
        den = rng.choice([1, 3, 10 ** 12])
        return Fraction(rng.randint(-5 * den, 5 * den), den) if rng.random() < 0.8 else Fraction(0)

    if rng.random() < 0.5:
        a, b, scale = value(), value(), value()
        xi = [scale * comb(d, j) * a ** j * b ** (d - j) for j in range(d + 1)]
        if rng.random() < 0.3:
            xi[rng.randrange(d + 1)] += value()
    else:
        xi = [value() for _ in range(d + 1)]
    if rng.random() < 0.1:
        xi = xi[:-1] if rng.random() < 0.5 else xi + [value()]
    form = rng.choice([Fraction, str, lambda x: int(x) if x.denominator == 1 else x])
    return [form(x) for x in xi]


def test_is_power_matches_literal_oracle():
    rng = random.Random(913)
    answers = set()
    for _ in range(4000):
        d = rng.randint(0, 12)
        xi = _random_form(rng, d)
        got = outcome(is_power_of_linear_form, xi, d)
        assert got == outcome(is_power_of_linear_form_literal, xi, d), (xi, d)
        answers.add(got[2] if got[0] == "returned" else got[1])
    # both answers and both input errors occurred
    assert answers == {True, False, InvalidChartError, DimensionMismatchError}


def test_is_power_matches_literal_oracle_on_small_values():
    # every chart over {0, +-1, 1/2, 2} with d <= 5: zero coefficients in
    # every place, ratios that agree for a while and then do not
    values = (0, 1, -1, Fraction(1, 2), Fraction(-1, 2), 2)
    cases = answers = 0
    for d in range(6):
        for xi in product(values, repeat=d + 1):
            got = outcome(is_power_of_linear_form, xi, d)
            assert got == outcome(is_power_of_linear_form_literal, xi, d), (xi, d)
            cases += 1
            answers += got == ("returned", bool, True)
    assert cases == 55986 and 0 < answers < cases
