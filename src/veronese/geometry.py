"""Chart curves, the two geometric facet tests, and the correspondence
between charts and signed decompositions of the parameter set.

A chart xi defines the denominator polynomial q(t) = sum xi_i t^i and
the curve t -> (1,t,...,t^d)/q(t).  The polytope generated by the curve
points over a finite parameter set T is simplicial, and its facets can
be read off the signs of either the rational functions lambda_S or the
determinants of curve-point matrices; both tests live here and share no
code beyond rational arithmetic.  ``cross_check`` runs them beside the
two line characterizations of ``facets``.

``q_eval`` works in integers.  With L the lcm of the chart's
denominators, C_i = L xi_i (kept on the chart) and t = a/b, b > 0, it
computes Q = sum_i C_i a^i b^(d-i) by homogeneous Horner and returns
Fraction(Q, L b^d).  That is q(t), since L b^d q(t) = Q, made with one
normalization instead of the 2d of Horner's rule in Fractions; and as
L b^d > 0, Q has the sign of q(t).  ``chart_from_decomposition``
likewise expands prod (v t - u) over the gap midpoints u/v in integers
and divides by prod v once.

Both facet tests name a subset of T's indices by one int bit mask,
bit i for the i-th parameter.

The lambda test evaluates its instance once per call: it takes sign q(t)
once per parameter t of T, as the mask P of the t with q(t) > 0.  For t
outside S the definition lambda_S(t) = prod_{s in S}(t - s) / q(t) gives

    sign lambda_S(t) = sign q(t) * (-1)^#{s in S : s > t},

so with F the XOR over s in S of the mask of the parameters below s
(the first bisect_left(T, s) of them; i of them for the i-th
parameter), bit t of F is the parity of #{s in S : s > t}, and
lambda_S(t) > 0 iff bit t of P ^ F is 1.  With E the mask of the members
of S and ~E = T minus S, S is a facet iff ~E is not empty and
(P ^ F) & ~E is 0 (lambda_S < 0 on all of it) or ~E (lambda_S > 0): a
few int operations per value of S, and none per parameter.  The
determinant test builds each curve point once per instance as an
integer row: for t = a/b it takes sign(Q) * (b^d, a b^(d-1), ..., a^d)
with Q = b^d L q(t) and L the lcm of the chart's denominators.  That
row is |Q|/L times (1,t,...,t^d)/q(t), a positive multiple, so no
determinant changes sign.  For S inside T, with mask E, each
determinant is a chirotope value up to a row swap: moving the row of t
from last place to its place in sorted order passes the rows of the
s > t, (E >> t).bit_count() of them, so

    sign det(rows(sorted S); row(t)) = (-1)^#{s in S : s > t} * chi(E | 1 << t)

with chi(U) = sign det(rows(U)) for a mask U of d+1 indices, its rows
in index order.  The rows and chi are memoized per instance (a small
LRU cache keyed by the chart and the ground set), and chi is filled by
Bareiss elimination shared between subsets.  By Sylvester's identity
(Bareiss 1968), after the elimination steps that pivot on the rows of
an index set P in increasing order, the entries of a later row j are
the (|P|+1)-minors of the rows of P and j, so they depend on P and j
alone.  The memo keeps that reduced row, R(P | 1 << j), once per pair,
under its mask (j is the top bit), made lazily: it is one step
(``exact.bareiss_step``) of R(K) against the pivot row R(P), with K the
mask P | 1 << j less P's top bit, divided exactly by the previous
pivot, which R(P) keeps in a column the elimination has passed.
chi(U) is the sign of the one entry left in R(U), kept in the same
dict under U.  Python hashes an int modulo 2^61 - 1, so 2^i and
2^(i+61) hash alike, and past 61 parameters masks that agree bit for
bit modulo 61 would share a hash: a scan at d = 1 would pile up about
n^2/3800 keys per hash.  There the memo keys a mask by its at most d+1
member indices packed into one int, n.bit_length() bits apiece and each
plus one so that no field is 0: a key of O(d log n) bits, not n bits.
A pivot is a leading minor of the rows, a homogeneous
Vandermonde determinant up to sign, so it is nonzero for distinct
parameters; if one is 0 all the same, chi(U) falls back to
``sign_det`` on U's rows.  A full scan of the d-subsets thus makes at
most sum_{k=2..d+1} C(n, k) row steps of at most d entries each and no
full elimination, where one ``sign_det`` per (d+1)-subset took about
d^3/3 entry updates.  A single cold call only makes the rows its n - d
subsets U need, at most d(d+1)/2 steps per U.  The two tests stay
independent: the determinant test computes q through its own integer
rows, never through ``q_eval`` or the sign table, and decides each
subset by determinants, with no closed form; the lambda test takes no
determinant.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations, groupby
from math import lcm

from .errors import (
    CrossCheckError,
    DimensionMismatchError,
    InvalidChartError,
    InvalidDecompositionError,
    InvalidInstanceError,
    PointAtInfinityError,
    UnderdeterminedInstanceError,
)
from .exact import bareiss_step, sign, sign_det
from .facets import (
    FacetComplex,
    LineTables,
    Value,
    build_line_tables,
    enumerate_facets_line,
    s123_decompose,
)


class GroundSet(Value):
    """Strictly increasing finite parameter set T."""

    fields = ("params",)

    def __init__(self, params: tuple):
        ts = tuple(t if type(t) is Fraction else Fraction(t) for t in params)
        if any(a >= b for a, b in zip(ts, ts[1:])):
            raise InvalidInstanceError("parameters must be strictly increasing")
        object.__setattr__(self, "params", ts)

    @property
    def n(self) -> int:
        return len(self.params)


class Chart(Value):
    """Coefficient vector xi of the denominator polynomial, length d+1."""

    fields = ("coords",)

    def __init__(self, coords: tuple):
        cs = tuple(x if type(x) is Fraction else Fraction(x) for x in coords)
        if not cs or all(x == 0 for x in cs):
            raise InvalidChartError("chart must be nonzero")
        object.__setattr__(self, "coords", cs)

    @cached_property
    def integer_form(self) -> tuple:
        """(L, (C_0, ..., C_d)): L the lcm of the denominators and
        C_i = L xi_i, the integer coefficients of L q."""
        scale = lcm(*(c.denominator for c in self.coords))
        return scale, tuple(c.numerator * (scale // c.denominator) for c in self.coords)

    @property
    def d(self) -> int:
        return len(self.coords) - 1


class SignedDecomposition(Value):
    """Maximal constant-sign intervals of q over T: sizes and the sign
    of the first interval.  Signs alternate, so one sign determines all."""

    fields = ("sizes", "first_sign", "d")

    def __init__(self, sizes: tuple, first_sign: int, d: int):
        sizes = tuple(int(s) for s in sizes)
        if not sizes or any(s < 1 for s in sizes):
            raise InvalidDecompositionError(f"interval sizes must be positive: {sizes}")
        if first_sign not in (1, -1):
            raise InvalidDecompositionError(f"first_sign must be +-1: {first_sign}")
        if len(sizes) - 1 > d:
            raise InvalidDecompositionError(
                f"{len(sizes) - 1} sign changes exceed dimension {d}"
            )
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "first_sign", first_sign)
        object.__setattr__(self, "d", d)

    @cached_property
    def line_tables(self) -> LineTables:
        """The tables of the two line tests, built once (see ``facets``)."""
        return build_line_tables(self.sizes)

    @property
    def k(self) -> int:
        """Number of sign changes."""
        return len(self.sizes) - 1

    @property
    def n(self) -> int:
        return sum(self.sizes)


def q_eval(xi: Chart, t) -> Fraction:
    """q(t) from Q(a, b) = sum_i C_i a^i b^(d-i) at t = a/b (see the
    module docstring): acc = C_d, then acc = acc a + C_i b^(d-i)."""
    t = t if type(t) is Fraction else Fraction(t)
    a, b = t.numerator, t.denominator
    scale, coeffs = xi.integer_form
    acc = coeffs[-1]
    power = 1  # b^(d-i)
    for c in coeffs[-2::-1]:
        power *= b
        acc = acc * a + c * power
    return Fraction(acc, scale * power)


def curve_point(xi: Chart, t) -> tuple:
    """The generating point (1,t,...,t^d)/q(t)."""
    t = Fraction(t)
    q = q_eval(xi, t)
    if q == 0:
        raise PointAtInfinityError(f"denominator vanishes at t={t}")
    return tuple(t ** i / q for i in range(xi.d + 1))


def _q_signs(xi: Chart, t_set: GroundSet) -> list:
    """sign q(t) at each parameter of T, which q must not vanish on."""
    signs = []
    for t in t_set.params:
        s = sign(q_eval(xi, t))
        if s == 0:
            raise InvalidInstanceError(f"chart vanishes at parameter t={t}")
        signs.append(s)
    return signs


def _lambda_masks(params, s_values) -> tuple:
    """(E, F) of S on T (see the module docstring): E the mask of the
    parameters in S, F the XOR over S of the masks of the parameters
    below each value of S."""
    members = flips = 0
    for v in s_values:
        i = bisect_left(params, v)
        if i < len(params) and params[i] == v:
            members |= 1 << i
        flips ^= (1 << i) - 1
    return members, flips


def _one_lambda_sign(positive: int, rest: int, flips: int) -> bool:
    """Whether lambda_S has one sign on T minus S, given the mask of the
    t with q(t) > 0, the mask of T minus S and F (module docstring)."""
    return rest != 0 and (positive ^ flips) & rest in (0, rest)


def _positive_mask(xi: Chart, t_set: GroundSet) -> int:
    """P: the mask of the parameters of T where q > 0."""
    return sum(1 << i for i, s in enumerate(_q_signs(xi, t_set)) if s > 0)


def facet_test_lambda(xi: Chart, t_set: GroundSet, s_values) -> bool:
    """Facet iff lambda_S has one constant nonzero sign on T minus S."""
    s = set(Fraction(v) for v in s_values)
    if len(s) != xi.d:
        raise DimensionMismatchError(f"expected a {xi.d}-subset, got {len(s)} values")
    positive = _positive_mask(xi, t_set)
    members, flips = _lambda_masks(t_set.params, s)
    return _one_lambda_sign(positive, ((1 << t_set.n) - 1) ^ members, flips)


def _curve_rows(xi: Chart, t_set: GroundSet) -> list:
    """T's curve points in parameter order, each as the integer row
    sign(Q) * (b^d, a b^(d-1), ..., a^d) of t = a/b, Q = b^d L q(t): a
    positive multiple of (1,t,...,t^d)/q(t) (see the module docstring)."""
    d = xi.d
    scale = lcm(*(c.denominator for c in xi.coords))
    coeffs = [c.numerator * (scale // c.denominator) for c in xi.coords]
    rows = []
    for t in t_set.params:
        a, b = t.numerator, t.denominator
        row = [a ** i * b ** (d - i) for i in range(d + 1)]
        q = sum(c * x for c, x in zip(coeffs, row))
        if q == 0:
            raise InvalidInstanceError(f"chart vanishes at parameter t={t}")
        rows.append(row if q > 0 else [-x for x in row])
    return rows


@lru_cache(maxsize=8)
def _determinant_memo(xi: Chart, t_set: GroundSet) -> tuple:
    """((numerator, denominator) of a parameter -> its bit, T's curve rows,
    the elimination memo) of the instance.  The memo maps the bit mask
    K of at most d indices to the reduced row R(K) (None if a pivot on
    the way is 0), and a mask U of d+1 indices to chi(U) =
    sign det(rows(U)); past 61 parameters a mask is keyed by its packed
    member indices (see the module docstring).  _reduced fills it.  Raises
    InvalidInstanceError, which lru_cache does not keep, if the chart
    vanishes on T."""
    rows = _curve_rows(xi, t_set)
    return {t.as_integer_ratio(): 1 << i for i, t in enumerate(t_set.params)}, rows, {}


def _reduced(memo: dict, rows, key: int):
    """The memo's entry for key, made once and kept under key (under its
    packed indices past 61 parameters): chi(key) if key has d+1 indices, else
    R(key).  R(key) is row top = max(key) after one Bareiss step against
    the pivot row R(key - {top}), both rows made by the step that pivots
    on R(key - {top, below}), below the next index down; it is None if
    one of those pivots is 0.  The step divides by the pivot of that
    earlier step, which R(key - {top}) keeps in its column k - 1: a row
    made at step k keeps the step's pivot in its column k, which the
    elimination does not read again.  chi is the sign of the one entry
    left in R(key), or sign_det of the rows of key if a pivot is 0."""
    n = len(rows)
    slot = key
    if n > 61:
        slot, width, members = 0, n.bit_length(), key
        while members:
            top = members.bit_length() - 1
            slot = slot << width | top + 1
            members ^= 1 << top
    entry = memo.get(slot)
    if entry is not None:
        return entry
    top = key.bit_length() - 1
    rest = key ^ 1 << top
    if not rest:
        row = rows[top]
    else:
        below = 1 << (rest.bit_length() - 1)
        k = rest.bit_count() - 1
        pivot_row = _reduced(memo, rows, rest)
        row = _reduced(memo, rows, key ^ below)
        if pivot_row is None or row is None or pivot_row[k] == 0:
            row = None
        else:
            row = list(row)
            bareiss_step((row,), pivot_row, k, pivot_row[k - 1] if k else 1)
            row[k] = pivot_row[k]
    if key.bit_count() < len(rows[0]):
        memo[slot] = row
        return row
    c = memo[slot] = sign(row[-1]) if row is not None else sign_det(
        [r for i, r in enumerate(rows) if key >> i & 1])
    return c


def facet_test_determinant(xi: Chart, t_set: GroundSet, s_values) -> bool:
    """Independent oracle: the hyperplane through the curve points of S
    keeps all remaining generating points strictly on one side."""
    # each value of S is hashed once, as its (numerator, denominator),
    # which hashes in C; a Fraction's own hash takes a modular inverse
    s = {(v if type(v) is Fraction else Fraction(v)).as_integer_ratio() for v in s_values}
    if len(s) != xi.d:
        raise DimensionMismatchError(f"expected a {xi.d}-subset, got {len(s)} values")
    bit, rows, memo = _determinant_memo(xi, t_set)
    picked = [bit.get(v) for v in s]
    if None in picked:
        # S leaves T: S's rows leave the table, so the rows left are T minus S
        left = dict(zip(t_set.params, rows))
        base = [left.pop(v) if v in left else list(curve_point(xi, v))
                for v in sorted(Fraction(*key) for key in s)]
        signs = {sign_det(base + [row]) for row in left.values()}
        return len(signs) == 1 and 0 not in signs
    mask = sum(picked)
    first = 0
    for j in range(len(rows)):
        if mask >> j & 1:
            continue
        c = _reduced(memo, rows, mask | 1 << j)
        # row j moves past the rows of S above it, (mask >> j).bit_count() of them
        if (mask >> j).bit_count() & 1:
            c = -c
        if not c or first and c != first:
            return False
        first = c
    return first != 0


def enumerate_facets_geometric(xi: Chart, t_set: GroundSet) -> FacetComplex:
    d = xi.d
    if t_set.n <= d:
        raise UnderdeterminedInstanceError(
            f"need more than d={d} generating points, got {t_set.n}"
        )
    positive = _positive_mask(xi, t_set)
    full = (1 << t_set.n) - 1
    facets = []
    for idxs in combinations(range(t_set.n), d):
        members = flips = 0
        for i in idxs:
            members |= 1 << i
            flips ^= (1 << i) - 1
        if _one_lambda_sign(positive, full ^ members, flips):
            facets.append(idxs)
    return FacetComplex(t_set.n, d, tuple(facets))


def decompose_chart(xi: Chart, t_set: GroundSet) -> SignedDecomposition:
    """Group parameters into maximal runs of constant sign of q."""
    signs = _q_signs(xi, t_set)
    sizes = tuple(len(list(g)) for _, g in groupby(signs))
    if len(sizes) - 1 > xi.d:
        raise CrossCheckError(
            f"q changes sign {len(sizes) - 1} times but has degree {xi.d}"
        )
    return SignedDecomposition(sizes, signs[0], xi.d)


def cross_check(xi: Chart, t_set: GroundSet) -> dict:
    """Compute the facet set four independent ways: the lambda test, the
    determinant test, sigma-PA complements and the S1/S2/S3 split.
    Returns the four facet tuples; raises CrossCheckError if they differ."""
    by_lambda = enumerate_facets_geometric(xi, t_set).facets
    by_det = tuple(
        idxs for idxs in combinations(range(t_set.n), xi.d)
        if facet_test_determinant(xi, t_set, [t_set.params[i] for i in idxs])
    )
    dec = decompose_chart(xi, t_set)
    by_pa = enumerate_facets_line(dec).facets
    by_s123 = tuple(
        idxs for idxs in combinations(range(t_set.n), xi.d)
        if s123_decompose(dec, [i + 1 for i in idxs]) is not None
    )
    report = {
        "lambda": by_lambda,
        "determinant": by_det,
        "sigma_pa": by_pa,
        "s123": by_s123,
    }
    if not by_lambda == by_det == by_pa == by_s123:
        raise CrossCheckError(json.dumps(report))
    return report


def chart_from_decomposition(dec: SignedDecomposition, t_set: GroundSet) -> Chart:
    """A chart realizing the decomposition: q has one root at each gap
    midpoint between consecutive intervals, scaled by a global sign."""
    if dec.n != t_set.n:
        raise InvalidDecompositionError(
            f"decomposition covers {dec.n} points, ground set has {t_set.n}"
        )
    # q(t) = prod(t - u/v) = prod(v t - u) / prod v over the midpoints
    # u/v, expanded in integers one root at a time: with
    # p(t) = sum p_i t^i, (v t - u) p(t) has coefficients v p_{i-1} - u p_i
    ints = [1] + [0] * dec.d
    den = 1
    pos = 0
    for k, size in enumerate(dec.sizes[:-1], 1):
        pos += size
        mid = (t_set.params[pos - 1] + t_set.params[pos]) / 2
        u, v = mid.numerator, mid.denominator
        for i in range(k, 0, -1):
            ints[i] = v * ints[i - 1] - u * ints[i]
        ints[0] = -u * ints[0]
        den *= v
    coeffs = [Fraction(p, den) for p in ints]
    xi = Chart(tuple(coeffs))
    if sign(q_eval(xi, t_set.params[0])) != dec.first_sign:
        xi = Chart(tuple(-c for c in coeffs))
    return xi


def vertices_geometric(xi: Chart, t_set: GroundSet) -> tuple:
    """0-based indices of parameters whose generating point is a vertex:
    exactly those contained in some facet."""
    fc = enumerate_facets_geometric(xi, t_set)
    return fc.vertex_labels
