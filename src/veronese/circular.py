"""Circular compositions: the cyclic carrier of a combinatorial type.

A composition is a cyclic arrangement of n points into arcs; the gaps
between consecutive arcs are the dividers.  Their number l has the
parity of d, so d and the arcs fix it: one divider per arc for two or
more arcs, and l = d mod 2 for a single arc, whose one divider (odd d)
sits between its last point and its first.  Facets pick one point per
divider plus disjoint consecutive pairs.

By the paper's bijection a composition has the facets of any line
decomposition that induces it.  ``enumerate_facets_circular`` takes the
one with the arcs as intervals: its k = len(arcs) - 1 sign changes make
d - k odd for two or more arcs, and k = 0 for one, so
``induce_composition`` returns the arcs unchanged and the labels need
no remapping.  The facets are then the complements of the sigma-PA
sequences, listed by ``facets.enumerate_facets_line``.

``facet_count`` counts the divider picks and pairs directly.  Number
the arcs 0..l-1; divider j, between arc j and arc j+1 (cyclically),
picks the last point of arc j (state 0) or the first point of arc j+1
(state 1).  An arc of m points between dividers in states (a, b) loses
p = [a = 1] + [b = 0] end points to them (p > m would pick a point
twice), and k disjoint consecutive pairs fit on the other m - p points
in C(m - p - k, k) ways.  Every facet is such a configuration and the
paper counts as many facets as configurations, so the sum over the
states is the facet count.  With F(x) = sum_k C(x - k, k) t^k, the arc's
series in t, the number of pairs, is F(m - p): F(m - 1) for equal
states, F(m) for a rise and F(m - 2) for a fall.  The count is the
coefficient of t^r, r = (d - l)/2, in the trace of the product of the
arcs' 2x2 matrices, a transfer matrix around the circle.

The series are truncated at t^r and packed into one int each
(Kronecker substitution): coefficient k sits in the W bits from k W
on, W = n + l + 2, so a series product is one int product.  No slot
overflows.  Slot k of a partial product counts configurations of the
arcs so far: a sequence of divider states (at most 2^l) and a set of
pair starts (at most 2^n), so it is below 2^(n+l) and the sum of two
such slots is below 2^W.  Carries in an int product only move upward,
so slots 0..r are exact, and a mask of the low (r+1) W bits drops the
rest.  Work is O(l) multiplications of (r+1)(n+l+2)-bit ints.

Labels run 0..n-1 around the circle, starting with arc 0.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import comb

from .errors import InvalidDecompositionError, UnderdeterminedInstanceError
from .facets import FacetComplex, Value, enumerate_facets_line
from .geometry import GroundSet, SignedDecomposition, chart_from_decomposition


class CircularComposition(Value):
    fields = ("d", "arcs", "dividers")

    def __init__(self, d: int, arcs: tuple, dividers: int | None = None):
        # dividers None: derive from d and the arcs
        arcs = tuple(int(m) for m in arcs)
        if not arcs or any(m < 1 for m in arcs):
            raise InvalidDecompositionError(f"arc sizes must be positive: {arcs}")
        if d < 1:
            raise InvalidDecompositionError(f"dimension must be at least 1, got {d}")
        l = len(arcs) if len(arcs) > 1 else d % 2
        if dividers not in (None, l):
            raise InvalidDecompositionError(
                f"dimension {d} and {len(arcs)} arc(s) fix {l} divider(s), "
                f"got {dividers}"
            )
        if l % 2 != d % 2:
            raise InvalidDecompositionError(
                f"{l} dividers and dimension {d} differ in parity"
            )
        if l > d:
            raise InvalidDecompositionError(f"{l} dividers exceed dimension {d}")
        if sum(arcs) <= d:
            raise UnderdeterminedInstanceError(
                f"need more than d={d} points, got {sum(arcs)}"
            )
        self._assign(d, arcs, l)

    @property
    def n(self) -> int:
        return sum(self.arcs)

    @property
    def l(self) -> int:
        return self.dividers


def induce_composition(dec: SignedDecomposition) -> CircularComposition:
    """Bend a signed line decomposition into a circle.

    If the sign-change count k and d differ in parity, each interval
    becomes an arc, and so does the one interval of k = 0.  Otherwise
    the last and first intervals merge into a single arc wrapping around
    the base point.
    """
    sizes, d, k = dec.sizes, dec.d, dec.k
    if (d - k) % 2 == 1 or k == 0:
        return CircularComposition(d, sizes)
    arcs = sizes[1:-1] + (sizes[-1] + sizes[0],)
    return CircularComposition(d, arcs)


def line_to_circle_map(dec: SignedDecomposition) -> tuple:
    """The relabeling taking 0-based line positions to circle labels of
    the induced composition; facets transfer along it verbatim."""
    n, k, d = dec.n, dec.k, dec.d
    if (d - k) % 2 == 1 or k == 0:
        return tuple(range(n))
    shift = dec.sizes[0]
    return tuple((p - shift) % n for p in range(n))


def dihedral_min(arcs: tuple) -> tuple:
    """The lexicographically least rotation or reflection of a cyclic
    sequence: the lesser of the least rotations of it and of its
    reverse, each found in linear time.

    Two candidate starts i < j are kept, whose rotations agree on their
    first k terms.  If they differ at term k and rotation i is the
    greater, then rotation i + p is greater than rotation j + p for
    every p <= k, so no start i..i+k is needed and i moves past them (j
    likewise).  The search ends with i least, when j passes the last
    start or when the two agree on all n terms: then the sequence has
    period j - i, and every start from j on repeats an earlier one.
    Each step raises i + j + k, which stays below 3n."""
    rotations = []
    for seq in (arcs, arcs[::-1]):
        s, n = seq + seq, len(seq)
        i, j, k = 0, 1, 0
        while j < n and k < n:
            a, b = s[i + k], s[j + k]
            if a == b:
                k += 1
                continue
            if a > b:
                i += k + 1
            else:
                j += k + 1
            if i == j:
                j += 1
            elif i > j:
                i, j = j, i
            k = 0
        rotations.append(s[i:i + n])
    return min(rotations)


def enumerate_facets_circular(c: CircularComposition) -> FacetComplex:
    """The facets of c, listed on the line decomposition with c's arcs
    as intervals, whose labels are c's (see the module docstring)."""
    return enumerate_facets_line(SignedDecomposition(c.arcs, 1, c.d))


def vertex_set(c: CircularComposition) -> tuple:
    """All labels when l < d; only divider endpoints (the first and
    last point of each arc) when l = d."""
    if c.l < c.d:
        return tuple(range(c.n))
    ends = accumulate(c.arcs)
    return tuple(sorted({x for e, m in zip(ends, c.arcs) for x in (e - m, e - 1)}))


def facet_count(c: CircularComposition) -> int:
    """Closed formula for the number of facets: the coefficient of t^r
    in the trace of the arcs' transfer matrices [[F(m-1), F(m)],
    [F(m-2), F(m-1)]], on packed ints (see the module docstring), or the
    cyclic polytope's count when l = 0.  Each arc costs 8 int products."""
    n, d, l = c.n, c.d, c.l
    if l == 0:
        h = d // 2
        return comb(n - h, h) + comb(n - 1 - h, h - 1)
    r, w = (d - l) // 2, n + l + 2
    mask = (1 << (r + 1) * w) - 1
    packed = {x: sum(comb(x - k, k) << k * w for k in range(min(r, x // 2) + 1))
              for x in {m - p for m in set(c.arcs) for p in (0, 1, 2)}}
    w00, w01, w10, w11 = 1, 0, 0, 1
    for m in c.arcs:
        same, rise, fall = packed[m - 1], packed[m], packed[m - 2]
        w00, w01 = (w00 * same + w01 * fall) & mask, (w00 * rise + w01 * same) & mask
        w10, w11 = (w10 * same + w11 * fall) & mask, (w10 * rise + w11 * same) & mask
    return (w00 + w11) >> r * w


def realize(c: CircularComposition):
    """A concrete instance on T = {1,...,n} whose induced composition
    is c up to rotation and reflection."""
    n = c.n
    t_set = GroundSet(tuple(Fraction(i) for i in range(1, n + 1)))
    dec = SignedDecomposition(c.arcs, 1, c.d)
    return t_set, chart_from_decomposition(dec, t_set)
