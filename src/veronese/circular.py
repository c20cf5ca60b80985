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
states is the facet count.

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

    def __init__(self, d: int, arcs: tuple, dividers: int = -1):
        # dividers -1: derive from d and the arcs
        arcs = tuple(int(m) for m in arcs)
        if not arcs or any(m < 1 for m in arcs):
            raise InvalidDecompositionError(f"arc sizes must be positive: {arcs}")
        if d < 1:
            raise InvalidDecompositionError(f"dimension must be at least 1, got {d}")
        l = len(arcs) if len(arcs) > 1 else d % 2
        if dividers not in (-1, l):
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
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "arcs", arcs)
        object.__setattr__(self, "dividers", l)

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
    sequence."""
    return min(seq[i:] + seq[:i] for seq in (arcs, arcs[::-1]) for i in range(len(seq)))


def canonical_arcs(c: CircularComposition) -> CircularComposition:
    """The composition with the lexicographically minimal arc sequence
    over rotations and reflections."""
    return CircularComposition(c.d, dihedral_min(c.arcs))


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


def _binom(n, k):
    if n < 0 or k < 0 or k > n:
        return 0
    return comb(n, k)


def _series_mul(a, b):
    """Product of two power series truncated at the length of a."""
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(len(a))]


def facet_count(c: CircularComposition) -> int:
    """Closed formula for the number of facets, by a transfer matrix
    around the circle of divider states (see the module docstring).

    With M_j[a][b] = sum_k C(m_j - p - k, k) x^k for states a, b of the
    two dividers of arc j, the count is the coefficient of x^r,
    r = (d - l)/2, in trace(M_0 ... M_{l-1}).  The two constant state
    sequences are the all-last and all-first divider picks; every other
    one takes no point from the arcs where the state rises and two where
    it falls, which interlace: the sum over the interlacing subsets A, B
    of arc indices, factored.  Work is O(l r^2).
    """
    n, d, l = c.n, c.d, c.l
    if l == 0:
        h = d // 2
        return _binom(n - h, h) + _binom(n - 1 - h, h - 1)
    r = (d - l) // 2
    walk = [[[1] + [0] * r if a == b else [0] * (r + 1) for b in (0, 1)]
            for a in (0, 1)]
    for m in c.arcs:
        arc = [[[_binom(m - (a + 1 - b) - k, k) for k in range(r + 1)]
                for b in (0, 1)] for a in (0, 1)]
        walk = [[[x + y for x, y in zip(_series_mul(walk[a][0], arc[0][b]),
                                         _series_mul(walk[a][1], arc[1][b]))]
                 for b in (0, 1)] for a in (0, 1)]
    return walk[0][0][r] + walk[1][1][r]


def realize(c: CircularComposition):
    """A concrete instance on T = {1,...,n} whose induced composition
    is c up to rotation and reflection."""
    n = c.n
    t_set = GroundSet(tuple(Fraction(i) for i in range(1, n + 1)))
    dec = SignedDecomposition(c.arcs, 1, c.d)
    return t_set, chart_from_decomposition(dec, t_set)
