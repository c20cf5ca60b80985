"""Circular compositions: the cyclic carrier of a combinatorial type.

A composition is a cyclic arrangement of n points into l arcs; the l
gaps between consecutive arcs are the dividers.  Facets pick one point
per divider plus disjoint consecutive pairs, which makes both facet
enumeration and the closed facet-count formula purely combinatorial.

Labels run 0..n-1 around the circle, arc 1 first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from math import comb

from .errors import (
    DimensionMismatchError,
    InvalidDecompositionError,
    UnderdeterminedInstanceError,
)
from .facets import FacetComplex
from .geometry import Chart, GroundSet, SignedDecomposition, chart_from_decomposition


@dataclass(frozen=True)
class CircularComposition:
    d: int
    arcs: tuple
    dividers: int = field(default=-1)  # -1: default to len(arcs)

    def __post_init__(self):
        arcs = tuple(int(m) for m in self.arcs)
        if not arcs or any(m < 1 for m in arcs):
            raise InvalidDecompositionError(f"arc sizes must be positive: {arcs}")
        l = len(arcs) if self.dividers == -1 else self.dividers
        if l not in (0, len(arcs)):
            raise InvalidDecompositionError(
                f"dividers must be 0 or {len(arcs)}, got {l}"
            )
        if l == 0 and len(arcs) != 1:
            raise InvalidDecompositionError("dividerless composition needs a single arc")
        if l % 2 != self.d % 2:
            raise InvalidDecompositionError(
                f"{l} dividers and dimension {self.d} differ in parity"
            )
        if l > self.d:
            raise InvalidDecompositionError(f"{l} dividers exceed dimension {self.d}")
        if sum(arcs) <= self.d:
            raise UnderdeterminedInstanceError(
                f"need more than d={self.d} points, got {sum(arcs)}"
            )
        object.__setattr__(self, "arcs", arcs)
        object.__setattr__(self, "dividers", l)

    @property
    def n(self) -> int:
        return sum(self.arcs)

    @property
    def l(self) -> int:
        return self.dividers

    def arc_bounds(self):
        """(first_label, last_label) of each arc, in arc order."""
        ends = list(accumulate(self.arcs))
        return [(e - m, e - 1) for e, m in zip(ends, self.arcs)]

    def divider_pairs(self):
        """Label pairs {last of arc j, first of arc j+1}, cyclically."""
        if self.l == 0:
            return []
        bounds = self.arc_bounds()
        return [
            (bounds[j][1], bounds[(j + 1) % self.l][0])
            for j in range(self.l)
        ]


def induce_composition(dec: SignedDecomposition) -> CircularComposition:
    """Bend a signed line decomposition into a circle.

    If the sign-change count k and d differ in parity, each interval
    becomes an arc.  Otherwise the last and first intervals merge into
    a single arc wrapping around the base point (dividerless when k=0).
    """
    sizes, d, k = dec.sizes, dec.d, dec.k
    if (d - k) % 2 == 1:
        return CircularComposition(d, sizes)
    if k == 0:
        return CircularComposition(d, (dec.n,), dividers=0)
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


def canonical_arcs(c: CircularComposition) -> CircularComposition:
    """Lexicographically minimal arc sequence over rotations and
    reflections; the dividerless case is already canonical."""
    if c.l <= 1:
        return c
    arcs = list(c.arcs)
    images = []
    for seq in (arcs, arcs[::-1]):
        for i in range(len(seq)):
            images.append(tuple(seq[i:] + seq[:i]))
    return CircularComposition(c.d, min(images))


def _pair_choices(n, count, blocked, start, chosen, out):
    """Disjoint consecutive pairs (i, i+1 mod n) avoiding blocked labels.

    The pairs start at increasing labels at least two apart, so the
    first of count pairs starts below n - 2(count - 1): a start past that
    leaves no room for the rest and is not tried."""
    if count == 0:
        out.append(tuple(chosen))
        return
    for i in range(start, n - 2 * (count - 1)):
        j = (i + 1) % n
        if i in blocked or j in blocked:
            continue
        blocked.add(i)
        blocked.add(j)
        chosen.append((i, j))
        _pair_choices(n, count - 1, blocked, i + 1, chosen, out)
        chosen.pop()
        blocked.discard(i)
        blocked.discard(j)


def enumerate_facets_circular(c: CircularComposition) -> FacetComplex:
    """All d-subsets picking one point per divider (all distinct) plus
    (d-l)/2 pairwise disjoint consecutive pairs."""
    n, d, l = c.n, c.d, c.l
    if n <= d:
        raise UnderdeterminedInstanceError(
            f"need more than d={d} points, got {n}"
        )
    r = (d - l) // 2
    dividers = c.divider_pairs()
    facets = set()

    def choose_divider(j, picked):
        if j == len(dividers):
            out = []
            _pair_choices(n, r, set(picked), 0, [], out)
            for pairs in out:
                facet = frozenset(picked).union(*map(frozenset, pairs)) \
                    if pairs else frozenset(picked)
                facets.add(facet)
            return
        for p in dividers[j]:
            if p not in picked:
                picked.append(p)
                choose_divider(j + 1, picked)
                picked.pop()

    choose_divider(0, [])
    return FacetComplex(n, d, tuple(tuple(sorted(f)) for f in facets))


def vertex_set(c: CircularComposition) -> tuple:
    """All labels when l < d; only divider endpoints when l = d."""
    if c.l < c.d:
        return tuple(range(c.n))
    labels = set()
    for a, b in c.divider_pairs():
        labels.add(a)
        labels.add(b)
    return tuple(sorted(labels))


def _binom(n, k):
    if n < 0 or k < 0 or k > n:
        return 0
    return comb(n, k)


def _compositions_nonneg(total, parts):
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _compositions_nonneg(total - first, parts - 1):
            yield (first,) + rest


def _series_mul(a, b):
    """Product of two power series truncated at the length of a."""
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(len(a))]


def facet_count(c: CircularComposition) -> int:
    """Closed formula for the number of facets, by a transfer matrix
    around the circle.

    Each divider picks the last point of the arc before it (state 0) or
    the first point of the arc after it (state 1).  Arc j, between
    dividers j-1 and j, then loses p = [state_{j-1} = 1] + [state_j = 0]
    of its m_j points to divider picks, and k disjoint consecutive pairs
    fit into the rest in C(m_j - p - k, k) ways.  With
    M_j[a][b] = sum_k C(m_j - p - k, k) x^k for states a, b of its two
    dividers, the count is the coefficient of x^r, r = (d - l)/2, in
    trace(M_1 ... M_l).  The two constant state sequences are the
    all-last and all-first divider picks; every other one takes no
    point from the arcs where the state rises and two where it falls,
    which interlace: the sum over the interlacing subsets A, B of arc
    indices, factored.  Work is O(l r^2).
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
    sizes = (n,) if c.l == 0 else c.arcs
    dec = SignedDecomposition(sizes, 1, c.d)
    return t_set, chart_from_decomposition(dec, t_set)
