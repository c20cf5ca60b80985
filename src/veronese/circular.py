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
from itertools import accumulate, combinations
from math import comb, prod

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
    """Disjoint consecutive pairs (i, i+1 mod n) avoiding blocked labels."""
    if count == 0:
        out.append(tuple(chosen))
        return
    for i in range(start, n):
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


def facet_count(c: CircularComposition) -> int:
    """Closed formula for the number of facets.

    Facets are parametrized by which arcs contribute 0 or 2 divider
    picks (two interlacing subsets A and B of the arc indices) and by
    how many consecutive pairs fall into each arc.
    """
    n, d, l = c.n, c.d, c.l
    if l == 0:
        h = d // 2
        return _binom(n - h, h) + _binom(n - 1 - h, h - 1)
    m = c.arcs
    r = (d - l) // 2
    total = 0
    for rs in _compositions_nonneg(r, l):
        # both all-first-endpoint and all-last-endpoint divider picks
        total += 2 * prod(_binom(m[j] - 1 - rs[j], rs[j]) for j in range(l))
        for q in range(1, l // 2 + 1):
            for support in combinations(range(l), 2 * q):
                for a_set, b_set in (
                    (support[0::2], support[1::2]),
                    (support[1::2], support[0::2]),
                ):
                    term = 1
                    for j in range(l):
                        if j in a_set:
                            term *= _binom(m[j] - rs[j], rs[j])
                        elif j in b_set:
                            term *= _binom(m[j] - 2 - rs[j], rs[j])
                        else:
                            term *= _binom(m[j] - 1 - rs[j], rs[j])
                    total += term
    return total


def realize(c: CircularComposition):
    """A concrete instance on T = {1,...,n} whose induced composition
    is c up to rotation and reflection."""
    n = c.n
    t_set = GroundSet(tuple(Fraction(i) for i in range(1, n + 1)))
    sizes = (n,) if c.l == 0 else c.arcs
    dec = SignedDecomposition(sizes, 1, c.d)
    return t_set, chart_from_decomposition(dec, t_set)
