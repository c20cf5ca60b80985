"""Recognizers for named combinatorial types of a composition."""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from .canonical import certificate
from .circular import (
    CircularComposition,
    enumerate_facets_circular,
    induce_composition,
    vertex_set,
)
from .errors import DomainError
from .facets import FacetComplex
from .geometry import SignedDecomposition


def is_simplex(c: CircularComposition) -> bool:
    return len(vertex_set(c)) == c.d + 1


def is_cross_polytope(c: CircularComposition) -> bool:
    """Cross-polytope iff every point is a divider endpoint shared with
    no other divider: d dividers, all arcs of size at least 2."""
    return c.l == c.d and min(c.arcs) >= 2


@lru_cache(maxsize=128)
def _reference_certificate(kind: str, d: int, nv: int) -> bytes:
    """Certificate of the reference type on nv vertices: "cyclic" is the
    cyclic polytope (dividerless for even d, one divider for odd d),
    "stacked" the stacked family (all but one interval a singleton)."""
    if kind == "cyclic":
        reference = CircularComposition(d, (nv,))
    else:
        sizes = (1,) * (d - 3) + (nv - (d - 3),)
        reference = induce_composition(SignedDecomposition(sizes, 1, d))
    return certificate(enumerate_facets_circular(reference))


def is_stacked_family(c: CircularComposition) -> bool:
    """Membership in the one known stacked family: all but one interval
    a singleton on the line.  Not a general stackedness test.

    Compared by certificate, so the answer depends only on the
    combinatorial type.
    """
    if c.d < 3:
        raise DomainError(f"stacked types need d >= 3, got d={c.d}")
    return certificate(enumerate_facets_circular(c)) == \
        _reference_certificate("stacked", c.d, len(vertex_set(c)))


def is_cyclic_type(c: CircularComposition) -> bool:
    """Compare certificates with the cyclic polytope on the same number
    of vertices (dividerless for even d, one divider for odd d)."""
    return certificate(enumerate_facets_circular(c)) == \
        _reference_certificate("cyclic", c.d, len(vertex_set(c)))


def _neighbourly(fc: FacetComplex, verts, k: int) -> bool:
    facets = [set(f) for f in fc.facets]
    return all(any(set(sub) <= f for f in facets) for sub in combinations(verts, k))


def is_k_neighbourly(c: CircularComposition, k: int) -> bool:
    """Every k-subset of vertices lies in some facet."""
    if not 1 <= k <= c.d // 2:
        raise DomainError(f"k must be in 1..{c.d // 2}, got {k}")
    return _neighbourly(enumerate_facets_circular(c), vertex_set(c), k)


def _classify(c: CircularComposition, fc: FacetComplex, mine: bytes) -> dict:
    """The flags of c, given its facet complex and its certificate."""
    verts = vertex_set(c)
    nv = len(verts)
    return {
        "vertices": nv,
        "facets": len(fc.facets),
        "simplex": nv == c.d + 1,
        "cross": is_cross_polytope(c),
        "stacked_family": c.d >= 3 and mine == _reference_certificate("stacked", c.d, nv),
        "cyclic": mine == _reference_certificate("cyclic", c.d, nv),
        "neighbourly": c.d < 2 or _neighbourly(fc, verts, c.d // 2),
    }


def classify_composition(c: CircularComposition) -> dict:
    fc = enumerate_facets_circular(c)
    return _classify(c, fc, certificate(fc))
