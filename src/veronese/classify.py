"""Recognizers for named combinatorial types of a composition.

`classify_composition` reads every flag off the arcs, with no facet
complex and no certificate.  Its type comparisons use `type_key(c)`.
Let nv be the vertex count.  When l = d, each arc is capped at 2 first:
an arc's inner points are not vertices, so larger arcs add none.

* nv = d+1: the simplex, the only type, with key (nv,).
* nv = d+2: a join of two simplex boundaries, fixed by the split
  (a, nv-a) of the 1-dimensional Gale diagram's signs.  On the line
  decomposition `SignedDecomposition(arcs, 1, d)` these are the parity
  keys `(p + interval[p]) % 2`, and a counts the zeros; the key is
  (nv, min(a, nv-a)).
* nv >= d+3 and l < d: (nv, "arcs", the dihedral minimum of the arcs).
* nv >= d+3 and l = d: (nv, "runs", the sorted lengths of the cyclic
  runs of 1-arcs between consecutive 2-arcs, empty runs included).

The nv >= d+3 keys rest on the paper's bijection theorem between
combinatorial types and circular compositions.  The two smaller cases
are the ones where distinct compositions share a type.

Every Veronese polytope is simplicial, so by the equality case of
McMullen's Upper Bound Theorem ("The maximum numbers of faces of a
convex polytope", Mathematika 1970) it is floor(d/2)-neighbourly
exactly when it has as many facets as the cyclic polytope on its
vertices.

The reference facts depend on (d, nv) only, and every type of a Table 1
cell shares them, so they sit in one-entry caches, like the determinant
memo: `_reference_keys` holds the cyclic reference's arcs and type key
and the stacked reference's type key, and `_cyclic_facets` the cyclic
reference's facet count.  A cell builds its references once and counts
their facets once.  Across cells of a random order the cache is mostly
cold: in perfbench `types` (seeds 1 to 10, ten blocks each) 371 of 11090
operations, 3.3%, follow an operation on the same cell.
The facet count stays lazy: a composition whose arcs are the cyclic
reference's own already counted its facets, so it reads that count and
never takes a second one, whatever the cache holds.

The test oracle `tests/helpers.py::classify_literal` decides the same
flags from the facet complex: it compares certificates with the
reference types' and tests every floor(d/2)-subset of vertices against
the facets.
"""

from __future__ import annotations

from functools import lru_cache

from .circular import (
    CircularComposition,
    dihedral_min,
    facet_count,
    induce_composition,
)
from .geometry import SignedDecomposition


def is_cross_polytope(c: CircularComposition) -> bool:
    """Cross-polytope iff every point is a divider endpoint shared with
    no other divider: d dividers, all arcs of size at least 2."""
    return c.l == c.d and min(c.arcs) >= 2


def type_key(c: CircularComposition) -> tuple:
    """A key that two compositions of the same dimension share exactly
    when their combinatorial types are equal (see the module docstring)."""
    arcs = tuple(min(m, 2) for m in c.arcs) if c.l == c.d else c.arcs
    nv, d = sum(arcs), c.d
    if nv == d + 1:
        return (nv,)
    if nv == d + 2:
        a = SignedDecomposition(arcs, 1, d).line_tables.key[1:].count(0)
        return (nv, min(a, nv - a))
    if c.l < d:
        return (nv, "arcs", dihedral_min(arcs))
    twos = [i for i, m in enumerate(arcs) if m == 2]
    runs = ((j - i - 1) % len(arcs) for i, j in zip(twos, twos[1:] + twos[:1]))
    return (nv, "runs", tuple(sorted(runs)))


def _reference(kind: str, d: int, nv: int) -> CircularComposition:
    """The reference type on nv vertices: "cyclic" is the cyclic
    polytope (dividerless for even d, one divider for odd d), "stacked"
    the stacked family (all but one interval a singleton)."""
    if kind == "cyclic":
        return CircularComposition(d, (nv,))
    sizes = (1,) * (d - 3) + (nv - (d - 3),)
    return induce_composition(SignedDecomposition(sizes, 1, d))


@lru_cache(maxsize=1)
def _reference_keys(d: int, nv: int) -> tuple:
    """The cyclic reference's arcs and type key, and the stacked
    reference's type key (None for d < 3, where no flag reads it)."""
    cyclic = _reference("cyclic", d, nv)
    stacked = type_key(_reference("stacked", d, nv)) if d >= 3 else None
    return cyclic.arcs, type_key(cyclic), stacked


@lru_cache(maxsize=1)
def _cyclic_facets(d: int, nv: int) -> int:
    """The facet count of the cyclic reference on nv vertices."""
    return facet_count(_reference("cyclic", d, nv))


def classify_composition(c: CircularComposition) -> dict:
    """The named-type flags of c, read off its arcs (see the module
    docstring)."""
    key, facets = type_key(c), facet_count(c)
    nv = key[0]
    cyclic_arcs, cyclic_key, stacked_key = _reference_keys(c.d, nv)
    return {
        "vertices": nv,
        "facets": facets,
        "simplex": nv == c.d + 1,
        "cross": is_cross_polytope(c),
        "stacked_family": c.d >= 3 and key == stacked_key,
        "cyclic": key == cyclic_key,
        "neighbourly": c.d < 2 or c.arcs == cyclic_arcs
        or facets == _cyclic_facets(c.d, nv),
    }
