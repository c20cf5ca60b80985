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

`is_cyclic_type`, `is_stacked_family` and `is_k_neighbourly` decide the
same questions from the facet complex and its certificate, as
independent oracles for those flags.
"""

from __future__ import annotations

from itertools import combinations

from .canonical import certificate
from .circular import (
    CircularComposition,
    dihedral_min,
    enumerate_facets_circular,
    facet_count,
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


def _same_type(c: CircularComposition, kind: str) -> bool:
    """Whether c's facet complex has the certificate of the reference
    type of this kind on as many vertices."""
    reference = _reference(kind, c.d, len(vertex_set(c)))
    return certificate(enumerate_facets_circular(c)) == \
        certificate(enumerate_facets_circular(reference))


def is_stacked_family(c: CircularComposition) -> bool:
    """Membership in the one known stacked family: all but one interval
    a singleton on the line.  Not a general stackedness test.

    The certificate oracle for the `stacked_family` flag: compared by
    certificate, so the answer depends only on the combinatorial type.
    """
    if c.d < 3:
        raise DomainError(f"stacked types need d >= 3, got d={c.d}")
    return _same_type(c, "stacked")


def is_cyclic_type(c: CircularComposition) -> bool:
    """The certificate oracle for the `cyclic` flag: compare certificates
    with the cyclic polytope on the same number of vertices (dividerless
    for even d, one divider for odd d)."""
    return _same_type(c, "cyclic")


def _neighbourly(fc: FacetComplex, verts, k: int) -> bool:
    facets = [set(f) for f in fc.facets]
    return all(any(set(sub) <= f for f in facets) for sub in combinations(verts, k))


def is_k_neighbourly(c: CircularComposition, k: int) -> bool:
    """Every k-subset of vertices lies in some facet."""
    if not 1 <= k <= c.d // 2:
        raise DomainError(f"k must be in 1..{c.d // 2}, got {k}")
    return _neighbourly(enumerate_facets_circular(c), vertex_set(c), k)


def classify_composition(c: CircularComposition) -> dict:
    """The named-type flags of c, read off its arcs (see the module
    docstring)."""
    nv, key, facets = len(vertex_set(c)), type_key(c), facet_count(c)
    cyclic = _reference("cyclic", c.d, nv)
    cyclic_facets = facets if c.arcs == cyclic.arcs else facet_count(cyclic)
    return {
        "vertices": nv,
        "facets": facets,
        "simplex": nv == c.d + 1,
        "cross": is_cross_polytope(c),
        "stacked_family": c.d >= 3 and key == type_key(_reference("stacked", c.d, nv)),
        "cyclic": key == type_key(cyclic),
        "neighbourly": c.d < 2 or facets == cyclic_facets,
    }
