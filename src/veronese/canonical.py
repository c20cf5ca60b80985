"""Canonical certificates and combinatorial-type enumeration.

A certificate is a relabeling-invariant encoding of a facet complex:
two complexes get equal certificates exactly when some bijection of
their labels maps one facet set onto the other.  It is computed by
iterated partition refinement on the vertex-facet incidence structure,
with backtracking individualization on the residual symmetric cells;
the certificate is the minimal encoding over all leaves of the search.

The search is pruned by the automorphisms it finds (the orbit pruning
of McKay and Piperno, "Practical graph isomorphism, II", 2014).  A leaf
whose encoding equals the best one so far yields an automorphism: the
vertex of color k in one leaf maps to the vertex of color k in the
other.  Refinement commutes with automorphisms, so an automorphism that
fixes a node's individualized vertices maps the subtree under one child
onto the subtree under another, with the same set of leaf encodings.
Each node therefore explores one child per orbit of its target cell
under the automorphisms found so far that fix its prefix pointwise.
Only subtrees whose encodings were already seen are skipped, so the
minimal encoding, and with it every certificate byte, is unchanged.
"""

from __future__ import annotations

from itertools import combinations

from .circular import (
    CircularComposition,
    _compositions_nonneg,
    canonical_arcs,
    enumerate_facets_circular,
)
from .errors import DegenerateComplexError
from .facets import FacetComplex


def _refine(facets, colors):
    """Refine vertex colors by incident-facet fingerprints to a fixpoint.

    A facet's fingerprint is the sorted color multiset of its vertices;
    a vertex signature keeps its old color first, so each round refines
    the previous partition.
    """
    n = len(colors)
    while True:
        prints = [tuple(sorted(colors[v] for v in f)) for f in facets]
        incident = [[] for _ in range(n)]
        for f, fp in zip(facets, prints):
            for v in f:
                incident[v].append(fp)
        sigs = [(colors[v], tuple(sorted(incident[v]))) for v in range(n)]
        order = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [order[s] for s in sigs]
        if new == colors:
            return new
        colors = new


def _encode(facets, colors):
    relabeled = sorted(tuple(sorted(colors[v] for v in f)) for f in facets)
    return tuple(relabeled)


def certificate(fc: FacetComplex) -> bytes:
    """Canonical byte encoding of a vertex-reduced facet complex."""
    if not fc.facets:
        raise DegenerateComplexError("empty facet complex has no certificate")
    fc = fc.restrict_to_vertices()
    n = fc.n_labels
    facets = [tuple(f) for f in fc.facets]
    best = [None, None]  # minimal encoding, and the leaf colors giving it
    automorphisms = []

    def orbit_root(parent, v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    def search(colors, prefix):
        counts = {}
        for color in colors:
            counts[color] = counts.get(color, 0) + 1
        target = next((c for c in sorted(counts) if counts[c] > 1), None)
        if target is None:
            enc = _encode(facets, colors)
            if best[0] is None or enc < best[0]:
                best[0], best[1] = enc, colors
            elif enc == best[0]:
                # equal encodings: the vertex of color k here maps to the
                # vertex of color k in the best leaf, an automorphism
                vertex_of = {c: v for v, c in enumerate(best[1])}
                automorphisms.append([vertex_of[c] for c in colors])
            return
        explored, seen = [], 0
        parent = list(range(n))
        for v in range(n):
            if colors[v] != target:
                continue
            if seen < len(automorphisms):
                # orbits under the automorphisms fixing the prefix pointwise
                for auto in automorphisms[seen:]:
                    if all(auto[p] == p for p in prefix):
                        for u in range(n):
                            a, b = orbit_root(parent, u), orbit_root(parent, auto[u])
                            if a != b:
                                parent[a] = b
                seen = len(automorphisms)
            root = orbit_root(parent, v)
            if any(orbit_root(parent, u) == root for u in explored):
                continue
            explored.append(v)
            branched = [(c, 1) if u != v else (c, 0) for u, c in enumerate(colors)]
            order = {s: i for i, s in enumerate(sorted(set(branched)))}
            search(_refine(facets, [order[s] for s in branched]), prefix + (v,))

    search(_refine(facets, [0] * n), ())
    body = ";".join("-".join(map(str, f)) for f in best[0])
    return f"{n}:{fc.d}:{body}".encode("ascii")


def complex_invariant(fc: FacetComplex) -> tuple:
    """Cheap relabeling-invariant summary: complexes with equal
    certificates have equal invariants."""
    fc = fc.restrict_to_vertices()
    degrees = [0] * fc.n_labels
    for f in fc.facets:
        for v in f:
            degrees[v] += 1
    sets = [set(f) for f in fc.facets]
    intersections = sorted(
        len(a & b) for a, b in combinations(sets, 2)
    )
    return (
        fc.n_labels,
        len(fc.facets),
        tuple(sorted(degrees)),
        tuple(intersections),
    )


def enumerate_compositions(d: int, n_generators: int):
    """All compositions of n points with l = d, d-2, ... dividers (down
    to 0 or 1 by parity), one representative per dihedral class."""
    out = []
    seen = set()
    for l in range(d % 2, d + 1, 2):
        if l == 0:
            out.append(CircularComposition(d, (n_generators,), dividers=0))
            continue
        # positive arc sizes: nonnegative compositions of n - l, plus one
        for extra in _compositions_nonneg(n_generators - l, l):
            canon = canonical_arcs(CircularComposition(d, [m + 1 for m in extra]))
            if canon.arcs not in seen:
                seen.add(canon.arcs)
                out.append(canon)
    return out


def _type_candidates(d: int, n_vertices: int):
    """Compositions covering every combinatorial type on n vertices:
    fewer than d dividers at full size (all points are vertices), plus
    d dividers with arcs capped at 2 (larger arcs add no vertices)."""
    return [c for c in enumerate_compositions(d, n_vertices)
            if c.l < d or max(c.arcs) <= 2]


def distinct_types(d: int, n_vertices: int):
    """One representative composition per combinatorial type, each with
    its certificate, sorted by certificate bytes."""
    found = {}
    for c in _type_candidates(d, n_vertices):
        found.setdefault(certificate(enumerate_facets_circular(c)), c)
    return sorted(found.items())


def count_types(d: int, n_vertices: int) -> int:
    return len(distinct_types(d, n_vertices))


def table_report(d_values, n_values):
    """Rows of (d, n, count, types) with per-type classification flags."""
    from .classify import _classify

    rows = []
    for d in d_values:
        for n in n_values:
            if n < d + 1:
                continue
            types = [
                {
                    "arcs": list(c.arcs),
                    "dividers": c.dividers,
                    "certificate": cert.hex(),
                    "flags": _classify(c, enumerate_facets_circular(c), cert),
                }
                for cert, c in distinct_types(d, n)
            ]
            rows.append({"d": d, "n": n, "count": len(types), "types": types})
    return rows
