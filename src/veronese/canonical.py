"""Canonical certificates and combinatorial-type enumeration.

A certificate is a relabeling-invariant encoding of a facet complex:
two complexes get equal certificates exactly when some bijection of
their labels maps one facet set onto the other.  It is computed by
iterated partition refinement on the vertex-facet incidence structure,
with backtracking individualization on the residual symmetric cells;
the certificate is the minimal encoding over all leaves of the search.

The partition is ordered, and a vertex's label is the last position of
its cell.  Labels are then a strictly increasing function of the cells'
ranks, so every comparison of facet fingerprints (sorted label tuples)
and of vertex signatures (sorted fingerprint tuples) comes out as it
would on dense ranks, and the refinement splits the same cells into the
same ordered pieces.  At a leaf every cell is a singleton and each label
is its rank, so the leaf encodings are those of dense ranks.  The labels
make refinement incremental: a split cell's last piece keeps its label,
and individualizing v moves v alone to the cell's first position, so a
round retakes only the fingerprints of facets touching a vertex whose
label changed, and re-sorts only the cells touching such a facet.  Every
other cell's vertices keep the equal signatures they had.

The search is pruned by the automorphisms it finds (McKay and Piperno,
"Practical graph isomorphism, II", 2014).  A leaf whose encoding equals
the best one so far yields an automorphism: the vertex of label k in one
leaf maps to the vertex of label k in the other.  Refinement commutes
with automorphisms, so an automorphism that fixes a node's
individualized vertices maps the subtree under one child onto the
subtree under another, with the same set of leaf encodings.

* Orbit pruning: each node explores one child per orbit of its target
  cell under the automorphisms found so far that fix its prefix
  pointwise.
* Back-jumping: the automorphism found at a leaf fixes the prefix of the
  deepest common ancestor of that leaf and the best one, and maps the
  ancestor's child toward this leaf onto its child toward the best leaf,
  whose subtree was explored before.  Every encoding under the first
  child has been seen, so the search returns straight to the ancestor.

Only subtrees whose encodings were already seen are skipped, so the
minimal encoding, and with it every certificate byte, is unchanged.
"""

from __future__ import annotations

from itertools import combinations

from .circular import (
    CircularComposition,
    canonical_arcs,
    enumerate_facets_circular,
)
from .errors import DegenerateComplexError
from .facets import FacetComplex


def _refine(facets, incidence, labels, cells, prints, changed):
    """Refine the ordered partition to its fixpoint, in place.

    labels[v] is the cell-end label of v, cells maps the label of each
    non-singleton cell to its vertices, and prints[i] is the sorted label
    tuple of facet i (its fingerprint).  A fingerprint is stale only if
    the facet touches a vertex in `changed`, the vertices whose label
    changed since it was taken.  Each round retakes the stale
    fingerprints, then splits every cell touching a stale facet by its
    vertices' sorted incident fingerprints; the other cells cannot split.
    """
    while changed:
        stale = {i for v in changed for i in incidence[v]}
        for i in stale:
            prints[i] = tuple(sorted([labels[v] for v in facets[i]]))
        touched = {labels[v] for i in stale for v in facets[i]}.intersection(cells)
        changed = []
        for label in touched:
            members = cells[label]
            pieces = {}
            for v in members:
                signature = tuple(sorted([prints[i] for i in incidence[v]]))
                pieces.setdefault(signature, []).append(v)
            if len(pieces) == 1:
                continue
            del cells[label]
            end = label - len(members)
            for signature in sorted(pieces):
                piece = pieces[signature]
                end += len(piece)
                if len(piece) > 1:
                    cells[end] = piece
                if end != label:
                    for v in piece:
                        labels[v] = end
                    changed += piece


def certificate(fc: FacetComplex) -> bytes:
    """Canonical byte encoding of a vertex-reduced facet complex."""
    if not fc.facets:
        raise DegenerateComplexError("empty facet complex has no certificate")
    fc = fc.restrict_to_vertices()
    n = fc.n_labels
    facets = [tuple(f) for f in fc.facets]
    incidence = [[] for _ in range(n)]
    for i, f in enumerate(facets):
        for v in f:
            incidence[v].append(i)
    best = [None, None, None]  # minimal encoding, its leaf's labels and prefix
    automorphisms = []

    def orbit_root(parent, v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    def search(labels, cells, prints, prefix):
        """Explore the node; returns the depth to back-jump to, or None."""
        if not cells:
            enc = tuple(sorted(prints))
            if best[0] is None or enc < best[0]:
                best[:] = enc, labels, prefix
            elif enc == best[0]:
                # equal encodings: the vertex of label k here maps to the
                # vertex of label k in the best leaf, an automorphism
                vertex_of = [0] * n
                for v, label in enumerate(best[1]):
                    vertex_of[label] = v
                automorphisms.append([vertex_of[label] for label in labels])
                # back-jump to the deepest common ancestor of the two leaves
                depth = 0
                for u, w in zip(prefix, best[2]):
                    if u != w:
                        break
                    depth += 1
                return depth
            return None
        target = min(cells)
        members = cells[target]
        first = target - len(members) + 1
        explored, seen = [], 0
        parent = list(range(n))
        for v in sorted(members):
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
            # individualize v: it takes the cell's first position, and
            # the rest of the cell keeps its label
            child_labels, child_cells = labels.copy(), dict(cells)
            child_labels[v] = first
            rest = [u for u in members if u != v]
            if len(rest) > 1:
                child_cells[target] = rest
            else:
                del child_cells[target]
            child_prints = prints.copy()
            _refine(facets, incidence, child_labels, child_cells, child_prints, [v])
            jump = search(child_labels, child_cells, child_prints, prefix + (v,))
            if jump is not None and jump < len(prefix):
                return jump
        return None

    labels, prints = [n - 1] * n, [None] * len(facets)
    cells = {n - 1: list(range(n))} if n > 1 else {}
    _refine(facets, incidence, labels, cells, prints, range(n))
    search(labels, cells, prints, ())
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
        # positive arc sizes, cut at l-1 of the points 1..n-1 in
        # lexicographic order
        for cuts in combinations(range(1, n_generators), l - 1):
            arcs = [b - a for a, b in zip((0,) + cuts, cuts + (n_generators,))]
            canon = canonical_arcs(CircularComposition(d, arcs))
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


def _types(d: int, n_vertices: int):
    """(certificate, composition, facet complex) per combinatorial type,
    sorted by certificate bytes."""
    found = {}
    for c in _type_candidates(d, n_vertices):
        fc = enumerate_facets_circular(c)
        found.setdefault(certificate(fc), (c, fc))
    return [(cert, c, fc) for cert, (c, fc) in sorted(found.items())]


def distinct_types(d: int, n_vertices: int):
    """One representative composition per combinatorial type, each with
    its certificate, sorted by certificate bytes."""
    return [(cert, c) for cert, c, _ in _types(d, n_vertices)]


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
                    "flags": _classify(c, fc, cert),
                }
                for cert, c, fc in _types(d, n)
            ]
            rows.append({"d": d, "n": n, "count": len(types), "types": types})
    return rows
