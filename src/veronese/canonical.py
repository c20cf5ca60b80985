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

The root's refinement starts from its first round, which is known in
advance.  From equal labels n-1 every fingerprint is (n-1,)*d, so a
vertex's signature is deg(v) copies of that one tuple, and signatures
of distinct lengths sort by length: the round splits the vertices by
degree, in increasing order, each piece in vertex order, and the
highest-degree piece keeps the label n-1.  So the root is built with
those pieces as its cells, every fingerprint (n-1,)*d (() for the
empty facet of d = 0), and refined with the vertices outside the
highest-degree piece as the changed ones.  The labels, cells and
fingerprints it reaches are those refined from equal labels.

The search is pruned by the automorphisms it finds (McKay and Piperno,
"Practical graph isomorphism, II", 2014).  A leaf whose encoding equals
the best one so far yields an automorphism: the vertex of label k in one
leaf maps to the vertex of label k in the other.  Refinement commutes
with automorphisms, so an automorphism that fixes a node's
individualized vertices maps the subtree under one child onto the
subtree under another, with the same set of leaf encodings.

* Orbit pruning: each node explores one child per orbit of its target
  cell under the automorphisms found so far that fix its prefix
  pointwise.  Such an automorphism keeps every label of the node's
  partition, so it maps the target cell onto itself, and the orbits are
  the components of u - a(u) over the cell's members alone: a union-find
  over the target cell, not over all n vertices.
* Back-jumping: the automorphism found at a leaf fixes the prefix of the
  deepest common ancestor of that leaf and the best one, and maps the
  ancestor's child toward this leaf onto its child toward the best leaf,
  whose subtree was explored before.  Every encoding under the first
  child has been seen, so the search returns straight to the ancestor.
* Twin seeding: twins u, v are vertices whose transposition maps the
  facet set onto itself.  It keeps every root label, so twins share a
  cell of the root partition, and twin-ness is an equivalence, as
  (v w)(u v)(v w) = (u w).  Each cell's vertices are walked in sorted
  order, and each is tested against the last member of every class
  found so far with the same closed or open neighbourhood; the test
  maps every facet that the transposition moves, which verifies the
  automorphism.  The root starts with the transpositions of each
  class's consecutive members.  A node's first child individualizes
  the least vertex of its target cell, which leaves the rest of such a
  chain joined, where a star from the least member would lose every
  generator.  It also starts with swaps of whole twin classes: A and B
  of one cell and of equal size at least 2 are swappable when the
  involution that maps the i-th member of each, in sorted order, to
  the i-th of the other maps the facet set onto itself, which the test
  verifies by mapping every facet through A or B.  Swappability is an
  equivalence: (B C)(A B)(B C) = (A C) for the sorted swaps of disjoint
  classes, as conjugation by (B C) takes a_i to c_i and c_i to a_i and
  fixes b_i.  So each class is tested against the last class of every
  group of its size found before it, and the root starts with the swaps
  of each group's consecutive classes.  On k disjoint edges, or the
  antipodal pairs of a cross-polytope, these join every pair with every
  other, and the search takes one refinement per level of its first
  branch.  The seeds are true automorphisms, so they too skip only
  subtrees whose encodings are seen elsewhere.
* Twin leaves: a node whose non-singleton cells each lie inside one
  twin class, as the transpositions join them, is not refined further;
  its first leaf is written directly.  Take u and w in one such cell;
  their labels are equal.
  The transposition (u w) is an automorphism that fixes every other
  vertex, so it keeps every label, and individualizing any v outside
  {u, w} leaves u and w with equal signatures: no refinement on the
  way down splits a cell.  So the first leaf gives each cell's members,
  in sorted order, labels L-m+1, ..., L-1, with L the cell's label and
  m its size, the last member keeping L, and its prefix is the node's
  with those peeled vertices appended, cell by cell in label order.
  Every other leaf below the node differs from it by a product of twin
  transpositions, which fixes the node's prefix, so all of them have
  its encoding.  On a simplex's boundary the root's one cell is a twin
  class, and the search makes the root's refinement only.

The search is a loop over `path`, the inner nodes of the current branch,
one per depth, so no call frame is taken per level.  Each node keeps
`fixing`, and the invariant is that it holds exactly the seeds and the
automorphisms found so far that fix the node's prefix pointwise.  The child for v takes those of its parent's that fix
v.  An automorphism found at a leaf is appended to every node left on
the path after the back-jump, since each of their prefixes is part of
the prefix the two leaves share; it is stored as the map of the
vertices it moves.

Only subtrees whose encodings were already seen, or are the encoding of
the twin leaf written for them, are skipped, so the minimal encoding,
and with it every certificate byte, is unchanged.

Types on n > d vertices come from compositions of n points, one per
dihedral class (the paper's bijection).  With fewer than d dividers
every point is a vertex; with d dividers only the first and last point
of each arc are, so an arc of more than 2 points leaves fewer than n
vertices.  The d-divider candidates are built directly, as the
sequences of d arcs of 1 or 2 points, in the lexicographic order in
which a filter over all compositions would keep them, so the first
candidate per certificate is the same.  Distinct candidates can give
one facet complex: at n = d + 1 every candidate is the simplex, whose
facets are all d-subsets of 0..d.  Equal complexes have equal
certificates, so distinct_types certifies each distinct complex of a
call once.
"""

from __future__ import annotations

from itertools import combinations

from .circular import CircularComposition, dihedral_min, enumerate_facets_circular
from .classify import classify_composition
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


def _orbit(orbits, v):
    """The root of v in the union-find `orbits`, halving the path."""
    while orbits[v] != v:
        orbits[v] = orbits[orbits[v]]
        v = orbits[v]
    return v


def _join(orbits, auto):
    """Merge the orbits of u and auto[u] for every u in `orbits` that the
    automorphism moves; `auto` maps each vertex it moves to its image."""
    for u, w in auto.items():
        if u in orbits:
            orbits[_orbit(orbits, u)] = _orbit(orbits, w)


def _maps_into(facets, present, auto, indices):
    """Does `auto`, a map of the vertices it moves, take each facet of
    `indices` to a facet?  Stops at the first that it does not."""
    get = auto.get
    return all(tuple(sorted(map(get, facets[i], facets[i]))) in present
               for i in indices)


def _twins(facets, incidence, cells):
    """The twin transpositions and the twin-class swaps to seed the
    search with, as maps of the vertices they move.  The transpositions
    are, for each class of twins in a cell of the root partition, the
    chain of its consecutive members in sorted order; the swaps are, for
    each group of swappable classes in a cell, the chain of its
    consecutive classes in the order found.

    (u v) maps the facet set onto itself iff every facet holding u but
    not v is a facet with u replaced by v: u and v share a cell, so they
    lie in equally many facets, and the map of those facets onto the
    ones holding v but not u is then a bijection.  Twins form classes,
    as (v w)(u v)(v w) = (u w), so v is tested against the last member
    of a class found before it.  Only classes that share v's closed
    neighbourhood (the vertices of the facets through v) or its open
    one (that set without v) are tried: twins in a common facet have
    equal closed neighbourhoods, and other twins equal open ones.  So
    the one cell of a long cycle, which has no twins, takes a linear
    number of tests, not a quadratic one.

    Two classes of one cell and of equal size are swappable when the
    swap of their members, the i-th of one in sorted order with the i-th
    of the other, maps the facet set onto itself; it is a bijection, so
    mapping every facet it moves into the set verifies it.  Swappable
    classes form groups, as (B C)(A B)(B C) = (A C), so a class is
    tested against the last class of every group of its size found
    before it.
    """
    present, transpositions, swaps = set(facets), [], []
    for members in cells.values():
        classes, found = {}, []  # a neighbourhood: the classes with it
        for v in sorted(members):
            near = frozenset().union(*[facets[i] for i in incidence[v]])
            keys = near, near - {v}
            for twins in classes.get(keys[0], []) + classes.get(keys[1], []):
                u = twins[-1]
                auto = {u: v, v: u}
                if _maps_into(facets, present, auto,
                              (i for i in incidence[u] if v not in facets[i])):
                    transpositions.append(auto)
                    twins.append(v)
                    break
            else:
                twins = [v]
                found.append(twins)
                for key in keys:
                    classes.setdefault(key, []).append(twins)
        groups = {}  # a class size: the groups of swappable classes of it
        for twins in [twins for twins in found if len(twins) > 1]:
            for group in groups.setdefault(len(twins), []):
                auto = dict(zip(group[-1] + twins, twins + group[-1]))
                if _maps_into(facets, present, auto,
                              {i for w in auto for i in incidence[w]}):
                    swaps.append(auto)
                    group.append(twins)
                    break
            else:
                groups[len(twins)].append([twins])
    return transpositions, swaps


def certificate(fc: FacetComplex) -> bytes:
    """Canonical byte encoding of a vertex-reduced facet complex."""
    if not fc.facets:
        raise DegenerateComplexError("empty facet complex has no certificate")
    fc = fc.restrict_to_vertices()
    n = fc.n_labels
    facets = fc.facets
    incidence = [[] for _ in range(n)]
    for i, f in enumerate(facets):
        for v in f:
            incidence[v].append(i)
    # the root starts from the first refinement round of equal labels:
    # the vertices split by degree, in increasing order
    groups = {}
    for v in range(n):
        groups.setdefault(len(incidence[v]), []).append(v)
    labels, cells, end = [0] * n, {}, -1
    for _, group in sorted(groups.items()):
        end += len(group)
        for v in group:
            labels[v] = end
        if len(group) > 1:
            cells[end] = group
    prints = [(n - 1,) * fc.d] * len(facets)
    _refine(facets, incidence, labels, cells, prints,
            [v for v in range(n) if labels[v] != n - 1])
    transpositions, swaps = _twins(facets, incidence, cells)
    twin = list(range(n))
    for u, v in transpositions:  # each chain's seeds come in sorted order
        twin[v] = twin[u]
    best, path = None, []  # the minimal encoding; one inner node per depth
    node = labels, cells, prints, (), transpositions + swaps
    while node is not None:
        labels, cells, prints, prefix, fixing = node
        if any(len({twin[v] for v in members}) > 1 for members in cells.values()):
            path.append((labels, cells, prints, prefix, fixing, {},
                         iter(sorted(cells[min(cells)])), []))
        else:
            # every open cell is a twin class: write the node's first leaf
            peeled = []
            for label in sorted(cells):
                members = sorted(cells[label])
                for position, v in enumerate(members[:-1], label - len(members) + 1):
                    labels[v] = position
                peeled += members[:-1]
            for i in {i for v in peeled for i in incidence[v]}:
                prints[i] = tuple(sorted([labels[v] for v in facets[i]]))
            prefix += tuple(peeled)
            enc = tuple(sorted(prints))
            if best is None or enc < best:
                best, best_labels, best_prefix = enc, labels, prefix
            elif enc == best:
                # equal encodings: the vertex of label k here maps to the
                # vertex of label k in the best leaf, an automorphism
                vertex_of = {label: v for v, label in enumerate(best_labels)}
                auto = {v: vertex_of[label] for v, label in enumerate(labels)
                        if vertex_of[label] != v}
                # back-jump to the deepest common ancestor of the two leaves
                # (neither prefix extends the other, as both end at leaves);
                # the automorphism fixes every prefix left on the path
                depth = next(i for i, (u, w) in enumerate(zip(prefix, best_prefix))
                             if u != w)
                del path[depth + 1:]
                for _, _, _, _, fixing, orbits, _, _ in path:
                    fixing.append(auto)
                    _join(orbits, auto)
        node = None
        while path and node is None:
            labels, cells, prints, prefix, fixing, orbits, untried, explored = path[-1]
            target = min(cells)
            if explored and not orbits:
                # built on the first return here: a node that a back-jump
                # removes before then never needs its orbits
                orbits.update((u, u) for u in cells[target])
                for auto in fixing:
                    _join(orbits, auto)
            # the first untried vertex outside the orbits explored here
            v = next((v for v in untried if all(
                _orbit(orbits, u) != _orbit(orbits, v) for u in explored)), None)
            if v is None:
                path.pop()
                continue
            explored.append(v)
            # individualize v: it takes the cell's first position, and
            # the rest of the cell keeps its label
            child_labels, child_cells = labels.copy(), dict(cells)
            child_labels[v] = target - len(cells[target]) + 1
            rest = [u for u in cells[target] if u != v]
            if len(rest) > 1:
                child_cells[target] = rest
            else:
                del child_cells[target]
            child_prints = prints.copy()
            _refine(facets, incidence, child_labels, child_cells, child_prints, [v])
            node = (child_labels, child_cells, child_prints, prefix + (v,),
                    [auto for auto in fixing if v not in auto])
    body = ";".join("-".join(map(str, f)) for f in best)
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


def _compositions(d: int, n: int, l: int):
    """The compositions of n points with l dividers, one per dihedral
    class: its lexicographically least arc sequence, in lexicographic
    order.  Positive arc sizes are cut at l-1 of the points 1..n-1 (none
    for a single arc) in lexicographic order, which orders the arc
    sequences lexicographically too: each dihedral class is listed once,
    at its least sequence, which is also its first to come."""
    for cuts in combinations(range(1, n), max(l - 1, 0)):
        arcs = tuple(b - a for a, b in zip((0,) + cuts, cuts + (n,)))
        if arcs == dihedral_min(arcs):
            yield CircularComposition(d, arcs)


def enumerate_compositions(d: int, n_generators: int):
    """All compositions of n points with l = d, d-2, ... dividers (down
    to 0 or 1 by parity), one representative per dihedral class: its
    lexicographically least arc sequence."""
    return [c for l in range(d % 2, d + 1, 2) for c in _compositions(d, n_generators, l)]


def _type_candidates(d: int, n_vertices: int):
    """Compositions covering every combinatorial type on n > d vertices:
    fewer than d dividers at full size (all points are vertices), plus
    d dividers with arcs capped at 2 (larger arcs add no vertices), in
    the order of enumerate_compositions."""
    n, out = n_vertices, []
    for l in range(d % 2, d + 1, 2):
        if l < d:
            out += _compositions(d, n, l)
        elif d < 2:  # a single arc, a candidate up to 2 points
            out += [c for c in _compositions(d, n, l) if n <= 2]
        else:
            # d arcs of 1 or 2 points, n - d of them 2s; the positions of
            # the 1s in combinations order list them lexicographically
            for ones in combinations(range(d), 2 * d - n) if n <= 2 * d else ():
                arcs = tuple(1 if i in ones else 2 for i in range(d))
                if arcs == dihedral_min(arcs):
                    out.append(CircularComposition(d, arcs))
    return out


def distinct_types(d: int, n_vertices: int):
    """One representative composition per combinatorial type, each with
    its certificate, sorted by certificate bytes.  Each distinct facet
    complex is certified once, with the first candidate that gives it,
    in order of first appearance, so the first candidate per certificate
    is kept."""
    complexes, found = {}, {}
    for c in _type_candidates(d, n_vertices):
        complexes.setdefault(enumerate_facets_circular(c), c)
    for fc, c in complexes.items():
        found.setdefault(certificate(fc), c)
    return sorted(found.items())


def count_types(d: int, n_vertices: int) -> int:
    return len(distinct_types(d, n_vertices))


def table_report(d_values, n_values):
    """Rows of (d, n, count, types) with per-type classification flags."""
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
                    "flags": classify_composition(c),
                }
                for cert, c in distinct_types(d, n)
            ]
            rows.append({"d": d, "n": n, "count": len(types), "types": types})
    return rows
