"""The types on d+2 and d+3 vertices against Perles' standard Gale
diagrams (Grünbaum, Convex Polytopes, section 6.3), an independent
construction of every simplicial d-polytope with that many vertices.

* d+2 vertices: two antipodal points of the line with multiplicities
  a, b >= 2; a d-subset is a facet iff its 2-point complement takes one
  point from each side.
* d+3 vertices: a regular (2k+1)-gon with positive vertex multiplicities
  summing to d+3, where every k consecutive polygon vertices (an open
  half-plane) carry at least 2 points; a d-subset is a facet iff its
  3-point complement lies in no closed half-plane, that is, its three
  cyclic gaps all lie in 1..k.

Diagrams equal up to rotation and reflection give the same type, so
each dihedral class of multiplicity vectors is certified once.
"""

from itertools import combinations

import pytest

from veronese import FacetComplex, certificate, distinct_types

# Perles' counts of simplicial d-polytopes with d+3 vertices, d = 2..8
D_PLUS_3 = {2: 1, 3: 2, 4: 5, 5: 8, 6: 18, 7: 29, 8: 57}


def _certificate(d, n, is_cofacet):
    facets = tuple(
        tuple(sorted(set(range(n)) - set(rest)))
        for rest in combinations(range(n), n - d) if is_cofacet(rest)
    )
    return certificate(FacetComplex(n, d, facets))


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _dihedral_min(vector):
    turns = [vector[i:] + vector[:i] for i in range(len(vector))]
    return min(turns + [turn[::-1] for turn in turns])


def gale_d_plus_2(d):
    """Certificates of the diagrams with a + b = d + 2, a <= b."""
    return {
        _certificate(d, d + 2, lambda rest, a=a: rest[0] < a <= rest[1])
        for a in range(2, (d + 2) // 2 + 1)
    }


def gale_d_plus_3_diagrams(d):
    """One multiplicity vector per dihedral class of standard Gale
    diagrams with d+3 points."""
    n = d + 3
    vectors = set()
    for k in range(1, (n - 1) // 2 + 1):
        sides = 2 * k + 1
        for vector in _compositions(n, sides):
            if all(sum(vector[(i + j) % sides] for j in range(k)) >= 2
                   for i in range(sides)):
                vectors.add(_dihedral_min(vector))
    return sorted(vectors)


def _gale_d_plus_3_certificate(d, vector):
    sides = len(vector)
    k = sides // 2
    position = [i for i, m in enumerate(vector) for _ in range(m)]

    def is_cofacet(rest):
        i, j, l = (position[p] for p in rest)
        return all(1 <= gap <= k for gap in (j - i, l - j, sides - (l - i)))

    return _certificate(d, d + 3, is_cofacet)


@pytest.mark.parametrize("d", range(2, 9))
def test_types_on_d_plus_2_vertices_match_gale_diagrams(d):
    types = {cert for cert, _ in distinct_types(d, d + 2)}
    assert types == gale_d_plus_2(d)
    assert len(types) == d // 2


@pytest.mark.parametrize("d", range(2, 9))
def test_types_on_d_plus_3_vertices_match_gale_diagrams(d):
    diagrams = gale_d_plus_3_diagrams(d)
    gale = {_gale_d_plus_3_certificate(d, vector) for vector in diagrams}
    # standard Gale diagrams are unique up to rotation and reflection
    assert len(gale) == len(diagrams) == D_PLUS_3[d]
    assert {cert for cert, _ in distinct_types(d, d + 3)} == gale
