import pytest
from helpers import classify_literal

from veronese import (
    CircularComposition,
    certificate,
    classify_composition,
    distinct_types,
    enumerate_compositions,
    enumerate_facets_circular,
    facet_count,
    is_cross_polytope,
    vertex_set,
)


def _flag(name, d, arcs, dividers=None):
    """The certificate oracle's flag `name` for the composition."""
    return classify_literal(CircularComposition(d, arcs, dividers))[name]


def test_is_simplex():
    assert _flag("simplex", 3, (1, 1, 2))
    assert _flag("simplex", 4, (1, 1, 1, 4))
    assert _flag("simplex", 4, (5,), dividers=0)
    assert not _flag("simplex", 4, (3, 4))


def test_is_cross_polytope():
    c = CircularComposition(4, (2, 3, 2, 3))
    assert is_cross_polytope(c)
    assert len(enumerate_facets_circular(c).facets) == 16
    assert is_cross_polytope(CircularComposition(3, (2, 2, 2)))
    assert not is_cross_polytope(CircularComposition(3, (1, 2, 2)))
    assert not is_cross_polytope(CircularComposition(4, (3, 4)))


def test_cross_polytope_structure():
    # whenever recognized: 2^d facets on 2d vertices
    for d, arcs in [(3, (2, 2, 3)), (4, (2, 2, 2, 2)), (5, (2, 3, 2, 2, 4))]:
        c = CircularComposition(d, arcs)
        assert is_cross_polytope(c)
        assert facet_count(c) == 2 ** d
        assert len(vertex_set(c)) == 2 * d


def test_is_stacked_family():
    assert _flag("stacked_family", 4, (1, 9))
    assert _flag("stacked_family", 4, (9, 1))
    assert facet_count(CircularComposition(4, (1, 9))) == 20
    assert not _flag("stacked_family", 4, (10,), dividers=0)
    assert not _flag("stacked_family", 4, (2, 8))
    # the family is defined from d = 3 on
    assert not _flag("stacked_family", 2, (5,), dividers=0)


def test_stacked_facet_counts():
    # the family hits the lower-bound facet count (d-1)n - (d+1)(d-2)
    from veronese import SignedDecomposition, induce_composition

    for d in (3, 4, 5, 6):
        for n in range(d + 2, 13):
            sizes = (1,) * (d - 3) + (n - (d - 3),)
            c = induce_composition(SignedDecomposition(sizes, 1, d))
            assert classify_literal(c)["stacked_family"]
            assert facet_count(c) == (d - 1) * n - (d + 1) * (d - 2)


def test_is_k_neighbourly():
    # the flag is floor(d/2)-neighbourliness: 2 at d = 4 and d = 5
    assert _flag("neighbourly", 4, (9,), dividers=0)
    assert _flag("neighbourly", 5, (9,))
    assert not _flag("neighbourly", 4, (3, 4))
    assert _flag("neighbourly", 4, (2, 4))


def test_two_even_arcs_not_neighbourly():
    # d even >= 4, two arcs, n > d+2: never neighbourly
    for d in (4, 6):
        for n in range(d + 3, d + 7):
            for first in range(1, n // 2 + 1):
                c = CircularComposition(d, (first, n - first))
                assert not classify_literal(c)["neighbourly"]


def test_is_cyclic_type():
    assert _flag("cyclic", 3, (7,))
    assert _flag("cyclic", 3, (1, 2, 2))
    assert _flag("cyclic", 4, (2, 4))
    assert not _flag("cyclic", 4, (3, 3))
    assert not _flag("cyclic", 3, (2, 2, 2))


def test_three_dimensional_dichotomy():
    for n in range(4, 11):
        for _, c in distinct_types(3, n):
            assert classify_literal(c)["cyclic"] or is_cross_polytope(c)


def test_simplex_facet_count():
    for d, arcs in [(3, (1, 1, 4)), (4, (1, 1, 1, 3)), (5, (1, 1, 1, 1, 2))]:
        c = CircularComposition(d, arcs)
        if classify_literal(c)["simplex"]:
            assert facet_count(c) == d + 1


def test_classify_output_shape():
    out = classify_composition(CircularComposition(4, (3, 4)))
    assert out == {
        "vertices": 7,
        "facets": 12,
        "simplex": False,
        "cross": False,
        "stacked_family": False,
        "cyclic": False,
        "neighbourly": False,
    }


@pytest.mark.parametrize("d, n", [(2, 5), (3, 7), (4, 9), (5, 12)])
def test_classify_counts_the_facets_of_its_own_cyclic_reference_once(monkeypatch, d, n):
    # the single arc (n,) is its own cyclic reference, so `facets` and
    # the neighbourliness comparison share one facet count
    from veronese import classify

    count, calls = classify.facet_count, []

    def counting_facet_count(c):
        calls.append(c)
        return count(c)

    monkeypatch.setattr(classify, "facet_count", counting_facet_count)
    flags = classify_composition(CircularComposition(d, (n,)))
    assert flags["cyclic"] and flags["neighbourly"]
    assert len(calls) == 1


def test_classify_flags_match_the_recognizers():
    from veronese.canonical import _type_candidates

    for d in range(3, 6):
        for n in range(d + 1, 10):
            for c in _type_candidates(d, n):
                flags, oracle = classify_composition(c), classify_literal(c)
                assert flags["stacked_family"] == oracle["stacked_family"], c
                assert flags["cyclic"] == oracle["cyclic"], c


def test_classify_matches_the_certificate_classification():
    for d in range(1, 7):
        for n in range(d + 1, d + 6):
            for c in enumerate_compositions(d, n):
                arcs = c.arcs[1:] + c.arcs[:1]
                for case in (c, CircularComposition(d, arcs), CircularComposition(d, arcs[::-1])):
                    assert classify_composition(case) == classify_literal(case), case


def test_type_key_classes_are_certificate_classes():
    from veronese.canonical import _type_candidates
    from veronese.classify import type_key

    for d in range(2, 8):
        for n in range(d + 1, d + 5):
            pairs = {(type_key(c), certificate(enumerate_facets_circular(c)))
                     for c in _type_candidates(d, n)}
            keys, certs = zip(*pairs)
            # the pairing is a bijection: one key per certificate and back
            assert len(pairs) == len(set(keys)) == len(set(certs)), (d, n)
