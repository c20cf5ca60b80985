import random
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

import veronese.geometry as geometry
from veronese import (
    DimensionMismatchError,
    FacetComplex,
    InvalidIndexError,
    SignedDecomposition,
    UnderdeterminedInstanceError,
    enumerate_facets_line,
    is_sigma_pa,
    s123_decompose,
)
from veronese.facets import build_line_tables

from helpers import (
    exhaustive_s123,
    gale_evenness_even,
    random_decomposition,
    s123_decompose_literal,
)

DEC_EXAMPLE = SignedDecomposition((3, 4), 1, 4)


def test_facet_complex_canonical_order():
    fc = FacetComplex(4, 2, ((2, 1), (0, 1), (1, 2)))
    assert fc.facets == ((0, 1), (1, 2))
    assert fc.vertex_labels == (0, 1, 2)


def test_facet_complex_restrict():
    fc = FacetComplex(6, 2, ((1, 4), (4, 5)))
    small = fc.restrict_to_vertices()
    assert small.n_labels == 3
    assert small.facets == ((0, 1), (1, 2))


def test_facet_complex_validation():
    with pytest.raises(DimensionMismatchError):
        FacetComplex(4, 3, ((0, 1),))
    with pytest.raises(IndexError):
        FacetComplex(3, 2, ((0, 5),))


@pytest.mark.parametrize("label", [2.5, 2.0, True, "2", None])
def test_facet_complex_rejects_non_integer_labels(label):
    with pytest.raises(InvalidIndexError):
        FacetComplex(4, 3, ((0, 1, label), (0, 1, 3)))


def test_is_sigma_pa_examples():
    assert is_sigma_pa(DEC_EXAMPLE, (1, 2, 3))
    # positions 4 and 6: same sign, same parity
    assert not is_sigma_pa(DEC_EXAMPLE, (4, 6, 7))


def test_is_sigma_pa_trivial_decomposition():
    dec = SignedDecomposition((6,), 1, 4)
    for seq in combinations(range(1, 7), 3):
        parity_alternating = all(
            (a - b) % 2 == 1 for a, b in zip(seq, seq[1:])
        )
        assert is_sigma_pa(dec, seq) == parity_alternating


def test_is_sigma_pa_errors():
    with pytest.raises(IndexError):
        is_sigma_pa(DEC_EXAMPLE, (0, 1))
    with pytest.raises(IndexError):
        is_sigma_pa(DEC_EXAMPLE, (3, 2))


def test_enumerate_facets_line_example():
    fc = enumerate_facets_line(DEC_EXAMPLE)
    assert len(fc.facets) == 12
    assert (3, 4, 5, 6) in fc.facets
    assert (0, 1, 2, 4) not in fc.facets


def test_enumerate_facets_line_cyclic_even():
    # one interval, even d: classical evenness condition
    dec = SignedDecomposition((7,), 1, 4)
    fc = enumerate_facets_line(dec)
    assert len(fc.facets) == 14
    expected = tuple(sorted(
        f for f in combinations(range(7), 4) if gale_evenness_even(7, 4, set(f))
    ))
    assert fc.facets == expected


def test_enumerate_facets_line_on_many_points():
    # d = 1 on 1100 points: the complements are alternating sequences of
    # 1099 positions, which a call frame per position could not reach
    fc = enumerate_facets_line(SignedDecomposition((1100,), 1, 1))
    assert fc.facets == ((0,), (1099,))


def test_enumerate_facets_line_underdetermined():
    with pytest.raises(UnderdeterminedInstanceError):
        enumerate_facets_line(SignedDecomposition((2, 2), 1, 4))


def test_s123_examples():
    out = s123_decompose(DEC_EXAMPLE, (4, 5, 6, 7))
    assert out is not None
    assert out.s1 == (4,) and out.s2 == (7,) and out.s3 == ((5, 6),)
    assert s123_decompose(DEC_EXAMPLE, (1, 2, 3, 5)) is None


def test_s123_pairs_only():
    dec = SignedDecomposition((8,), 1, 4)
    out = s123_decompose(dec, (2, 3, 5, 6))
    assert out is not None
    assert out.s1 == () and out.s2 == () and out.s3 == ((2, 3), (5, 6))


def test_s123_arity():
    with pytest.raises(DimensionMismatchError):
        s123_decompose(DEC_EXAMPLE, (1, 2, 3))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5), st.integers(0, 10 ** 6))
def test_s123_matches_exhaustive_search(d, seed):
    rng = random.Random(seed)
    n = rng.randint(d + 1, 9)
    dec = random_decomposition(rng, d, n)
    facets = set(enumerate_facets_line(dec).facets)
    for subset in combinations(range(1, n + 1), d):
        constructed = s123_decompose(dec, subset)
        assert constructed == s123_decompose_literal(dec, subset)
        found = exhaustive_s123(dec, subset)
        key = tuple(p - 1 for p in subset)
        if key in facets:
            # decomposition exists, is unique, and matches the search
            assert len(found) == 1
            assert constructed is not None
            assert (constructed.s1, constructed.s2, constructed.s3) == found[0]
        else:
            assert constructed is None
            assert found == []


def test_line_characterizations_agree_on_every_small_case():
    # size-1 intervals at positions 1 and n, where the S1/S2/S3 search
    # branches, are reached here deterministically
    subsets = 0
    for d in range(1, 6):
        for n in range(d + 1, 9):
            for k in range(min(d, n - 1) + 1):
                for cuts, sign in product(combinations(range(1, n), k), (1, -1)):
                    sizes = tuple(b - a for a, b in zip((0,) + cuts, cuts + (n,)))
                    dec = SignedDecomposition(sizes, sign, d)
                    facets = set(enumerate_facets_line(dec).facets)
                    for subset in combinations(range(1, n + 1), d):
                        subsets += 1
                        complement = sorted(set(range(1, n + 1)) - set(subset))
                        is_facet = tuple(p - 1 for p in subset) in facets
                        assert is_sigma_pa(dec, complement) == is_facet
                        constructed = s123_decompose(dec, subset)
                        assert constructed == s123_decompose_literal(dec, subset)
                        found = exhaustive_s123(dec, subset)
                        if is_facet:
                            assert len(found) == 1
                            assert constructed is not None
                            assert (constructed.s1, constructed.s2,
                                    constructed.s3) == found[0]
                        else:
                            assert constructed is None and found == []
    assert subsets == 50684


def test_line_tables_are_built_once_per_decomposition(monkeypatch):
    built = []

    def counting(sizes):
        built.append(sizes)
        return build_line_tables(sizes)

    monkeypatch.setattr(geometry, "build_line_tables", counting)
    dec = SignedDecomposition((3, 4), 1, 4)
    enumerate_facets_line(dec)
    for subset in combinations(range(1, 8), 4):
        s123_decompose(dec, subset)
        is_sigma_pa(dec, sorted(set(range(1, 8)) - set(subset)))
    assert built == [(3, 4)]
    twin = SignedDecomposition([3, 4], 1, 4)
    assert twin == dec and twin.line_tables is not dec.line_tables
    assert twin.line_tables == dec.line_tables == (
        (None, 0, 0, 0, 1, 1, 1, 1),
        (None, 1, 0, 1, 1, 0, 1, 0),
        (3,),
    )
    assert built == [(3, 4), (3, 4)]


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 5), st.integers(0, 10 ** 6))
def test_sign_flip_invariance(d, seed):
    rng = random.Random(seed)
    n = rng.randint(d + 1, 9)
    dec = random_decomposition(rng, d, n)
    flipped = SignedDecomposition(dec.sizes, -dec.first_sign, d)
    assert enumerate_facets_line(dec).facets \
        == enumerate_facets_line(flipped).facets
