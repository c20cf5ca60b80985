"""Seeded samples of the paper's results beyond the exhaustive ranges of
the acceptance criteria.

Four-way: criterion 2 checks that the four facet characterizations
(lambda test, determinant test, sigma-PA complements, S1/S2/S3) agree
for d 2..6 and n <= 10.  ``test_four_way_beyond_criterion_2`` draws, from
random.Random(7007), six instances for each d in 7..10, with n uniform
in d+1..d+5, by ``helpers.random_instance`` (half of the charts realize
a random signed decomposition, half are random charts that do not
vanish on T).  It runs ``cross_check`` on each, which decides every
d-subset of T four ways: C(15, 10) = 3003 subsets at d = 10, n = 15.
On six subsets per instance it also compares ``facet_test_lambda`` and
``facet_test_determinant`` with their literal oracles: four d-subsets
of T, and two with one value moved off T, to the midpoint of a gap of
T or one past an end of T.

Formula: criterion 3 checks ``facet_count`` against the enumerated
facets for d 2..7 and n <= 12.  ``test_formula_beyond_criterion_3``
draws, from random.Random(2424), d uniform in 8..30 and n uniform in
d+1..d+12, and a composition by ``helpers.random_composition`` (the
divider count uniform over those of d's parity that fit, the cuts
uniform).  A draw whose ``facet_count`` is 10**5 or more is drawn
again; the first 20 others must have ``facet_count`` equal to the
number of facets ``enumerate_facets_circular`` lists.

Bijection: ``test_type_key_classes_are_certificate_classes`` in
test_classify.py checks that types correspond one to one to dihedral
classes of compositions for d 2..7 and n <= d+4.
``test_bijection_beyond_the_exhaustive_range`` draws, from
random.Random(9912), six compositions for each d in 9..12, with n
uniform in d+1..d+8, by ``helpers.random_composition``, and adds to
each its arcs rotated by one place and its arcs reversed: 72
compositions.  Only compositions of one d with as many vertices and
facets can share a type, so in every group of equal (d, vertex count,
``facet_count``) the classes of ``classify.type_key`` must be the
classes of ``certificate``.  Keys of different groups must differ too,
so the check runs over each d's whole row at once, which covers every
group.  Those draws seldom put two keys in one group, so
``test_bijection_where_two_types_could_be_confused`` takes the groups
themselves: it groups the 158 type candidates of d = 9, n = 13
(``canonical._type_candidates``) by vertex count and ``facet_count``,
and keeps the 39 groups that hold two or more keys, 148 keys in all.
It certifies each key's first candidate, that candidate's arcs rotated
by a number of places drawn from random.Random(2613) (1..l-1 for l >= 2
arcs), and its arcs reversed.  In each group, certificates must be
equal exactly for equal keys, over 247 pairs of distinct keys.

The seeds and the ranges were fixed before the tests first ran.  A
failure is a finding: its instance is kept as a named case here and
reported in CHANGES.md.
"""

import random

from veronese import (
    CircularComposition,
    certificate,
    cross_check,
    enumerate_facets_circular,
    facet_count,
    facet_test_determinant,
    facet_test_lambda,
    vertex_set,
)
from veronese.canonical import _type_candidates
from veronese.classify import type_key

from helpers import (
    facet_test_determinant_literal,
    facet_test_lambda_literal,
    outcome,
    random_composition,
    random_instance,
)


def test_four_way_beyond_criterion_2():
    rng = random.Random(7007)
    for d in range(7, 11):
        for _ in range(6):
            xi, t_set = random_instance(rng, d, rng.randint(d + 1, d + 5))
            report = cross_check(xi, t_set)
            assert report["lambda"] == report["determinant"] \
                == report["sigma_pa"] == report["s123"], (xi, t_set)
            params = t_set.params
            off = [params[0] - 1, params[-1] + 1,
                   *((a + b) / 2 for a, b in zip(params, params[1:]))]
            subsets = [rng.sample(params, d) for _ in range(4)]
            subsets += [[rng.choice(off)] + s[1:] for s in subsets[:2]]
            for s in subsets:
                for test, literal in ((facet_test_lambda, facet_test_lambda_literal),
                                      (facet_test_determinant,
                                       facet_test_determinant_literal)):
                    assert outcome(test, xi, t_set, s) \
                        == outcome(literal, xi, t_set, s), (xi, t_set, s, test)


def test_formula_beyond_criterion_3():
    rng = random.Random(2424)
    checked = 0
    while checked < 20:
        d = rng.randint(8, 30)
        c = random_composition(rng, d, rng.randint(d + 1, d + 12))
        count = facet_count(c)
        if count >= 10**5:
            continue
        assert len(enumerate_facets_circular(c).facets) == count, c
        checked += 1


def test_bijection_beyond_the_exhaustive_range():
    rng = random.Random(9912)
    for d in range(9, 13):
        pairs = set()
        for _ in range(6):
            c = random_composition(rng, d, rng.randint(d + 1, d + 8))
            for arcs in (c.arcs, c.arcs[1:] + c.arcs[:1], c.arcs[::-1]):
                drawn = CircularComposition(d, arcs, c.dividers)
                pairs.add((type_key(drawn), certificate(enumerate_facets_circular(drawn))))
        # one key per certificate and back
        keys, certs = zip(*pairs)
        assert len(pairs) == len(set(keys)) == len(set(certs)), d


def test_bijection_where_two_types_could_be_confused():
    rng, d = random.Random(2613), 9
    groups = {}  # (vertex count, facet count): each key's first candidate
    for c in _type_candidates(d, 13):
        groups.setdefault((len(vertex_set(c)), facet_count(c)), {}).setdefault(type_key(c), c)
    confusable = 0  # pairs of distinct keys in one group
    for group in groups.values():
        if len(group) < 2:
            continue
        confusable += len(group) * (len(group) - 1) // 2
        pairs = set()
        for key, c in group.items():
            turn = rng.randrange(1, len(c.arcs)) if len(c.arcs) > 1 else 0
            for arcs in (c.arcs, c.arcs[turn:] + c.arcs[:turn], c.arcs[::-1]):
                drawn = CircularComposition(d, arcs, c.dividers)
                assert type_key(drawn) == key, drawn
                pairs.add((key, certificate(enumerate_facets_circular(drawn))))
        # equal certificates exactly for equal keys
        keys, certs = zip(*pairs)
        assert len(pairs) == len(set(keys)) == len(set(certs)), group
    assert confusable == 247
