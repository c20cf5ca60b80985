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

The seeds and the ranges were fixed before the tests first ran.  A
failure is a finding: its instance is kept as a named case here and
reported in CHANGES.md.
"""

import random

from veronese import (
    cross_check,
    enumerate_facets_circular,
    facet_count,
    facet_test_determinant,
    facet_test_lambda,
)

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
