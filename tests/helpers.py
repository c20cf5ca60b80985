"""Shared test oracles and random-instance generators.

Everything here is deliberately independent of the library's own
algorithms: brute-force searches, permutation matching, and direct
definitions, used to validate the fast implementations.
"""

from fractions import Fraction
from itertools import combinations, permutations

from veronese import CircularComposition, GroundSet, SignedDecomposition


def random_ground_set(rng, n, span=30, max_den=8):
    vals = set()
    while len(vals) < n:
        vals.add(Fraction(rng.randint(-span, span), rng.randint(1, max_den)))
    return GroundSet(tuple(sorted(vals)))


def random_decomposition(rng, d, n):
    k = rng.randint(0, min(d, n - 1))
    cuts = sorted(rng.sample(range(1, n), k))
    sizes = tuple(b - a for a, b in zip([0] + cuts, cuts + [n]))
    return SignedDecomposition(sizes, rng.choice([1, -1]), d)


def random_composition(rng, d, n):
    l = rng.choice([l for l in range(d % 2, d + 1, 2) if l <= n])
    if l == 0:
        return CircularComposition(d, (n,), dividers=0)
    cuts = sorted(rng.sample(range(1, n), l - 1))
    arcs = tuple(b - a for a, b in zip([0] + cuts, cuts + [n]))
    return CircularComposition(d, arcs)


def brute_force_isomorphic(fc1, fc2) -> bool:
    """Is there a label bijection mapping one facet set onto the other?"""
    a, b = fc1.restrict_to_vertices(), fc2.restrict_to_vertices()
    if a.n_labels != b.n_labels or len(a.facets) != len(b.facets) or a.d != b.d:
        return False
    target = set(frozenset(f) for f in b.facets)
    for perm in permutations(range(a.n_labels)):
        if all(frozenset(perm[v] for v in f) in target for f in a.facets):
            return True
    return False


def exhaustive_s123(decomposition, positions):
    """All valid (S1, S2, S3) splits of S, found by raw search over all
    ways to assign S's elements to the three roles."""
    sizes = decomposition.sizes
    k = len(sizes) - 1
    n = sum(sizes)
    ends, acc = [], 0
    for s in sizes:
        acc += s
        ends.append(acc)
    starts = [e - s + 1 for e, s in zip(ends, sizes)]
    interval = {}
    for j, (a, b) in enumerate(zip(starts, ends), start=1):
        for p in range(a, b + 1):
            interval[p] = j

    s = set(positions)
    found = []
    boundary = [(ends[j - 1], starts[j]) for j in range(1, k + 1)]
    # choose one element per sign change for S1
    from itertools import product

    for picks in product(*boundary) if k else [()]:
        s1 = set(picks)
        if len(s1) != k or not s1 <= s:
            continue
        for s2 in ({1, n}, {1}, {n}, set()):
            if not s2 <= s or s2 & s1:
                continue
            rest = sorted(s - s1 - s2)
            if len(rest) % 2:
                continue
            ok = all(
                b == a + 1 and interval[a] == interval[b]
                for a, b in zip(rest[0::2], rest[1::2])
            )
            if ok:
                found.append((tuple(sorted(s1)), tuple(sorted(s2)),
                              tuple(zip(rest[0::2], rest[1::2]))))
    return found


def gale_evenness_even(n, d, facet) -> bool:
    """Classical evenness for even-dimensional cyclic polytopes: every
    maximal run of the facet avoiding the endpoints has even length."""
    runs, current = [], []
    for i in range(n):
        if i in facet:
            current.append(i)
        elif current:
            runs.append(current)
            current = []
    if current:
        runs.append(current)
    return all(
        len(r) % 2 == 0 for r in runs if r[0] != 0 and r[-1] != n - 1
    )


def all_d_subsets(n, d):
    return combinations(range(n), d)


def certificate_unpruned(fc) -> bytes:
    """The certificate search without automorphism pruning: every
    individualization leaf is visited and the minimal encoding kept.
    Factorial on symmetric complexes; the oracle for the pruned search."""
    from veronese.canonical import _encode, _refine

    fc = fc.restrict_to_vertices()
    n = fc.n_labels
    facets = [tuple(f) for f in fc.facets]
    best = [None]

    def search(colors):
        counts = {}
        for color in colors:
            counts[color] = counts.get(color, 0) + 1
        target = next((c for c in sorted(counts) if counts[c] > 1), None)
        if target is None:
            enc = _encode(facets, colors)
            if best[0] is None or enc < best[0]:
                best[0] = enc
            return
        for v in range(n):
            if colors[v] != target:
                continue
            branched = [(c, 1) if u != v else (c, 0) for u, c in enumerate(colors)]
            order = {s: i for i, s in enumerate(sorted(set(branched)))}
            search(_refine(facets, [order[s] for s in branched]))

    search(_refine(facets, [0] * n))
    body = ";".join("-".join(map(str, f)) for f in best[0])
    return f"{n}:{fc.d}:{body}".encode("ascii")
