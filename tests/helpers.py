"""Shared test oracles and random-instance generators.

Everything here is deliberately independent of the library's own
algorithms: brute-force searches, permutation matching, and direct
definitions, used to validate the fast implementations.  Two
exceptions keep code that the library replaced.  certificate_recursive
is the search that the iterative certificate replaced, kept on the
library's refinement so that the two can be compared node for node, and
root_partition_uniform its root, refined from equal labels where the
library starts from the split by vertex degree.  twins_literal is the
twin search on sorted label tuples and frozenset neighbourhoods that the
bit-mask one replaced.
classify_literal is the certificate-based classification that the
arc-based one replaced, kept on the library's facets and certificates.
With _reference_certificate_literal it is the one certificate-based
classification of the flags, since the library reads every flag off the
arcs; _neighbourly, its test of every floor(d/2)-subset of vertices
against the facets, lives here with it.
q_eval_literal, q_signs_literal, chart_from_decomposition_literal,
ground_set_literal and is_power_of_linear_form_literal are the Fraction
evaluations and comparisons that the integer ones replaced.  chirotope_literal and one_lambda_sign_literal are
the per-subset determinant and the per-parameter count that the shared
elimination and the one-pass sign sweep of the geometric tests replaced;
one_lambda_sweep_literal is that sweep, which the bit-mask predicate of
the lambda test replaced in turn.
s123_decompose_literal is the recursive S1/S2/S3 search that rebuilt the
interval table on every call, which the search on an explicit stack over
tables kept on the decomposition replaced.  rat_literal is the string
parser that sent every string to Fraction, which the int fast path for
"p" and "p/q" replaced.  elementary_symmetric and lambda_eval were library
functions that no library code called any more, kept as oracles.
enumerate_facets_line_literal is the complement walk that the
facet-carrying walk replaced, and enumerate_facets_circular_walk_literal
the walk over divider states that listed composition facets before the
line enumerator served them.  facet_count_series is the transfer matrix
on lists of coefficients that the packed-int one replaced.
dihedral_min_literal is the minimum over all 2L rotations and
reflections that the linear least-rotation search replaced.
type_candidates_literal is the filter over all compositions that the
direct build of the d-divider candidates replaced, and
distinct_types_literal the type enumeration that certified every
candidate, where the library certifies each distinct complex once.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, combinations, permutations
from math import comb, prod

from veronese import (
    S123,
    Chart,
    CircularComposition,
    DegenerateComplexError,
    DimensionMismatchError,
    FacetComplex,
    GroundSet,
    InvalidChartError,
    InvalidDecompositionError,
    InvalidIndexError,
    InvalidInstanceError,
    PointAtInfinityError,
    SignedDecomposition,
    UnderdeterminedInstanceError,
    certificate,
    chart_from_decomposition,
    curve_point,
    enumerate_compositions,
    enumerate_facets_circular,
    induce_composition,
    is_cross_polytope,
    q_eval,
    sign_det,
    vertex_set,
)
from veronese.canonical import _refine
from veronese.exact import sign


def outcome(f, *args):
    """("returned", type, value) of f(*args), or ("raised", type,
    message) of its exception: two functions agree on args when their
    outcomes are equal."""
    try:
        value = f(*args)
    except Exception as exc:
        return "raised", type(exc), str(exc)
    return "returned", type(value), value


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


def random_chart(rng, d, roots):
    """Fractional coefficients of q = prod_{r in roots}(t - r) * p(t)."""
    coords = [Fraction(0)]
    while not any(coords):
        coords = [Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                  for _ in range(d + 1 - len(roots))]
    for r in roots:
        coords = [a - r * b for a, b in zip([Fraction(0)] + coords, coords + [0])]
    return Chart(tuple(coords))


def random_instance(rng, d, n):
    """A ground set and a chart that does not vanish on it, half of them
    realizing a random signed decomposition."""
    t_set = random_ground_set(rng, n)
    if rng.random() < 0.5:
        return chart_from_decomposition(random_decomposition(rng, d, n), t_set), t_set
    xi = random_chart(rng, d, [])
    while any(q_eval(xi, t) == 0 for t in t_set.params):
        xi = random_chart(rng, d, [])
    return xi, t_set


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


def _intervals(decomposition) -> list:
    """interval[p] for p = 1..n; entry 0 is unused."""
    return [None] + [j for j, size in enumerate(decomposition.sizes) for _ in range(size)]


def s123_decompose_literal(decomposition, positions):
    """Decompose a candidate facet S (1-based positions) into the three
    certifying parts, or return None when S is not a facet."""
    interval = _intervals(decomposition)
    d, n = decomposition.d, len(interval) - 1
    positions = list(positions)
    members = set(positions)
    s = sorted(members)
    if len(s) != d or len(s) != len(positions):
        raise DimensionMismatchError(f"expected {d} distinct positions")
    if s and not 1 <= s[0] <= s[-1] <= n:
        raise InvalidIndexError(f"positions out of range 1..{n}")
    # the c-th sign change (0-based) lies between cut[c] and cut[c] + 1
    cut = list(accumulate(decomposition.sizes))[:-1]

    def search(i, s1, s2, s3):
        c = len(s1)
        if c < len(cut) and (i == d or s[i] > cut[c] + 1):
            return None
        if i == d:
            return S123(s1, s2, s3)
        p = s[i]
        found = None
        if c < len(cut) and p >= cut[c]:
            found = search(i + 1, s1 + (p,), s2, s3)
        if found is None and p in (1, n):
            found = search(i + 1, s1, s2 + (p,), s3)
        if found is None and p + 1 in members and interval[p] == interval[p + 1]:
            found = search(i + 2, s1, s2, s3 + ((p, p + 1),))
        return found

    return search(0, (), (), ())


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


def refine_literal(facets, colors):
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


def encode_literal(facets, colors):
    relabeled = sorted(tuple(sorted(colors[v] for v in f)) for f in facets)
    return tuple(relabeled)


def certificate_literal(fc) -> bytes:
    """The orbit-pruned certificate search with a full refinement per
    node, the oracle for the back-jumping incremental one."""
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
            enc = encode_literal(facets, colors)
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
            search(refine_literal(facets, [order[s] for s in branched]), prefix + (v,))

    search(refine_literal(facets, [0] * n), ())
    body = ";".join("-".join(map(str, f)) for f in best[0])
    return f"{n}:{fc.d}:{body}".encode("ascii")


def root_partition_uniform(facets, incidence, weights):
    """The root partition of the certificate search, refined from equal
    labels with the library's label weights: the labels, cells and
    fingerprints that the library's start from vertex degrees must
    reach.  Every fingerprint starts as 0, the empty sum, so that a
    d = 0 complex's empty facet, which no vertex touches, keeps it."""
    n = len(incidence)
    labels, prints = [n - 1] * n, [0] * len(facets)
    cells = {n - 1: list(range(n))} if n > 1 else {}
    _refine(facets, incidence, weights, labels, cells, prints, range(n))
    return labels, cells, prints


def certificate_recursive(fc, seeds=()) -> bytes:
    """The back-jumping certificate search as one recursive closure with a
    global automorphism list, rescanned at every node against its prefix
    and merged over all n vertices: the oracle for the iterative search,
    node for node.  The list starts with `seeds`, automorphisms of the
    vertex-reduced complex given as maps of the vertices they move."""
    if not fc.facets:
        raise DegenerateComplexError("empty facet complex has no certificate")
    fc = fc.restrict_to_vertices()
    n = fc.n_labels
    facets = [tuple(f) for f in fc.facets]
    incidence = [[] for _ in range(n)]
    for i, f in enumerate(facets):
        for v in f:
            incidence[v].append(i)
    weights = [-(fc.d + 1) ** (n - 1 - label) for label in range(n)]
    best = [None, None, None]  # minimal encoding, its leaf's labels and prefix
    automorphisms = [[auto.get(v, v) for v in range(n)] for auto in seeds]

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
            _refine(facets, incidence, weights, child_labels, child_cells, child_prints,
                    [v])
            jump = search(child_labels, child_cells, child_prints, prefix + (v,))
            if jump is not None and jump < len(prefix):
                return jump
        return None

    search(*root_partition_uniform(facets, incidence, weights), ())
    body = ";".join("-".join(map(str, f)) for f in encode_literal(facets, best[1]))
    return f"{n}:{fc.d}:{body}".encode("ascii")


def certificate_unpruned(fc) -> bytes:
    """The certificate search without automorphism pruning: every
    individualization leaf is visited and the minimal encoding kept.
    Factorial on symmetric complexes; the oracle for the pruned search."""
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
            enc = encode_literal(facets, colors)
            if best[0] is None or enc < best[0]:
                best[0] = enc
            return
        for v in range(n):
            if colors[v] != target:
                continue
            branched = [(c, 1) if u != v else (c, 0) for u, c in enumerate(colors)]
            order = {s: i for i, s in enumerate(sorted(set(branched)))}
            search(refine_literal(facets, [order[s] for s in branched]))

    search(refine_literal(facets, [0] * n))
    body = ";".join("-".join(map(str, f)) for f in best[0])
    return f"{n}:{fc.d}:{body}".encode("ascii")


def _maps_into_literal(facets, present, auto, indices):
    """Does `auto`, a map of the vertices it moves, take each facet of
    `indices` to a facet?  Stops at the first that it does not."""
    get = auto.get
    return all(tuple(sorted(map(get, facets[i], facets[i]))) in present
               for i in indices)


def twins_literal(facets, incidence, cells):
    """The twin transpositions and twin-class swaps of the root cells,
    found on sorted label tuples: each facet is mapped vertex by vertex,
    sorted and looked up, and neighbourhoods are frozensets.  The
    library's bit-mask search must return the same lists in the same
    order."""
    present, transpositions, swaps = set(facets), [], []
    for members in cells.values():
        classes, found = {}, []  # a neighbourhood: the classes with it
        for v in sorted(members):
            near = frozenset().union(*[facets[i] for i in incidence[v]])
            keys = near, near - {v}
            for twins in classes.get(keys[0], []) + classes.get(keys[1], []):
                u = twins[-1]
                auto = {u: v, v: u}
                if _maps_into_literal(facets, present, auto,
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
                if _maps_into_literal(facets, present, auto,
                                      {i for w in auto for i in incidence[w]}):
                    swaps.append(auto)
                    group.append(twins)
                    break
            else:
                groups[len(twins)].append([twins])
    return transpositions, swaps


def rat_literal(value) -> Fraction:
    """Parse a rational from an int, Fraction or a "p/q", "p" or decimal
    string; a string with an exponent is refused."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise InvalidChartError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        if "e" in text or "E" in text:
            raise InvalidChartError(
                f"cannot parse rational {value!r}: exponents are refused")
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidChartError(f"cannot parse rational {value!r}") from exc
    raise InvalidChartError(f"cannot parse rational {value!r}")


def elementary_symmetric(values, i: int) -> Fraction:
    """i-th elementary symmetric polynomial of the values, sigma_0 = 1."""
    vals = [Fraction(v) for v in values]
    if not 0 <= i <= len(vals):
        raise IndexError(f"index {i} out of range for {len(vals)} values")
    e = [Fraction(0)] * (i + 1)
    e[0] = Fraction(1)
    for v in vals:
        for j in range(min(i, len(e) - 1), 0, -1):
            e[j] += e[j - 1] * v
    return e[i]


def lambda_eval(xi: Chart, s_values, t) -> Fraction:
    """prod_{s in S}(t-s) / q(t)."""
    t = Fraction(t)
    q = q_eval(xi, t)
    if q == 0:
        raise PointAtInfinityError(f"denominator vanishes at t={t}")
    p = Fraction(1)
    for s in s_values:
        p *= t - Fraction(s)
    return p / q


def q_eval_literal(xi, t) -> Fraction:
    """Horner's rule in Fractions."""
    t = Fraction(t)
    acc = Fraction(0)
    for c in reversed(xi.coords):
        acc = acc * t + c
    return acc


def q_signs_literal(xi, t_set) -> list:
    """sign q(t) at each parameter of T, from q_eval_literal."""
    signs = []
    for t in t_set.params:
        s = sign(q_eval_literal(xi, t))
        if s == 0:
            raise InvalidInstanceError(f"chart vanishes at parameter t={t}")
        signs.append(s)
    return signs


def ground_set_literal(params) -> tuple:
    """The parameters as Fractions, refused unless strictly increasing
    by Fraction comparison."""
    ts = tuple(Fraction(t) for t in params)
    if any(a >= b for a, b in zip(ts, ts[1:])):
        raise InvalidInstanceError("parameters must be strictly increasing")
    return ts


def chart_from_decomposition_literal(dec, t_set):
    """The chart with one root at each gap midpoint, expanded in
    Fractions; the sign is taken with q_eval_literal."""
    if dec.n != t_set.n:
        raise InvalidDecompositionError(
            f"decomposition covers {dec.n} points, ground set has {t_set.n}"
        )
    roots = []
    pos = 0
    for size in dec.sizes[:-1]:
        pos += size
        roots.append((t_set.params[pos - 1] + t_set.params[pos]) / 2)
    # q(t) = prod(t - root), expanded one root at a time: with
    # p(t) = sum p_i t^i, (t - r) p(t) has coefficients p_{i-1} - r p_i
    coeffs = [Fraction(1)] + [Fraction(0)] * dec.d
    for k, root in enumerate(roots, 1):
        for i in range(k, 0, -1):
            coeffs[i] = coeffs[i - 1] - root * coeffs[i]
        coeffs[0] = -root * coeffs[0]
    xi = Chart(tuple(coeffs))
    if sign(q_eval_literal(xi, t_set.params[0])) != dec.first_sign:
        xi = Chart(tuple(-c for c in coeffs))
    return xi


def is_power_of_linear_form_literal(xi, d: int) -> bool:
    """The 2 x 2 minors of c_j = xi_j / C(d,j), in Fractions."""
    coords = [Fraction(x) for x in xi]
    if len(coords) != d + 1:
        raise DimensionMismatchError(
            f"chart has {len(coords)} entries, expected {d + 1}"
        )
    if all(x == 0 for x in coords):
        raise InvalidChartError("all-zero chart")
    c = [coords[j] / comb(d, j) for j in range(d + 1)]
    for i in range(d):
        for j in range(i + 1, d):
            if c[i] * c[j + 1] != c[j] * c[i + 1]:
                return False
    return True


def _check_instance_literal(xi, t_set):
    for t in t_set.params:
        if q_eval(xi, t) == 0:
            raise InvalidInstanceError(f"chart vanishes at parameter t={t}")


def facet_test_lambda_literal(xi, t_set, s_values) -> bool:
    """The lambda test evaluated from its definition for one subset:
    Fraction Horner checks of the instance and lambda_S at every point."""
    s = set(Fraction(v) for v in s_values)
    if len(s) != xi.d:
        raise DimensionMismatchError(f"expected a {xi.d}-subset, got {len(s)} values")
    _check_instance_literal(xi, t_set)
    signs = set(
        sign(lambda_eval(xi, s, t)) for t in t_set.params if t not in s
    )
    return len(signs) == 1 and 0 not in signs


def facet_test_determinant_literal(xi, t_set, s_values) -> bool:
    """The determinant test on the Fraction curve points themselves,
    rebuilt for every determinant."""
    s = sorted(set(Fraction(v) for v in s_values))
    if len(s) != xi.d:
        raise DimensionMismatchError(f"expected a {xi.d}-subset, got {len(s)} values")
    _check_instance_literal(xi, t_set)
    base = [list(curve_point(xi, v)) for v in s]
    signs = set()
    for t in t_set.params:
        if t in s:
            continue
        signs.add(sign_det(base + [list(curve_point(xi, t))]))
    return len(signs) == 1 and 0 not in signs


def chirotope_literal(rows, u) -> int:
    """chi(u): one full Bareiss elimination of the rows of u."""
    return sign_det([rows[i] for i in u])


def one_lambda_sign_literal(q_signs, keys, s) -> bool:
    """Whether sign q(t) * (-1)^#{v in S : v > t} is one sign on T minus
    S, counting the values of S above each parameter anew."""
    signs = {
        q if sum(v > t for v in s) % 2 == 0 else -q
        for t, q in zip(keys, q_signs) if t not in s
    }
    return len(signs) == 1


def one_lambda_sweep_literal(q_signs, keys, s) -> bool:
    """Whether sign lambda_S(t) = sign q(t) * (-1)^#{v in S : v > t} is
    one sign on T minus S.  keys stand for T's parameters in their order
    (the parameters or their indices), and s holds S in the same terms.
    For t outside S, #{v in S : v > t} = |S| - #{v in S : v < t}, so up to
    the common factor (-1)^|S| the sign is sign q(t) times the parity of
    the values of S passed so far: one pass over T that flips the parity
    each time t passes a value of S."""
    ahead = sorted(s, reverse=True)  # the values of S not passed yet, smallest last
    flip = 1
    first = 0
    for t, q in zip(keys, q_signs):
        while ahead and ahead[-1] < t:
            ahead.pop()
            flip = -flip
        if ahead and ahead[-1] == t:
            continue  # t is in S
        if not first:
            first = q * flip
        elif q * flip != first:
            return False
    return first != 0


def pair_choices_literal(n, count, blocked, start, chosen, out):
    """Disjoint consecutive pairs (i, i+1 mod n) avoiding blocked labels,
    by trying every start label: exponential on dividerless compositions."""
    if count == 0:
        out.append(tuple(chosen))
        return
    for i in range(start, n):
        j = (i + 1) % n
        if i in blocked or j in blocked:
            continue
        blocked.add(i)
        blocked.add(j)
        chosen.append((i, j))
        pair_choices_literal(n, count - 1, blocked, i + 1, chosen, out)
        chosen.pop()
        blocked.discard(i)
        blocked.discard(j)


def enumerate_facets_circular_literal(c) -> FacetComplex:
    """All d-subsets picking one point per divider (all distinct) plus
    (d-l)/2 pairwise disjoint consecutive pairs, by a recursive search
    over the divider picks and then over the pairs, deduplicated in a
    set: the oracle for the composition facets."""
    n, d, l = c.n, c.d, c.l
    if n <= d:
        raise UnderdeterminedInstanceError(
            f"need more than d={d} points, got {n}"
        )
    r = (d - l) // 2
    # label pairs {last of arc j, first of arc j+1}, cyclically
    ends = list(accumulate(c.arcs))
    bounds = [(e - m, e - 1) for e, m in zip(ends, c.arcs)]
    dividers = [(bounds[j][1], bounds[(j + 1) % l][0]) for j in range(l)]
    facets = set()

    def choose_divider(j, picked):
        if j == len(dividers):
            out = []
            pair_choices_literal(n, r, set(picked), 0, [], out)
            for pairs in out:
                facet = frozenset(picked).union(*map(frozenset, pairs)) \
                    if pairs else frozenset(picked)
                facets.add(facet)
            return
        for p in dividers[j]:
            if p not in picked:
                picked.append(p)
                choose_divider(j + 1, picked)
                picked.pop()

    choose_divider(0, [])
    return FacetComplex(n, d, tuple(tuple(sorted(f)) for f in facets))


def enumerate_facets_line_literal(decomposition) -> FacetComplex:
    """All facets of the polytope whose chart induces the decomposition,
    found as complements of alternating sequences of length n-d: the
    walk whose stack entries hold the complement prefix, which the
    facet-carrying walk replaced."""
    key = decomposition.line_tables.key
    d, n = decomposition.d, len(key) - 1
    if n <= d:
        raise UnderdeterminedInstanceError(
            f"need more than d={d} generating points, got {n}"
        )
    target = n - d
    complements, stack = [], [()]
    while stack:
        seq = stack.pop()
        if len(seq) == target:
            complements.append(seq)
            continue
        # feasibility: enough positions left to finish the sequence
        for p in range(seq[-1] + 1 if seq else 1, n - (target - len(seq)) + 2):
            if not seq or key[p] != key[seq[-1]]:
                stack.append(seq + (p,))
    full = set(range(1, n + 1))
    facets = [tuple(q - 1 for q in sorted(full.difference(c))) for c in complements]
    return FacetComplex(n, d, tuple(facets))


def _pairs(lo, length, k):
    """Label tuples of k disjoint consecutive pairs in the run of
    length labels from lo, pair i starting at lo + c_i + i."""
    return [tuple(x for i, s in enumerate(c) for x in (lo + s + i, lo + s + i + 1))
            for c in combinations(range(length - k), k)]


def enumerate_facets_circular_walk_literal(c: CircularComposition) -> FacetComplex:
    """All d-subsets picking one point per divider (all distinct) plus
    (d-l)/2 pairwise disjoint consecutive pairs, by a walk over the
    divider states that ``facet_count`` counts: the library's enumerator
    before compositions were served by the line enumerator."""
    n, d, l = c.n, c.d, c.l
    if n <= d:
        raise UnderdeterminedInstanceError(
            f"need more than d={d} points, got {n}"
        )
    r = (d - l) // 2
    if l == 0:
        # the path 0..n-1 holds r pairs, or the wrap pair (n-1, 0) and
        # the path 1..n-2 holds the other r-1
        wrapped = [(0, *pairs, n - 1) for pairs in _pairs(1, n - 2, r - 1)]
        return FacetComplex(n, d, tuple(_pairs(0, n, r) + wrapped))
    arcs = c.arcs
    facets = []
    for closing in (0, 1):  # the state of divider l-1, before arc 0
        # room[j][b]: the most pairs arcs j+1, ..., l-1 can hold when
        # divider j is in state b and the walk closes; -1 if it cannot
        room = [None] * (l - 1) + [(0, -1) if closing == 0 else (-1, 0)]
        for j in range(l - 1, 0, -1):
            # divider j-1 in state a leaves arc j m - p points, p = a + 1 - b
            m, (to0, to1) = arcs[j], room[j]
            room[j - 1] = tuple(
                max((m - a - 1) // 2 + to0 if to0 >= 0 and a < m else -1,
                    (m - a) // 2 + to1 if to1 >= 0 else -1)
                for a in (0, 1))
        # depth-first; a stack entry is the next arc, its first label,
        # the state of the divider before it, the pairs still to place,
        # and the labels the previous arc adds at the given depth of the
        # shared prefix.  Every entry pushed completes to a facet: the
        # k pairs on arc j leave at most room[j][b] for the rest, and
        # p > m or a room of -1 leaves no k at all.
        labels, stack = [], [(0, 0, closing, r, 0, ())]
        while stack:
            j, lo, a, left, depth, chunk = stack.pop()
            del labels[depth:]
            labels += chunk
            m, depth, last = arcs[j], len(labels), j + 1 == l
            head = (lo,) if a else ()
            for b, most in enumerate(room[j]):
                p = a + 1 - b  # arc j's end points taken by its dividers
                tail = () if b else (lo + m - 1,)
                for k in range(max(0, left - most), min(left, (m - p) // 2) + 1):
                    for pairs in _pairs(lo + a, m - p, k) if k else ((),):
                        if last:
                            facets.append((*labels, *head, *pairs, *tail))
                        else:
                            stack.append((j + 1, lo + m, b, left - k, depth,
                                          head + pairs + tail))
    return FacetComplex(n, d, tuple(facets))


def _binom(n, k):
    return comb(n, k) if 0 <= k <= n else 0


def _compositions_nonneg(total, parts):
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _compositions_nonneg(total - first, parts - 1):
            yield (first,) + rest


def facet_count_literal(c) -> int:
    """The facet-count formula as a literal sum: over the consecutive
    pairs per arc and over the interlacing subsets A (no divider pick in
    the arc) and B (two picks) of the arc indices."""
    n, d, l = c.n, c.d, c.l
    if l == 0:
        h = d // 2
        return _binom(n - h, h) + _binom(n - 1 - h, h - 1)
    m = c.arcs
    r = (d - l) // 2
    total = 0
    for rs in _compositions_nonneg(r, l):
        # both all-first-endpoint and all-last-endpoint divider picks
        total += 2 * prod(_binom(m[j] - 1 - rs[j], rs[j]) for j in range(l))
        for q in range(1, l // 2 + 1):
            for support in combinations(range(l), 2 * q):
                for a_set, b_set in (
                    (support[0::2], support[1::2]),
                    (support[1::2], support[0::2]),
                ):
                    term = 1
                    for j in range(l):
                        if j in a_set:
                            term *= _binom(m[j] - rs[j], rs[j])
                        elif j in b_set:
                            term *= _binom(m[j] - 2 - rs[j], rs[j])
                        else:
                            term *= _binom(m[j] - 1 - rs[j], rs[j])
                    total += term
    return total


def _series_mul(a, b):
    """Product of two power series truncated at the length of a."""
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(len(a))]


def facet_count_series(c) -> int:
    """The facet count by the transfer matrix around the circle of
    divider states, on truncated power series as coefficient lists:
    with M_j[a][b] = sum_k C(m_j - p - k, k) x^k, p = a + 1 - b, the
    count is the coefficient of x^r, r = (d - l)/2, in
    trace(M_0 ... M_{l-1}).  Work is O(l r^2)."""
    n, d, l = c.n, c.d, c.l
    if l == 0:
        h = d // 2
        return _binom(n - h, h) + _binom(n - 1 - h, h - 1)
    r = (d - l) // 2
    walk = [[[1] + [0] * r if a == b else [0] * (r + 1) for b in (0, 1)]
            for a in (0, 1)]
    for m in c.arcs:
        arc = [[[_binom(m - (a + 1 - b) - k, k) for k in range(r + 1)]
                for b in (0, 1)] for a in (0, 1)]
        walk = [[[x + y for x, y in zip(_series_mul(walk[a][0], arc[0][b]),
                                         _series_mul(walk[a][1], arc[1][b]))]
                 for b in (0, 1)] for a in (0, 1)]
    return walk[0][0][r] + walk[1][1][r]


@lru_cache(maxsize=128)
def _reference_certificate_literal(kind: str, d: int, nv: int) -> bytes:
    """Certificate of the reference type on nv vertices: "cyclic" is the
    cyclic polytope (dividerless for even d, one divider for odd d),
    "stacked" the stacked family (all but one interval a singleton)."""
    if kind == "cyclic":
        reference = CircularComposition(d, (nv,))
    else:
        sizes = (1,) * (d - 3) + (nv - (d - 3),)
        reference = induce_composition(SignedDecomposition(sizes, 1, d))
    return certificate(enumerate_facets_circular(reference))


def _neighbourly(fc, verts, k: int) -> bool:
    """Every k-subset of verts lies in some facet of fc."""
    facets = [set(f) for f in fc.facets]
    return all(any(set(sub) <= f for f in facets) for sub in combinations(verts, k))


def _classify_literal(c, fc, mine: bytes) -> dict:
    """The flags of c, given its facet complex and its certificate."""
    verts = vertex_set(c)
    nv = len(verts)
    return {
        "vertices": nv,
        "facets": len(fc.facets),
        "simplex": nv == c.d + 1,
        "cross": is_cross_polytope(c),
        "stacked_family": c.d >= 3 and mine == _reference_certificate_literal("stacked", c.d, nv),
        "cyclic": mine == _reference_certificate_literal("cyclic", c.d, nv),
        "neighbourly": c.d < 2 or _neighbourly(fc, verts, c.d // 2),
    }


def classify_literal(c) -> dict:
    """The classification the arc-based classify_composition replaced:
    the facet complex, its certificate compared with the references',
    and every floor(d/2)-subset of vertices tested against the facets."""
    fc = enumerate_facets_circular(c)
    return _classify_literal(c, fc, certificate(fc))


def dihedral_min_literal(arcs: tuple) -> tuple:
    """The least of all rotations of a cyclic sequence and of its
    reverse, each built as a slice."""
    return min(seq[i:] + seq[:i] for seq in (arcs, arcs[::-1]) for i in range(len(seq)))


def type_candidates_literal(d: int, n_vertices: int) -> list:
    """Every composition of n_vertices points, less those with d
    dividers and an arc of more than 2 points."""
    return [c for c in enumerate_compositions(d, n_vertices)
            if c.l < d or max(c.arcs) <= 2]


def distinct_types_literal(d: int, n_vertices: int) -> list:
    """The first candidate per certificate, certifying every candidate,
    sorted by certificate bytes."""
    found = {}
    for c in type_candidates_literal(d, n_vertices):
        found.setdefault(certificate(enumerate_facets_circular(c)), c)
    return sorted(found.items())
