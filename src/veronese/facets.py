"""Combinatorial facet characterizations on the line.

Two equivalent descriptions of the facets of a polytope generated along
a chart curve, both phrased purely in terms of the signed decomposition
of the parameter set:

* complements of facets are exactly the sign/parity-alternating index
  sequences (``is_sigma_pa`` / ``enumerate_facets_line``),
* a d-subset is a facet iff it splits uniquely into boundary choices,
  extreme endpoints and consecutive pairs (``s123_decompose``).

Both read one table, ``interval[p]``: the 0-based interval of the 1-based
position p.  Signs alternate between intervals, so two positions a < b
carry equal signs iff interval[a] and interval[b] have equal parity, and
they break the alternation rule (equal signs iff equal parities) iff their
parity keys ``(a + interval[a]) % 2`` and ``(b + interval[b]) % 2`` agree.
A sequence is sigma-PA iff its keys alternate; the first sign drops out.
``build_line_tables`` makes the O(n) tables: interval, the parity keys and
the cut points of the sign changes.  ``SignedDecomposition.line_tables``
builds them once per decomposition and keeps them, so each d-subset then
costs O(d log d) in ``s123_decompose`` (sorting S), and a sequence costs
its length in ``is_sigma_pa``.

The split is found by one left-to-right search over sorted S, on an
explicit stack.  Each element is the pick of the next unpicked sign
change (one of the two points beside it), an endpoint 1 or n, or the
first of a pair with the next position of its interval, tried in that
order.  A branch dies as soon as the scan passes both points of the next
sign change, so away from positions 1 and n at most one role of an
element survives its first node; the search visits at most 2d+1 nodes
(checked on every decomposition with d <= 7, n <= 10).

``enumerate_facets_line`` builds the facets point by point, depth first
on an explicit stack.  Each step places the next facet point q and sends
the run of positions before it to the complement, as long as the run
keeps the complement alternating; the first break in the run ends the
step, since every later q would contain it.  A branch ends at once when
either side is full.  A full complement sends the rest of the line to
the facet.  A full facet sends the rest to the complement, which then
alternates iff the rest starts with a key other than the complement's
last and no sign change lies inside it.  Every entry costs O(d) and a
branch holds at most d + 1 of them, however long the line.

Positions are 1-based internally (the parity conditions are stated for
1-based sequences); everything exported through JSON is 0-based.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from itertools import accumulate, chain

from .errors import (
    DimensionMismatchError,
    InvalidIndexError,
    UnderdeterminedInstanceError,
)


class Value:
    """An immutable value: equality, hash and repr over the attributes
    named in ``fields``, as a frozen dataclass gives them.  Assignment
    raises, so ``_assign`` sets the fields with ``object.__setattr__``,
    as a dataclass does: on CPython 3.11 and later that stores the values
    without building the instance dict that ``self.__dict__`` would.
    ``cached_property`` writes the instance ``__dict__`` directly."""

    fields = ()

    def _assign(self, *values) -> None:
        """Set the fields, in the order of ``fields``, to values."""
        for name, value in zip(self.fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self.fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    # Hashing a tuple of Fractions rehashes every Fraction, and the
    # determinant memo's lru_cache hashes the chart and the ground set on
    # every call, so the hash is kept.  cached_property writes the
    # instance __dict__ directly, past the __setattr__ that makes a Value
    # immutable.
    @cached_property
    def _hash(self) -> int:
        return hash(self._values())

    def __hash__(self):
        return self._hash

    def __repr__(self):
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.fields)
        return f"{self.__class__.__qualname__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class FacetComplex(Value):
    """A set of d-subsets of {0,...,n_labels-1}, stored canonically."""

    fields = ("n_labels", "d", "facets")

    def __init__(self, n_labels: int, d: int, facets: tuple):
        # one C-level pass collects the label types; the culprit is looked
        # for only on failure
        if not all(issubclass(k, int) and k is not bool
                   for k in set(map(type, chain.from_iterable(facets)))):
            bad = next(v for v in chain.from_iterable(facets)
                       if not isinstance(v, int) or isinstance(v, bool))
            raise InvalidIndexError(f"label {bad!r} is not an integer")
        canon = tuple(sorted(set(tuple(sorted(f)) for f in facets)))
        for f in canon:
            if len(f) != d or len(set(f)) != d:
                raise DimensionMismatchError(
                    f"facet {f} does not have {d} distinct elements"
                )
            if f and (f[0] < 0 or f[-1] >= n_labels):
                raise InvalidIndexError(f"facet {f} out of label range")
        self._assign(n_labels, d, canon)

    @classmethod
    def _trusted(cls, n_labels: int, d: int, facets) -> "FacetComplex":
        """The complex of facets the library produced itself, each a
        sorted tuple of d labels in range and no two equal: only the list
        is sorted.  Outside input goes through the checks of __init__."""
        self = cls.__new__(cls)
        self._assign(n_labels, d, tuple(sorted(facets)))
        return self

    @property
    def vertex_labels(self):
        """Sorted labels that appear in at least one facet."""
        return tuple(sorted(set().union(*self.facets)))

    def restrict_to_vertices(self) -> "FacetComplex":
        """Relabel onto 0..m-1 where m is the number of used labels."""
        verts = self.vertex_labels
        if len(verts) == self.n_labels:
            return self
        # the relabeling keeps the order, so each facet stays sorted
        new = {v: i for i, v in enumerate(verts)}
        return FacetComplex._trusted(
            len(verts), self.d, [tuple(new[v] for v in f) for f in self.facets])


# The tables both line tests read, indexed by 1-based position p (entry 0
# is unused): interval[p], 0-based; the parity key (p + interval[p]) % 2;
# and cut, where the c-th sign change lies between cut[c] and cut[c] + 1.
LineTables = namedtuple("LineTables", "interval key cut")


def build_line_tables(sizes) -> LineTables:
    """The line tables of a decomposition with these interval sizes."""
    interval = (None, *(j for j, size in enumerate(sizes) for _ in range(size)))
    key = (None, *((p + j) % 2 for p, j in enumerate(interval[1:], 1)))
    return LineTables(interval, key, tuple(accumulate(sizes))[:-1])


def is_sigma_pa(decomposition, positions) -> bool:
    """Test the alternation condition for an increasing 1-based sequence:
    consecutive entries carry equal decomposition signs iff their
    positions have different parities."""
    key = decomposition.line_tables.key
    n = len(key) - 1
    seq = list(positions)
    if any(not 1 <= p <= n for p in seq):
        raise InvalidIndexError(f"positions out of range 1..{n}: {seq}")
    if any(a >= b for a, b in zip(seq, seq[1:])):
        raise InvalidIndexError(f"positions not strictly increasing: {seq}")
    return all(key[a] != key[b] for a, b in zip(seq, seq[1:]))


def enumerate_facets_line(decomposition) -> FacetComplex:
    """All facets of the polytope whose chart induces the decomposition,
    found as complements of alternating sequences of length n-d (see the
    module docstring)."""
    _, key, cut = decomposition.line_tables
    d, n = decomposition.d, len(key) - 1
    if n <= d:
        raise UnderdeterminedInstanceError(
            f"need more than d={d} generating points, got {n}"
        )
    # a stack entry is (facet, last, prev): positions up to last are
    # placed, the facet holds the 0-based labels of its own, and prev is
    # the complement's last position (0 before the first; key[0] is None)
    end = cut[-1] if cut else 0
    facets, stack = [], [((), 0, 0)]
    while stack:
        facet, last, prev = stack.pop()
        if len(facet) == d:  # facet full: the rest joins the complement
            if key[last + 1] != key[prev] and end <= last:
                facets.append(facet)
            continue
        top = n - d + len(facet) + 1  # a facet point past top overfills the complement
        for q in range(last + 1, top + 1):
            if q > last + 1:  # q - 1 joins the complement after prev
                if key[q - 1] == key[prev]:
                    break
                prev = q - 1
            if q == top:  # complement full: the rest joins the facet
                facets.append(facet + tuple(range(q - 1, n)))
            else:
                stack.append((facet + (q - 1,), q, prev))
    return FacetComplex._trusted(n, d, facets)


class S123(Value):
    """Facet certificate: boundary picks, extreme endpoints, pairs."""

    fields = ("s1", "s2", "s3")

    def __init__(self, s1: tuple, s2: tuple, s3: tuple):
        # s3 is a tuple of (a, a+1) position pairs
        self._assign(s1, s2, s3)


def s123_decompose(decomposition, positions):
    """Decompose a candidate facet S (1-based positions) into the three
    certifying parts, or return None when S is not a facet."""
    interval, _, cut = decomposition.line_tables
    d, n = decomposition.d, len(interval) - 1
    positions = list(positions)
    members = set(positions)
    s = sorted(members)
    if len(s) != d or len(s) != len(positions):
        raise DimensionMismatchError(f"expected {d} distinct positions")
    if s and not 1 <= s[0] <= s[-1] <= n:
        raise InvalidIndexError(f"positions out of range 1..{n}")
    changes = len(cut)
    # a node is (i, s1, s2, s3): s[:i] placed; the roles of s[i] are
    # pushed in reverse, so the pick at the next sign change is tried
    # first, then an endpoint, then a pair
    stack = [(0, (), (), ())]
    while stack:
        i, s1, s2, s3 = stack.pop()
        c = len(s1)
        if c < changes and (i == d or s[i] > cut[c] + 1):
            continue
        if i == d:
            return S123(s1, s2, s3)
        p = s[i]
        if p + 1 in members and interval[p] == interval[p + 1]:
            stack.append((i + 2, s1, s2, s3 + ((p, p + 1),)))
        if p == 1 or p == n:
            stack.append((i + 1, s1, s2 + (p,), s3))
        if c < changes and p >= cut[c]:
            stack.append((i + 1, s1 + (p,), s2, s3))
    return None
