"""The three benchmark workloads: seeded input generators, the timed
operation for each input, and output checks that do not trust the code
under test.

Every workload runs in blocks.  A block is drawn from its own random
stream, seeded by (workload, seed, block index), so the same seed always
gives the same inputs however many blocks a run completes.  Library
functions are called through their module (``geometry.q_eval``, not a
name imported here), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, groupby
from math import comb
from pathlib import Path
from time import perf_counter

from veronese import canonical, circular, cli, facets, geometry
from veronese.circular import CircularComposition
from veronese.exact import rat_str
from veronese.geometry import GroundSet, SignedDecomposition

DEFAULT_SEED = 0

# Table 1 of the paper, rows d <= 6: number of combinatorial types with
# n vertices.  The d = 7 row is left out only for run length.
TABLE_1 = {
    3: dict(zip(range(4, 13), (1, 1, 2, 1, 1, 1, 1, 1, 1))),
    4: dict(zip(range(5, 13), (1, 2, 5, 6, 5, 6, 6, 7))),
    5: dict(zip(range(6, 11), (1, 2, 8, 9, 10))),
    6: dict(zip(range(7, 12), (1, 3, 18, 24, 27))),
}


def block_rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{index}")


def digest(records) -> str:
    h = hashlib.sha256()
    for record in records:
        h.update(hashlib.sha256(record).digest())
    return h.hexdigest()


def _json(value) -> bytes:
    return json.dumps(value, sort_keys=True).encode()


# Generators.  random_ground_set, random_decomposition and
# random_composition follow tests/helpers.py draw for draw; they are
# copied so that later edits to the tests cannot change the inputs.

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


def random_composition(rng, d, n, max_arcs=None):
    limit = n if max_arcs is None else min(n, max_arcs)
    l = rng.choice([l for l in range(d % 2, d + 1, 2) if l <= limit])
    if l == 0:
        return CircularComposition(d, (n,), dividers=0)
    cuts = sorted(rng.sample(range(1, n), l - 1))
    arcs = tuple(b - a for a, b in zip([0] + cuts, cuts + [n]))
    return CircularComposition(d, arcs)


def random_instance(rng, d, n):
    t_set = random_ground_set(rng, n)
    dec = random_decomposition(rng, d, n)
    return t_set, dec, geometry.chart_from_decomposition(dec, t_set)


def _sign(value) -> int:
    return (value > 0) - (value < 0)


def _q_signs(coords, params):
    """Signs of q(t) = sum coords[i] t^i, by the harness's own Horner."""
    out = []
    for t in params:
        acc = Fraction(0)
        for c in reversed(coords):
            acc = acc * t + c
        out.append(_sign(acc))
    return out


def _line_facets(sizes, first_sign, d):
    """Facets by the sigma-PA line characterization, the oracle for
    requests answered by the lambda test or by circular enumeration."""
    dec = SignedDecomposition(tuple(sizes), first_sign, d)
    return [list(f) for f in facets.enumerate_facets_line(dec).facets]


def _union(facet_list):
    return sorted(set().union(*map(set, facet_list))) if facet_list else []


class Failure(Exception):
    """A wrong output; the message names the failure class."""


# --------------------------------------------------------------- instances

class Instances:
    """One operation is the ``facets --check`` work for one line
    instance: the lambda test, the determinant test on every d-subset,
    sigma-PA enumeration, S1/S2/S3 on every d-subset and the closed
    facet-count formula.  A block holds one instance per (d, n) with d in
    2..6 and n in d+1..10, so every block carries the same size mix."""

    name = "instances"
    STRATA = tuple((d, n) for d in range(2, 7) for n in range(d + 1, 11))

    def block(self, seed, index):
        rng = block_rng(self.name, seed, index)
        strata = list(self.STRATA)
        rng.shuffle(strata)
        return [random_instance(rng, d, n) for d, n in strata]

    def reference(self):
        # the cheap part of the default seed's first block
        return [i for i in self.block(DEFAULT_SEED, 0) if i[0].n <= 7]

    def run(self, item):
        t_set, _, xi = item
        start = perf_counter()
        subsets = list(combinations(range(t_set.n), xi.d))
        by_lambda = geometry.enumerate_facets_geometric(xi, t_set).facets
        by_det = tuple(
            s for s in subsets
            if geometry.facet_test_determinant(
                xi, t_set, [t_set.params[i] for i in s])
        )
        dec = geometry.decompose_chart(xi, t_set)
        by_line = facets.enumerate_facets_line(dec).facets
        by_s123 = tuple(
            s for s in subsets
            if facets.s123_decompose(dec, [i + 1 for i in s]) is not None
        )
        count = circular.facet_count(circular.induce_composition(dec))
        return (dec, by_lambda, by_det, by_line, by_s123, count), perf_counter() - start

    def check(self, item, result):
        _, expected_dec, _ = item
        dec, by_lambda, by_det, by_line, by_s123, count = result
        if dec != expected_dec:
            raise Failure("decomposition differs from the generated one")
        if not set(by_lambda) == set(by_det) == set(by_line) == set(by_s123):
            raise Failure("facet characterizations disagree")
        if count != len(by_lambda):
            raise Failure("facet-count formula differs from enumeration")
        return _json([[list(f) for f in by_lambda], count])


# ------------------------------------------------------------------- types

class Types:
    """One operation is ``table_report([d], [n])`` for one Table 1 cell
    with d <= 6.  A block is all 27 cells in seeded order, each five
    times except the six that take seconds: the others take under half a
    second, and single timings that short are noisy on a shared CPU.
    With five repeats the tail rank (11th largest) falls among the
    repeats of one cell, (5, 6), instead of between two cells."""

    name = "types"
    CELLS = tuple((d, n) for d, row in TABLE_1.items() for n in row)
    SLOW = ((5, 10), (6, 7), (6, 8), (6, 9), (6, 10), (6, 11))

    def __init__(self, cell_digests):
        self.cell_digests = cell_digests

    def block(self, seed, index):
        cells = [c for c in self.CELLS for _ in range(1 if c in self.SLOW else 5)]
        block_rng(self.name, seed, index).shuffle(cells)
        return cells

    def reference(self):
        return [cell for cell in self.CELLS if cell[0] == 3]

    def run(self, item):
        d, n = item
        start = perf_counter()
        rows = canonical.table_report([d], [n])
        return rows, perf_counter() - start

    def check(self, item, rows):
        d, n = item
        if len(rows) != 1 or (rows[0]["d"], rows[0]["n"]) != (d, n):
            raise Failure("wrong cell")
        row = rows[0]
        if row["count"] != TABLE_1[d][n] or len(row["types"]) != row["count"]:
            raise Failure("type count differs from Table 1")
        record = _json(row)
        expected = self.cell_digests.get(f"{d},{n}")
        if expected is not None and hashlib.sha256(record).hexdigest() != expected:
            raise Failure("cell output differs from the recorded bytes")
        return record


# ----------------------------------------------------------------- cli_mix

@dataclass
class CliResult:
    code: int
    out: str
    err: str
    escaped: str | None  # class of an exception that escaped main()


def call_cli(argv, stdin=""):
    """Run ``cli.main(argv)`` in-process with captured streams.  An
    exception escaping main() is recorded, as the exit code 1 and
    traceback a real process would give, never raised."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    escaped = None
    try:
        with redirect_stdout(out), redirect_stderr(err):
            start = perf_counter()
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                # as the interpreter maps sys.exit(None / int / message)
                code = (0 if exc.code is None
                        else exc.code if isinstance(exc.code, int) else 1)
            except Exception as exc:
                code, escaped = 1, type(exc).__name__
            elapsed = perf_counter() - start
    finally:
        sys.stdin = saved
    return CliResult(code, out.getvalue(), err.getvalue(), escaped), elapsed


def error_contract_violation(res: CliResult):
    """None when a rejected request honours the CLI contract: exit 2 or
    3, nothing on stdout, exactly one JSON error object on stderr."""
    if res.escaped:
        return f"{res.escaped} escaped main()"
    if res.code not in (2, 3):
        return f"exit {res.code}"
    if res.out:
        return "output on stdout"
    lines = res.err.splitlines()
    try:
        obj = json.loads(lines[0]) if len(lines) == 1 else None
    except ValueError:
        obj = None
    if not (isinstance(obj, dict) and "error" in obj):
        return "stderr is not one JSON error object"
    return None


@dataclass
class Request:
    kind: str
    argv: list
    stdin: str = ""
    expect: object = None


def _params(t_set):
    return ",".join(rat_str(t) for t in t_set.params)


def _coords(values):
    return ",".join(rat_str(Fraction(x)) for x in values)


def _arcs_args(c):
    args = ["--arcs", ",".join(map(str, c.arcs))]
    return args + ["--dividers", "0"] if c.l == 0 else args


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _nonzero(rng, bound=4):
    return rng.choice([v for v in range(-bound, bound + 1) if v])


def _gen_instance_request(command):
    def gen(rng):
        d = rng.randint(2, 5)
        t_set, dec, xi = random_instance(rng, d, rng.randint(d + 1, 8))
        argv = [command, "--d", str(d), f"--t={_params(t_set)}",
                f"--xi={_coords(xi.coords)}"]
        return Request(command + "_instance", argv, expect=dec)
    return gen


def _gen_arcs_request(command):
    def gen(rng):
        d = rng.randint(2, 6)
        c = random_composition(rng, d, rng.randint(d + 1, 10))
        return Request(command + "_arcs", [command, "--d", str(d)] + _arcs_args(c),
                       expect=c)
    return gen


def _gen_chart(rng):
    d = rng.randint(2, 12)
    n = rng.randint(d + 1, d + 4)
    t_set = random_ground_set(rng, n)
    dec = random_decomposition(rng, d, n)
    argv = ["chart", "--d", str(d), "--sizes", ",".join(map(str, dec.sizes)),
            "--first-sign", str(dec.first_sign), f"--t={_params(t_set)}"]
    return Request("chart", argv, expect=(t_set, dec))


def _gen_chart_order(rng):
    d = rng.randint(2, 12)
    if rng.random() < 0.5:
        # c (a + b t)^d is a d-th power of a linear form
        a, b, c = _nonzero(rng), _nonzero(rng), _nonzero(rng)
        xi = [c * comb(d, i) * a ** (d - i) * b ** i for i in range(d + 1)]
        expected = True
    else:
        # (t - r1)^(d-1) (t - r2) with r1 != r2 is not
        r1, r2 = rng.sample(range(-5, 6), 2)
        xi = [1]
        for _ in range(d - 1):
            xi = _poly_mul(xi, [-r1, 1])
        xi = _poly_mul(xi, [-r2, 1])
        expected = False
    argv = ["chart-order", "--d", str(d), f"--xi={_coords(xi)}"]
    return Request("chart_order", argv, expect=expected)


def _gen_count(rng):
    d = rng.randint(2, 12)
    c = random_composition(rng, d, rng.randint(d + 1, d + 4), max_arcs=8)
    return Request("count", ["count", "--d", str(d)] + _arcs_args(c), expect=c)


def _gen_classify(rng):
    d = rng.randint(2, 4)
    c = random_composition(rng, d, rng.randint(d + 1, 8))
    return Request("classify", ["classify", "--d", str(d)] + _arcs_args(c), expect=c)


def _gen_certify(rng):
    d = rng.randint(2, 4)
    c = random_composition(rng, d, rng.randint(d + 1, 8))
    fc = circular.enumerate_facets_circular(c).restrict_to_vertices()
    perm = rng.sample(range(fc.n_labels), fc.n_labels)
    relabeled = [sorted(perm[v] for v in f) for f in fc.facets]
    rng.shuffle(relabeled)
    stdin = json.dumps({"n_labels": fc.n_labels, "d": d, "facets": relabeled})
    return Request("certify", ["certify"], stdin=stdin, expect=fc)


def _gen_malformed(rng):
    """Input the CLI rejects, in a class it handles today (exit 2 with
    one JSON error object).  The classes it does not handle yet are in
    KNOWN_DEFECTS and are probed outside the timed stream."""
    d = rng.randint(2, 5)
    t_set, _, xi = random_instance(rng, d, rng.randint(d + 1, 8))
    ts, xs = f"--t={_params(t_set)}", f"--xi={_coords(xi.coords)}"
    t0 = t_set.params[rng.randrange(t_set.n)]
    variants = {
        "facets_without_source": (["facets", "--d", str(d)], ""),
        "t_without_xi": (["vertices", "--d", str(d), ts], ""),
        "unparsable_rational": (
            ["facets", "--d", str(d), ts.replace(",", ",1/0,", 1), xs], ""),
        "decreasing_parameters": (
            ["decompose", "--d", str(d),
             "--t=" + ",".join(rat_str(t) for t in reversed(t_set.params)), xs], ""),
        "chart_vanishes_on_parameter": (
            ["facets", "--d", str(d), ts,
             f"--xi={_coords([-t0, 1] + [0] * (d - 1))}"], ""),
        "chart_length_mismatch": (
            ["decompose", "--d", str(d), ts, f"--xi={_coords(xi.coords[:-1])}"], ""),
        "divider_parity": (
            ["count", "--d", str(d), "--arcs", ",".join(["2"] * (d - 1))], ""),
        "non_integer_arcs": (["count", "--d", str(d), "--arcs", "2,x"], ""),
        "too_few_points": (["count", "--d", str(d), "--arcs", ",".join(["1"] * d)], ""),
        "certify_not_json": (["certify"], '{"n_labels": 3, "d": 2, "facets": [[0, 1]'),
        "certify_wrong_facet_size": (
            ["certify"], json.dumps({"n_labels": 4, "d": 3, "facets": [[0, 1, 2], [1, 3]]})),
        "chart_order_wrong_length": (
            ["chart-order", "--d", str(d), "--xi", ",".join(["1"] * d)], ""),
        "chart_order_zero_chart": (
            ["chart-order", "--d", str(d), "--xi", ",".join(["0"] * (d + 1))], ""),
    }
    variant = rng.choice(sorted(variants))
    argv, stdin = variants[variant]
    return Request("malformed", argv, stdin=stdin, expect=variant)


GENERATORS = {
    "facets_instance": _gen_instance_request("facets"),
    "vertices_instance": _gen_instance_request("vertices"),
    "decompose_instance": _gen_instance_request("decompose"),
    "facets_arcs": _gen_arcs_request("facets"),
    "vertices_arcs": _gen_arcs_request("vertices"),
    "chart": _gen_chart,
    "chart_order": _gen_chart_order,
    "count": _gen_count,
    "classify": _gen_classify,
    "certify": _gen_certify,
    "malformed": _gen_malformed,
}


def _check_payload(req: Request, data):
    """Compare one successful reply with an answer from a different
    characterization, or with the input's own construction."""
    kind, e = req.kind, req.expect
    if kind in ("facets_instance", "vertices_instance"):
        want = _line_facets(e.sizes, e.first_sign, e.d)
        ok = data == ({"facets": want} if kind.startswith("facets")
                      else {"vertices": _union(want)})
    elif kind == "decompose_instance":
        comp = circular.induce_composition(e)
        ok = data == {"sizes": list(e.sizes), "first_sign": e.first_sign,
                      "d": e.d, "arcs": list(comp.arcs), "dividers": comp.dividers}
    elif kind in ("facets_arcs", "vertices_arcs"):
        # a composition realized on the line with its arcs as intervals
        # has the same facets, label for label
        want = _line_facets(e.arcs if e.l else (e.n,), 1, e.d)
        ok = data == ({"facets": want} if kind.startswith("facets")
                      else {"vertices": _union(want)})
    elif kind == "chart":
        t_set, dec = e
        coords = [Fraction(x) for x in data["xi"]]
        signs = _q_signs(coords, t_set.params)
        sizes = tuple(len(list(g)) for _, g in groupby(signs))
        ok = (len(coords) == dec.d + 1 and 0 not in signs
              and sizes == dec.sizes and signs[0] == dec.first_sign)
    elif kind == "chart_order":
        ok = data == {"on_curve": e}
    elif kind == "count":
        ok = data == {"count": len(circular.enumerate_facets_circular(e).facets)}
    elif kind == "classify":
        fc = circular.enumerate_facets_circular(e).facets
        verts = _union([list(f) for f in fc])
        k = e.d // 2
        neighbourly = all(any(set(s) <= set(f) for f in fc)
                          for s in combinations(verts, k))
        ok = (set(data) == {"vertices", "facets", "simplex", "cross",
                            "stacked_family", "cyclic", "neighbourly"}
              and data["facets"] == circular.facet_count(e)
              and data["vertices"] == len(verts)
              and data["simplex"] == (len(verts) == e.d + 1)
              and data["neighbourly"] == neighbourly)
    elif kind == "certify":
        # certificates are invariant under the relabeling applied to the input
        ok = data == {"certificate": canonical.certificate(e).hex()}
    else:
        raise ValueError(f"unknown request kind {kind}")
    if not ok:
        raise Failure("wrong output")


class CliMix:
    """Closed-loop stream of short requests to ``cli.main(argv)``.  A
    block holds each request kind in the fixed count of ``shares``."""

    name = "cli_mix"

    def __init__(self, shares):
        unknown = set(shares) - set(GENERATORS)
        if unknown:
            raise ValueError(f"no generator for request kinds {sorted(unknown)}")
        self.shares = shares

    def block(self, seed, index):
        rng = block_rng(self.name, seed, index)
        kinds = [k for k in sorted(self.shares) for _ in range(self.shares[k])]
        rng.shuffle(kinds)
        return [GENERATORS[k](rng) for k in kinds]

    def reference(self):
        return self.block(DEFAULT_SEED, 0)

    def run(self, req):
        return call_cli(req.argv, req.stdin)

    def check(self, req, res):
        if req.kind == "malformed":
            problem = error_contract_violation(res)
            if problem:
                raise Failure(f"{req.expect}: {problem}")
            # the error text may improve; only the exit code is pinned
            return _json([req.kind, res.code])
        if res.escaped or res.code != 0 or res.err:
            raise Failure(f"{req.kind}: exit {res.code}"
                          + (f", {res.escaped} escaped main()" if res.escaped else ""))
        try:
            _check_payload(req, json.loads(res.out))
        except (Failure, ValueError, KeyError, TypeError) as exc:
            raise Failure(f"{req.kind}: wrong output") from exc
        return _json([req.kind, res.code, res.out])


# Input classes ROADMAP item 4 lists as breaking the CLI error contract.
# They are probed once per cli_mix run, outside the timed stream, and
# reported by class.
KNOWN_DEFECTS = {
    "certify_label_out_of_range": (
        ["certify"], json.dumps({"n_labels": 4, "d": 3, "facets": [[0, 1, 2], [0, 1, 7]]})),
    "certify_label_negative": (
        ["certify"], json.dumps({"n_labels": 4, "d": 3, "facets": [[-1, 1, 2], [0, 1, 3]]})),
    "certify_missing_file": (
        ["certify", "--file", str(Path(__file__).with_name("no-such-input.json"))], ""),
    "usage_error_bad_int": (["facets", "--d", "x"], ""),
    "usage_error_unknown_command": (["no-such-command"], ""),
    "usage_error_missing_option": (["count", "--arcs", "3,4"], ""),
}


def probe_known_defects():
    """Class -> None if the input now gets a JSON error, else what went wrong."""
    return {
        name: error_contract_violation(call_cli(argv, stdin)[0])
        for name, (argv, stdin) in KNOWN_DEFECTS.items()
    }


def make(name, spec):
    w = spec["workloads"][name]
    if name == "instances":
        return Instances()
    if name == "types":
        return Types(w.get("cell_digests", {}))
    if name == "cli_mix":
        return CliMix(w["shares"])
    raise ValueError(f"unknown workload {name}")
