"""Command-line front end.

Every subcommand reads inline arguments (rationals accept ``p/q`` or
integers), writes machine-readable output to stdout and structured
errors to stderr.  Exit codes: 0 success, 2 invalid input, 3 internal
cross-check failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial

from .canonical import certificate, table_report
from .circular import (
    CircularComposition,
    enumerate_facets_circular,
    facet_count,
    induce_composition,
    realize,
    vertex_set,
)
from .classify import classify_composition
from .errors import CrossCheckError, InputError, InvalidChartError
from .exact import is_power_of_linear_form, rat, rat_str
from .facets import FacetComplex
from .geometry import (
    Chart,
    GroundSet,
    SignedDecomposition,
    chart_from_decomposition,
    cross_check,
    decompose_chart,
    enumerate_facets_geometric,
    vertices_geometric,
)


def _rationals(text):
    return tuple(rat(part) for part in text.split(","))


def _params(text):
    """The --t parameters; a bad one is bad input, not a bad chart."""
    try:
        return _rationals(text)
    except InvalidChartError as exc:
        raise InputError(f"--t: {exc}") from exc


def _ints(text):
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise InputError(f"expected comma-separated integers: {text!r}") from exc


def _int_range(text):
    """Parse "a..b" (inclusive) or a comma-separated list."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        try:
            return list(range(int(lo), int(hi) + 1))
        except ValueError as exc:
            raise InputError(f"bad range: {text!r}") from exc
    return list(_ints(text))


def _instance(args):
    t_set = GroundSet(_params(args.t))
    xi = Chart(_rationals(args.xi))
    if xi.d != args.d:
        raise InputError(f"chart has {xi.d + 1} entries, expected {args.d + 1}")
    return t_set, xi


def _composition(args):
    dividers = args.dividers if args.dividers is not None else -1
    return CircularComposition(args.d, _ints(args.arcs), dividers=dividers)


def _emit(payload, fmt, csv_rows=None):
    if fmt == "csv" and csv_rows is not None:
        for row in csv_rows:
            print(",".join(str(x) for x in row))
    elif fmt == "pretty":
        print(json.dumps(payload, indent=2))
    else:
        print(json.dumps(payload))


def _cmd_facets(args):
    if args.t is not None:
        t_set, xi = _instance(args)
        fc = enumerate_facets_geometric(xi, t_set)
        out = {"facets": [list(f) for f in fc.facets]}
        if args.check:
            out["check"] = cross_check(xi, t_set)
    else:
        c = _composition(args)
        fc = enumerate_facets_circular(c)
        out = {"facets": [list(f) for f in fc.facets]}
        if args.check:
            t_set, xi = realize(c)
            out["check"] = cross_check(xi, t_set)
    _emit(out, args.format, csv_rows=out["facets"])


def _cmd_decompose(args):
    t_set, xi = _instance(args)
    dec = decompose_chart(xi, t_set)
    comp = induce_composition(dec)
    out = {
        "sizes": list(dec.sizes),
        "first_sign": dec.first_sign,
        "d": dec.d,
        "arcs": list(comp.arcs),
        "dividers": comp.dividers,
    }
    if args.check:
        cross_check(xi, t_set)
    _emit(out, args.format, csv_rows=[dec.sizes])


def _cmd_chart(args):
    t_set = GroundSet(_params(args.t))
    dec = SignedDecomposition(_ints(args.sizes), args.first_sign, args.d)
    xi = chart_from_decomposition(dec, t_set)
    out = {"xi": [rat_str(x) for x in xi.coords]}
    _emit(out, args.format, csv_rows=[out["xi"]])


def _cmd_count(args):
    c = _composition(args)
    out = {"count": facet_count(c)}
    if args.verify:
        out["enumerated"] = len(enumerate_facets_circular(c).facets)
        if out["enumerated"] != out["count"]:
            raise CrossCheckError(json.dumps(out))
    _emit(out, args.format, csv_rows=[[out["count"]]])


def _cmd_classify(args):
    c = _composition(args)
    out = classify_composition(c)
    _emit(out, args.format, csv_rows=[list(out.values())])


def _cmd_vertices(args):
    if args.t is not None:
        t_set, xi = _instance(args)
        verts = vertices_geometric(xi, t_set)
        if args.check:
            cross_check(xi, t_set)
    else:
        verts = vertex_set(_composition(args))
    out = {"vertices": list(verts)}
    _emit(out, args.format, csv_rows=[verts])


def _cmd_chart_order(args):
    xi = _rationals(args.xi)
    out = {"on_curve": is_power_of_linear_form(xi, args.d)}
    _emit(out, args.format, csv_rows=[[out["on_curve"]]])


def _cmd_enumerate(args):
    rows = table_report(_int_range(args.d), _int_range(args.n))
    if args.format == "csv":
        print("d,n,count")
        for row in rows:
            print(f"{row['d']},{row['n']},{row['count']}")
    elif args.format == "pretty":
        for row in rows:
            print(json.dumps(row, indent=2))
    else:
        for row in rows:
            print(json.dumps(row))


def _cmd_certify(args):
    if args.file == "-":
        raw = sys.stdin.read()
    else:
        try:
            with open(args.file) as fh:
                raw = fh.read()
        except OSError as exc:
            raise InputError(f"cannot read {args.file}: {exc}") from exc
    try:
        data = json.loads(raw)
        n_labels, d = data["n_labels"], data["d"]
        if not all(isinstance(x, int) and not isinstance(x, bool) for x in (n_labels, d)):
            raise InputError(f"n_labels and d must be integers, got {n_labels!r} and {d!r}")
        fc = FacetComplex(n_labels, d, tuple(tuple(f) for f in data["facets"]))
    except InputError:
        raise
    except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        raise InputError(f"malformed facet complex: {exc}") from exc
    cert = certificate(fc.restrict_to_vertices())
    out = {"certificate": cert.hex()}
    _emit(out, args.format, csv_rows=[[out["certificate"]]])


def _add_instance_args(p, with_arcs):
    p.add_argument("--t", required=not with_arcs,
                   help="comma-separated parameters, e.g. -3,-2,-1,1/2")
    p.add_argument("--xi", required=not with_arcs,
                   help="comma-separated chart coefficients")
    if with_arcs:
        p.add_argument("--arcs", help="comma-separated arc sizes")
        p.add_argument("--dividers", type=int, default=None)


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as one JSON error object, exit 2."""

    def error(self, message):
        _fail("invalid-input", message, {"usage": self.format_usage().strip()})
        self.exit(2)


def build_parser():
    # the global flags sit on the main parser and on every subparser, so
    # they are accepted on either side of the subcommand; their defaults
    # are suppressed, so a subparser never overwrites a value given before
    # it, and main() supplies the defaults instead
    common = argparse.ArgumentParser(add_help=False,
                                     argument_default=argparse.SUPPRESS)
    common.add_argument("--format", choices=("json", "csv", "pretty"))
    common.add_argument("--check", action="store_true",
                        help="verify the four facet characterizations agree")
    parser = _Parser(prog="veronese", parents=[common])
    sub = parser.add_subparsers(dest="command", required=True)
    add_command = partial(sub.add_parser, parents=[common])

    p = add_command("facets", help="enumerate facets of an instance or composition")
    p.add_argument("--d", type=int, required=True)
    _add_instance_args(p, with_arcs=True)
    p.set_defaults(func=_cmd_facets)

    p = add_command("decompose", help="signed decomposition and induced composition")
    p.add_argument("--d", type=int, required=True)
    _add_instance_args(p, with_arcs=False)
    p.set_defaults(func=_cmd_decompose)

    p = add_command("chart", help="chart realizing a signed decomposition")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--sizes", required=True)
    p.add_argument("--first-sign", type=int, default=1, dest="first_sign")
    p.add_argument("--t", required=True)
    p.set_defaults(func=_cmd_chart)

    p = add_command("count", help="facet count by formula")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--arcs", required=True)
    p.add_argument("--dividers", type=int, default=None)
    p.add_argument("--verify", action="store_true")
    p.set_defaults(func=_cmd_count)

    p = add_command("classify", help="named-type flags of a composition")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--arcs", required=True)
    p.add_argument("--dividers", type=int, default=None)
    p.set_defaults(func=_cmd_classify)

    p = add_command("vertices", help="vertex labels")
    p.add_argument("--d", type=int, required=True)
    _add_instance_args(p, with_arcs=True)
    p.set_defaults(func=_cmd_vertices)

    p = add_command("chart-order", help="is the chart a d-th power of a linear form")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--xi", required=True)
    p.set_defaults(func=_cmd_chart_order)

    p = add_command("enumerate", help="combinatorial type counts per (d, n)")
    p.add_argument("--d", required=True, help="dimension or range a..b")
    p.add_argument("--n", required=True, help="vertex count or range a..b")
    p.set_defaults(func=_cmd_enumerate)

    p = add_command("certify", help="canonical certificate of a facet complex")
    p.add_argument("--file", default="-",
                   help='JSON {"n_labels", "d", "facets"}; "-" reads stdin')
    p.set_defaults(func=_cmd_certify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv, argparse.Namespace(format="json", check=False))
    # argparse before Python 3.12 drops the value of "--opt=--", leaving []
    if [] in vars(args).values():
        parser.error("an option value cannot be '--'")
    if args.command in ("facets", "vertices"):
        if (args.t is None) == (args.arcs is None):
            _fail("invalid-input", "provide either --t/--xi or --arcs", {})
            return 2
        if args.t is not None and args.xi is None:
            _fail("invalid-input", "--t requires --xi", {})
            return 2
    try:
        args.func(args)
    except InputError as exc:
        _fail(exc.code, str(exc), {"command": args.command})
        return 2
    except CrossCheckError as exc:
        _fail("cross-check-failure", str(exc), {"command": args.command})
        return 3
    return 0


def _fail(code, message, context):
    print(
        json.dumps({"error": code, "message": message, "context": context}),
        file=sys.stderr,
    )


if __name__ == "__main__":
    sys.exit(main())
