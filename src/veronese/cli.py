"""Command-line front end.

Every subcommand reads inline arguments (rationals accept ``p/q``,
integers or decimals, not exponents), writes machine-readable output to
stdout and structured errors to stderr.  Exit codes: 0 success, 2 invalid input, 3 internal
cross-check failure.

The global ``--check`` acts on four commands: ``facets``, ``vertices``
and ``decompose`` compare the four facet characterizations on the
instance (on ``realize(c)`` for a composition), and ``count`` compares
the formula with enumeration.  For a composition, ``facets`` and
``vertices`` also compare the printed answer with that of ``realize(c)``,
label for label.  The other commands accept and ignore it.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

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


def _dimension(text):
    """A --d value: an integer, at least 1."""
    try:
        d = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if d < 1:
        raise argparse.ArgumentTypeError(f"the dimension must be at least 1, got {d}")
    return d


RANGE_CAP = 1000  # the most values an "a..b" range may hold


def _int_range(text, flag):
    """Parse "a..b" (inclusive) or a comma-separated list; a range is
    checked against RANGE_CAP before it is built."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        try:
            lo, hi = int(lo), int(hi)
        except ValueError as exc:
            raise InputError(f"bad range: {text!r}") from exc
        if hi - lo >= RANGE_CAP:
            raise InputError(f"{flag}: {text} holds more than {RANGE_CAP} values")
        return list(range(lo, hi + 1))
    return list(_ints(text))


def _source(args):
    """The command's input: the instance (t_set, xi) of --t/--xi, or the
    composition of --arcs/--dividers.  Exactly one of the two is given;
    --dividers may be left out, since d and the arcs fix it, and a given
    value is checked against them."""
    t, arcs = getattr(args, "t", None), getattr(args, "arcs", None)
    if (t is None) == (arcs is None):
        raise InputError("provide either --t/--xi or --arcs")
    if arcs is not None:
        return CircularComposition(args.d, _ints(arcs), dividers=getattr(args, "dividers", -1))
    if hasattr(args, "dividers"):
        raise InputError("--dividers applies only to a composition (--arcs)")
    if args.xi is None:
        raise InputError("--t requires --xi")
    t_set = GroundSet(_params(t))
    xi = Chart(_rationals(args.xi))
    if xi.d != args.d:
        raise InputError(f"chart has {xi.d + 1} entries, expected {args.d + 1}")
    return t_set, xi


def _on_source(args, on_composition, on_instance):
    """on_composition(c) or on_instance(xi, t_set) of the command's input,
    and with --check the report of cross_check on the instance, or on
    realize(c), else None.  With --check a composition's answer must also
    equal on_instance on realize(c), label for label."""
    source = _source(args)
    if not isinstance(source, CircularComposition):
        t_set, xi = source
        return on_instance(xi, t_set), cross_check(xi, t_set) if args.check else None
    result = on_composition(source)
    if not args.check:
        return result, None
    t_set, xi = realize(source)
    report = cross_check(xi, t_set)
    if on_instance(xi, t_set) != result:
        raise CrossCheckError("the composition's answer differs from its realization's")
    return result, report


def _cmd_facets(args):
    fc, report = _on_source(args, enumerate_facets_circular, enumerate_facets_geometric)
    out = {"facets": fc.facets}
    if report is not None:
        out["check"] = report
    return [out], out["facets"]


def _cmd_vertices(args):
    verts, _ = _on_source(args, vertex_set, vertices_geometric)
    return [{"vertices": list(verts)}], [verts]


def _cmd_decompose(args):
    dec, _ = _on_source(args, None, decompose_chart)  # decompose has no --arcs
    comp = induce_composition(dec)
    out = {
        "sizes": list(dec.sizes),
        "first_sign": dec.first_sign,
        "d": dec.d,
        "arcs": list(comp.arcs),
        "dividers": comp.dividers,
    }
    return [out], [dec.sizes]


def _cmd_chart(args):
    t_set = GroundSet(_params(args.t))
    dec = SignedDecomposition(_ints(args.sizes), args.first_sign, args.d)
    xi = chart_from_decomposition(dec, t_set)
    out = {"xi": [rat_str(x) for x in xi.coords]}
    return [out], [out["xi"]]


def _cmd_count(args):
    c = _source(args)
    out = {"count": facet_count(c)}
    if args.check:
        out["enumerated"] = len(enumerate_facets_circular(c).facets)
        if out["enumerated"] != out["count"]:
            raise CrossCheckError(json.dumps(out))
    return [out], [[out["count"]]]


def _cmd_classify(args):
    out = classify_composition(_source(args))
    return [out], [list(out.values())]


def _cmd_chart_order(args):
    out = {"on_curve": is_power_of_linear_form(_rationals(args.xi), args.d)}
    return [out], [[out["on_curve"]]]


def _cmd_enumerate(args):
    dims, sizes = _int_range(args.d, "--d"), _int_range(args.n, "--n")
    if not dims:
        raise InputError(f"--d: {args.d} selects no dimension")
    if min(dims) < 1:
        raise InputError(f"--d: the dimension must be at least 1, got {min(dims)}")
    if not sizes:
        raise InputError(f"--n: {args.n} selects no vertex count")
    if max(sizes) < min(dims) + 1:
        raise InputError(f"--n: {args.n} has no vertex count n >= d+1 for --d {args.d}")
    rows = table_report(dims, sizes)
    return rows, [("d", "n", "count")] + [(r["d"], r["n"], r["count"]) for r in rows]


def _cmd_certify(args):
    try:
        if args.file == "-":
            raw = sys.stdin.read()
        else:
            with open(args.file) as fh:
                raw = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {args.file}: {exc}") from exc
    try:
        data = json.loads(raw)
        n_labels, d = data["n_labels"], data["d"]
        if not all(isinstance(x, int) and not isinstance(x, bool) for x in (n_labels, d)):
            raise InputError(f"n_labels and d must be integers, got {n_labels!r} and {d!r}")
        fc = FacetComplex(n_labels, d, tuple(tuple(f) for f in data["facets"]))
    except InputError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed facet complex: {exc}") from exc
    out = {"certificate": certificate(fc).hex()}
    return [out], [[out["certificate"]]]


def _emit(payloads, csv_rows, fmt):
    """Print the CSV rows, or each payload as one JSON document."""
    if fmt == "csv":
        for row in csv_rows:
            print(",".join(str(x) for x in row))
    else:
        for payload in payloads:
            print(json.dumps(payload, indent=2 if fmt == "pretty" else None))


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as one JSON error object, exit 2."""

    def error(self, message):
        _fail("invalid-input", message, {"usage": self.format_usage().strip()})
        self.exit(2)


def _with(parser, *arguments):
    """Add (flag, keywords) options to parser; returns the parser."""
    for flag, keywords in arguments:
        parser.add_argument(flag, **keywords)
    return parser


def _required(argument):
    flag, keywords = argument
    return flag, dict(keywords, required=True)


@functools.cache
def build_parser():
    # one parser per process: it does not depend on the argv, and argparse
    # does not change a parser while it parses, so every call of main()
    # shares it (build_parser.__wrapped__ builds a fresh one)
    #
    # the global flags sit on the main parser and on every subparser, so
    # they are accepted on either side of the subcommand; their defaults
    # are suppressed, so a subparser never overwrites a value given before
    # it, and main() supplies the defaults instead
    common = argparse.ArgumentParser(add_help=False,
                                     argument_default=argparse.SUPPRESS)
    common.add_argument("--format", choices=("json", "csv", "pretty"),
                        help="output format (default json)")
    common.add_argument("--check", action="store_true",
                        help="cross-check: facets, vertices and decompose compare "
                             "the four facet characterizations, count compares the "
                             "formula with enumeration (exponential in the number "
                             "of arcs); other commands ignore it")
    parser = _Parser(prog="veronese", parents=[common])
    sub = parser.add_subparsers(dest="command", required=True)

    def parent(*arguments):
        return _with(argparse.ArgumentParser(add_help=False), *arguments)

    def add_command(name, help_text, func, parents, *arguments):
        p = sub.add_parser(name, help=help_text, parents=[common, *parents])
        _with(p, *arguments).set_defaults(func=func)

    # the input options, each declared once; _required marks a command's copy
    t = ("--t", dict(help="comma-separated parameters, e.g. -3,-2,-1,1/2"))
    xi = ("--xi", dict(help="comma-separated chart coefficients"))
    arcs = ("--arcs", dict(help="comma-separated arc sizes"))
    dividers = ("--dividers", dict(
        type=int, default=argparse.SUPPRESS,
        help="number of dividers; may be left out, since d and the arcs fix it: "
             "one per arc, or d mod 2 for a single arc; only with --arcs"))
    dimension = parent(("--d", dict(type=_dimension, required=True,
                                    help="dimension d of the polytope, at least 1")))
    either_source = parent(t, xi, arcs, dividers)
    composition = parent(_required(arcs), dividers)

    add_command("facets", "enumerate facets of an instance or composition",
                _cmd_facets, [dimension, either_source])
    add_command("decompose", "signed decomposition and induced composition",
                _cmd_decompose, [dimension], _required(t), _required(xi))
    add_command("chart", "chart realizing a signed decomposition", _cmd_chart, [dimension],
                ("--sizes", dict(required=True,
                                 help="comma-separated sizes of the constant-sign "
                                      "intervals of q, left to right")),
                ("--first-sign", dict(type=int, default=1,
                                      help="sign of q on the first interval, "
                                           "1 or -1 (default 1)")),
                _required(t))
    add_command("count", "facet count by formula", _cmd_count, [dimension, composition])
    add_command("classify", "named-type flags of a composition", _cmd_classify,
                [dimension, composition])
    add_command("vertices", "vertex labels", _cmd_vertices, [dimension, either_source])
    add_command("chart-order", "is the chart a d-th power of a linear form",
                _cmd_chart_order, [dimension], _required(xi))
    add_command("enumerate", "combinatorial type counts per (d, n)", _cmd_enumerate, [],
                ("--d", dict(required=True, help="dimension or range a..b")),
                ("--n", dict(required=True, help="vertex count or range a..b")))
    add_command("certify", "canonical certificate of a facet complex", _cmd_certify, [],
                ("--file", dict(default="-",
                                help='JSON {"n_labels", "d", "facets"}; "-" reads stdin')))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv, argparse.Namespace(format="json", check=False))
    # argparse before Python 3.12 drops the value of "--opt=--", leaving []
    if [] in vars(args).values():
        parser.error("an option value cannot be '--'")
    try:
        payloads, csv_rows = args.func(args)
    except (InputError, CrossCheckError) as exc:
        _fail(exc.code, str(exc), {"command": args.command})
        return 2 if isinstance(exc, InputError) else 3
    try:
        _emit(payloads, csv_rows, args.format)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (say, ``| head``) and wants no more;
        # point stdout at devnull so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


def _fail(code, message, context):
    print(
        json.dumps({"error": code, "message": message, "context": context}),
        file=sys.stderr,
    )


if __name__ == "__main__":
    sys.exit(main())
