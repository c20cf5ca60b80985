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

``main`` reads a plain argv without argparse (``_Parser.parse_plain``):
one command, the global flags on either side of it, and after it the
command's own flags, each spelled in full and given at most once, as
``--flag value`` or ``--flag=value``.  Every other argv (an abbreviation,
``-h``, ``--``, a repeated flag, a value that argparse would refuse or
might read as a flag) goes to argparse, which alone writes usage and
error text.  ``build_parser`` declares the flags once, as plain data;
the plain reader's tables come from it, and so does the argparse
parser, which is built, and argparse imported, only when the plain
reader first declines an argv.  A well-formed argv loads no argparse.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from types import SimpleNamespace

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
    """A --d value: an integer, at least 1.  A bad value raises argparse's
    ArgumentTypeError, whose message argparse prints; argparse is imported
    only then, as the plain reader then leaves the argv to argparse."""
    try:
        if (d := int(text)) >= 1:
            return d
        message = f"the dimension must be at least 1, got {d}"
    except ValueError:
        message = f"invalid int value: {text!r}"
    import argparse
    raise argparse.ArgumentTypeError(message)


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
        return CircularComposition(args.d, _ints(arcs), getattr(args, "dividers", None))
    if getattr(args, "dividers", None) is not None:
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
    out = {"xi": list(xi.coords)}  # Fractions, written by _emit
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
    except (KeyError, TypeError, ValueError, RecursionError) as exc:  # deep nesting too
        raise InputError(f"malformed facet complex: {exc}") from exc
    out = {"certificate": certificate(fc).hex()}
    return [out], [[out["certificate"]]]


# the writer of each JSON format; a Fraction is written as its rat_str
_JSON = {fmt: json.JSONEncoder(indent=indent, default=rat_str).encode
         for fmt, indent in (("json", None), ("pretty", 2))}


def _emit(payloads, csv_rows, fmt):
    """Print the CSV rows (a Fraction as its str, which is its rat_str),
    or each payload as one JSON document.  Answers are exact at any size:
    CPython's limit on the digits of an int made a str (3.10.7 and later)
    is lifted while they are written, so it guards the input alone."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        if fmt == "csv":
            for row in csv_rows:
                print(",".join(str(x) for x in row))
        else:
            for payload in payloads:
                print(_JSON[fmt](payload))
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


# the values of the global flags when they are not given; argparse
# suppresses their defaults (see _Parser._argparse)
_GLOBAL_DEFAULTS = {"format": "json", "check": False}

# argparse's values of the keywords a flag's declaration leaves out
_KEYWORD_DEFAULTS = dict(action=None, choices=None, type=None, required=False, default=None)


def _table(arguments):
    """Per flag of the (flag, argparse keywords) arguments, its dest and
    its keywords, argparse's defaults filling in those not given."""
    return {flag: SimpleNamespace(**{**_KEYWORD_DEFAULTS, **keywords},
                                  dest=flag[2:].replace("-", "_"))
            for flag, keywords in arguments}


class _Parser:
    """Reads an argv against the flag declaration of build_parser.

    ``global_flags`` maps a global flag to its entry (see _table), and
    ``commands`` maps a command to its func and the entries of its flags,
    the global ones included.  parse_plain reads only these tables;
    parse_args hands the argv to argparse."""

    def __init__(self, global_flags, commands):
        self.declaration = global_flags, commands
        self.global_flags = _table(global_flags)
        self.commands = {name: (func, {**self.global_flags, **_table(arguments)})
                         for name, _, func, arguments in commands}

    def parse_plain(self, argv):
        """The namespace that parse_args builds from a plain argv: one
        command, the global flags on either side of it, and after it its
        own flags, each given at most once; every flag spelled in full, as
        "--flag value" or "--flag=value".  None for any other argv, or for
        a value that is empty, "--", not a choice or not convertible;
        parse_args then reads the argv, and argparse alone writes usage
        and error text.

        A value in a token of its own may start with "-" only if ASCII
        digits follow: no option here looks like a negative number, so
        argparse reads "-1" as a value but "-3,-2" as an option."""
        values = dict(_GLOBAL_DEFAULTS)
        command, flags = None, self.global_flags
        tokens = iter(argv)
        for token in tokens:
            if command is None and token in self.commands:
                command = token
                func, flags = self.commands[token]
                continue
            flag, eq, value = token.partition("=")
            entry = flags.get(flag)
            # a global flag may come again, and the last one holds, as in argparse
            if entry is None or entry.dest in values and flag not in self.global_flags:
                return None
            if entry.action == "store_true":  # --check takes no value
                if eq:
                    return None
                values[entry.dest] = True
                continue
            if not eq:
                value = next(tokens, "")
                if value[:1] == "-" and not (value[1:].isdigit() and value.isascii()):
                    return None
            if value in ("", "--") or entry.choices and value not in entry.choices:
                return None
            try:
                values[entry.dest] = entry.type(value) if entry.type else value
            except Exception:  # a refused value, ArgumentTypeError included, is argparse's
                return None
        if command is None:
            return None
        for entry in flags.values():
            if entry.dest not in values:
                if entry.required:
                    return None
                values[entry.dest] = entry.default
        return SimpleNamespace(command=command, func=func, **values)

    def parse_args(self, argv, namespace):
        """argparse's reading of argv into namespace, which holds the
        global defaults; a usage error exits 2 with one JSON error."""
        args = self._argparse.parse_args(argv, namespace)
        # argparse before Python 3.13 reads "--opt=--" as [], and 3.13 as
        # "--"; both are refused alike
        if [] in vars(args).values() or "--" in vars(args).values():
            self._argparse.error("an option value cannot be '--'")
        return args

    @functools.cached_property
    def _argparse(self):
        """The argparse parser of the declaration, built on first use.

        The global flags sit on the main parser and on every subparser, so
        they are accepted on either side of the subcommand; their defaults
        are suppressed, so a subparser never overwrites a value given
        before it."""
        import argparse

        class UsageParser(argparse.ArgumentParser):
            def error(self, message):  # one JSON error object, exit 2
                _fail("invalid-input", message, {"usage": self.format_usage().strip()})
                self.exit(2)

        global_flags, commands = self.declaration
        common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
        for flag, keywords in global_flags:
            common.add_argument(flag, **keywords)
        parser = UsageParser(prog="veronese", parents=[common])
        sub = parser.add_subparsers(dest="command", required=True)
        for name, help_text, func, arguments in commands:
            p = sub.add_parser(name, help=help_text, parents=[common])
            p.set_defaults(func=func)
            for flag, keywords in arguments:
                p.add_argument(flag, **keywords)
        return parser


def _required(argument):
    return argument[0], dict(argument[1], required=True)


@functools.cache
def build_parser():
    # one reader per process: it does not depend on the argv, and neither
    # it nor its argparse parser changes while it parses, so every call of
    # main() shares it (build_parser.__wrapped__ builds a fresh one)
    #
    # each flag is declared once, as (flag, argparse keywords), and each
    # command as (name, help, func, its flags)
    global_flags = (
        ("--format", dict(choices=("json", "csv", "pretty"),
                          help="output format (default json)")),
        ("--check", dict(action="store_true", help="cross-check: facets, vertices and "
                         "decompose compare the four facet characterizations, count "
                         "compares the formula with enumeration (exponential in the "
                         "number of arcs); other commands ignore it")))
    # the input options, each declared once; _required marks a command's copy
    t = ("--t", dict(help="comma-separated parameters, e.g. -3,-2,-1,1/2"))
    xi = ("--xi", dict(help="comma-separated chart coefficients"))
    arcs = ("--arcs", dict(help="comma-separated arc sizes"))
    dividers = ("--dividers", dict(type=int, help="number of dividers; may be left out, "
                                   "since d and the arcs fix it: one per arc, or d mod 2 "
                                   "for a single arc; only with --arcs"))
    dimension = ("--d", dict(type=_dimension, required=True,
                             help="dimension d of the polytope, at least 1"))
    either_source = (dimension, t, xi, arcs, dividers)
    composition = (dimension, _required(arcs), dividers)
    return _Parser(global_flags, (
        ("facets", "enumerate facets of an instance or composition",
         _cmd_facets, either_source),
        ("decompose", "signed decomposition and induced composition",
         _cmd_decompose, (dimension, _required(t), _required(xi))),
        ("chart", "chart realizing a signed decomposition", _cmd_chart, (dimension,
            ("--sizes", dict(required=True, help="comma-separated sizes of the "
                             "constant-sign intervals of q, left to right")),
            ("--first-sign", dict(type=int, default=1, help="sign of q on the first "
                                  "interval, 1 or -1 (default 1)")),
            _required(t))),
        ("count", "facet count by formula", _cmd_count, composition),
        ("classify", "named-type flags of a composition", _cmd_classify, composition),
        ("vertices", "vertex labels", _cmd_vertices, either_source),
        ("chart-order", "is the chart a d-th power of a linear form",
         _cmd_chart_order, (dimension, _required(xi))),
        ("enumerate", "combinatorial type counts per (d, n)", _cmd_enumerate, (
            ("--d", dict(required=True, help="dimension or range a..b")),
            ("--n", dict(required=True, help="vertex count or range a..b")))),
        ("certify", "canonical certificate of a facet complex", _cmd_certify, (
            ("--file", dict(default="-",
                            help='JSON {"n_labels", "d", "facets"}; "-" reads stdin')),)),
    ))


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    args = parser.parse_plain(argv) or parser.parse_args(argv, SimpleNamespace(**_GLOBAL_DEFAULTS))
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
