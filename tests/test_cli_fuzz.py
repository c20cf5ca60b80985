"""Generated argv and stdin for ``cli.main``: every run ends in exit 0,
2 or 3, and stderr is empty or holds exactly one JSON error object.
On the same argv, the plain reader builds the Namespace that argparse
builds, or declines."""

import argparse
import io
import json
import random
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, event, example, given, settings, strategies as st

from veronese import chart_from_decomposition, cli, enumerate_facets_circular
from veronese.cli import build_parser, main
from veronese.exact import rat_str

from helpers import random_composition, random_decomposition, random_ground_set

JUNK = st.sampled_from(["", "x", "1/0", "1.5", "--", "0", "-1", "3..1", "1,,2", "1e5"])


def _joined(values):
    return st.lists(values, min_size=1, max_size=10).map(
        lambda xs: ",".join(map(str, xs)))


DIMENSION = st.one_of(st.integers(-1, 6).map(str), JUNK)
RATIONALS = st.one_of(
    _joined(st.fractions(min_value=-20, max_value=20, max_denominator=6)), JUNK)
ARCS = st.one_of(_joined(st.integers(0, 4)), JUNK)
SIGN = st.one_of(st.sampled_from(["1", "-1", "0", "2"]), JUNK)


def _range(lo, hi):
    """A value or an "a..b" range, as `enumerate` takes them."""
    value = st.integers(lo, hi)
    return st.one_of(st.tuples(value, value).map(lambda ab: f"{ab[0]}..{ab[1]}"),
                     value.map(str), JUNK)


# per subcommand: the options it takes and a strategy for each value
OPTIONS = {
    "facets": {"--d": DIMENSION, "--t": RATIONALS, "--xi": RATIONALS,
               "--arcs": ARCS, "--dividers": SIGN},
    "decompose": {"--d": DIMENSION, "--t": RATIONALS, "--xi": RATIONALS},
    "chart": {"--d": DIMENSION, "--sizes": ARCS, "--first-sign": SIGN,
              "--t": RATIONALS},
    "count": {"--d": DIMENSION, "--arcs": ARCS, "--dividers": SIGN},
    "classify": {"--d": DIMENSION, "--arcs": ARCS, "--dividers": SIGN},
    "vertices": {"--d": DIMENSION, "--t": RATIONALS, "--xi": RATIONALS,
                 "--arcs": ARCS, "--dividers": SIGN},
    "chart-order": {"--d": DIMENSION, "--xi": RATIONALS},
    "enumerate": {"--d": _range(-1, 6), "--n": _range(0, 10)},
    "certify": {"--file": st.sampled_from(["-", "no-such-file.json"])},
}
FLAGS = {"count": ["--check"]}
GLOBAL = ["--check", "--format=json", "--format=csv", "--format=pretty",
          "--format=xml", "-h", "--unknown"]

LABEL = st.one_of(st.integers(-1, 10), st.sampled_from([2.5, True, "a", None]))
COMPLEX = st.fixed_dictionaries({
    "n_labels": st.one_of(st.integers(0, 10), st.sampled_from([4.7, True, "4"])),
    "d": st.one_of(st.integers(0, 4), st.sampled_from([2.0, False])),
    "facets": st.lists(st.lists(LABEL, max_size=5), max_size=12),
})
STDIN = st.one_of(
    COMPLEX.map(json.dumps),
    st.sampled_from(["", "{", "[]", "3", '{"n_labels": 3}', "null"]),
)


def _rationals(values):
    return ",".join(rat_str(v) for v in values)


@st.composite
def well_formed(draw):
    """A request the CLI should accept, built from library objects."""
    # one drawn seed: a Random drawn from Hypothesis would spend its
    # entropy on every call and could exceed the data budget
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    command = draw(st.sampled_from(sorted(OPTIONS)))
    d = rng.randint(1, 6)
    n = rng.randint(d + 1, 10)
    t_set = random_ground_set(rng, n)
    dec = random_decomposition(rng, d, n)
    c = random_composition(rng, d, n)
    instance = [f"--t={_rationals(t_set.params)}",
                f"--xi={_rationals(chart_from_decomposition(dec, t_set).coords)}"]
    arcs = [f"--arcs={','.join(map(str, c.arcs))}", f"--dividers={c.dividers}"]
    argv = [command, f"--d={d}"]
    stdin = ""
    if command in ("facets", "vertices"):
        argv += draw(st.sampled_from([instance, arcs, arcs[:1]]))
    elif command == "decompose":
        argv += instance
    elif command == "chart":
        argv += [f"--sizes={','.join(map(str, dec.sizes))}",
                 f"--first-sign={dec.first_sign}", instance[0]]
    elif command in ("count", "classify"):
        argv += arcs
    elif command == "chart-order":
        argv.append(f"--xi={','.join(str(rng.randint(-3, 3)) for _ in range(d + 1))}")
    elif command == "enumerate":
        argv = [command, f"--d={d}", f"--n={n}"]
    else:
        fc = enumerate_facets_circular(c)
        perm = rng.sample(range(n), n)
        stdin = json.dumps({"n_labels": n, "d": d,
                            "facets": [[perm[v] for v in f] for f in fc.facets]})
        argv = [command]
    flags = draw(st.lists(st.sampled_from(["--check", "--format=csv", "--format=pretty"]),
                          max_size=2, unique=True))
    return argv + flags, stdin


@st.composite
def mutated(draw):
    """A well-formed request with one argument replaced by junk."""
    argv, stdin = draw(well_formed())
    i = draw(st.integers(0, len(argv) - 1))
    option = argv[i].split("=", 1)[0]
    argv[i] = f"{option}={draw(JUNK)}" if i else draw(JUNK)
    return argv, stdin


@st.composite
def arbitrary(draw):
    command = draw(st.sampled_from(sorted(OPTIONS) + ["no-such-command"]))
    options = [f"{option}={draw(values)}"
               for option, values in OPTIONS.get(command, {}).items()
               if draw(st.integers(0, 4))]
    options += [flag for flag in FLAGS.get(command, []) if draw(st.booleans())]
    options += draw(st.lists(st.sampled_from(GLOBAL), max_size=1))
    before = draw(st.lists(st.sampled_from(GLOBAL), max_size=1))
    return before + [command] + draw(st.permutations(options)), draw(STDIN)


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(arbitrary(), well_formed(), mutated()))
# a range past the cap, and compositions as deep as d/2 pairs on one arc
# and as 1200 dividers
@example((["enumerate", "--d", "2", "--n", "3..2000000000"], ""))
@example((["facets", "--d", "2000", "--arcs", "2001", "--dividers", "0"], ""))
@example((["facets", "--d", "1200", "--arcs", ",".join(["1"] * 1199 + ["2"])], ""))
# a d = 0 complex, whose only facet is empty
@example((["certify"], '{"n_labels": 0, "d": 0, "facets": [[]]}'))
# JSON nested past the recursion limit
@example((["certify"], "[" * 200_000))
def test_main_honours_the_error_contract(request):
    argv, stdin = request
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        sys.stdin = saved
    event(f"exit {code}")
    assert code in (0, 2, 3), (argv, code)
    lines = err.getvalue().splitlines()
    if code == 0:
        assert lines == []
    else:
        assert len(lines) == 1, lines
        error = json.loads(lines[0])
        assert set(error) == {"error", "message", "context"}


def _split(argv):
    """argv with each "--flag=value" token split into "--flag", "value"."""
    return [part for token in argv
            for part in (token.split("=", 1) if token.startswith("--") else [token])]


@settings(max_examples=2000, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(arbitrary(), well_formed(), mutated()), st.booleans())
def test_plain_reader_builds_what_argparse_builds(request, split):
    argv = _split(request[0]) if split else request[0]
    plain = build_parser().parse_plain(argv)
    event("plain" if plain else "argparse")
    if plain is not None:
        want = build_parser().parse_args(argv, argparse.Namespace(**cli._GLOBAL_DEFAULTS))
        assert vars(plain) == vars(want), argv


@settings(max_examples=500, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(well_formed())
def test_plain_reader_accepts_every_well_formed_request(request):
    assert build_parser().parse_plain(request[0]) is not None, request[0]


COUNT = ["count", "--d", "4", "--arcs", "3,4"]


@pytest.mark.parametrize("argv", [
    ["count", "--ar", "3,4", "--d", "4"],
    ["-h"],
    ["count", "--help"] + COUNT[1:],
    COUNT + ["--"],
    COUNT + ["--d", "5"],
    ["--check=1"] + COUNT,
    ["--d", "4", "count", "--arcs", "3,4"],
    COUNT + ["x"],
    COUNT + ["count"],
    ["--format", "csv"],
    ["--format", "xml"] + COUNT,
    ["count", "--d", "x", "--arcs", "3,4"],
    ["count", "--d", "0", "--arcs", "3,4"],
    COUNT + ["--dividers", "one"],
    ["count", "--arcs", "3,4"],
    COUNT + ["--dividers"],
    ["chart", "--d", "4", "--sizes", "3,4", "--t="],
    ["chart-order", "--d=4", "--xi=--"],
    ["chart", "--d", "1", "--sizes", "1,1", "--t", "-3,-2"],
    ["certify", "--file", "-"],
], ids=["abbreviation", "help", "help-after-command", "double-dash", "repeated-flag",
        "check-with-value", "flag-before-command", "stray-token", "second-command",
        "no-command", "bad-choice", "bad-int", "dimension-0", "bad-dividers",
        "missing-required", "missing-value", "empty-value", "double-dash-value",
        "negative-list-token", "dash-value"])
def test_plain_reader_declines(argv):
    assert build_parser().parse_plain(argv) is None
