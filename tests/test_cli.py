import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from veronese import (CircularComposition, FacetComplex, cli, enumerate_facets_circular,
                      q_eval)
from veronese.cli import main

SRC = str(Path(__file__).resolve().parent.parent / "src")
EXAMPLE = ["facets", "--d", "4", "--t=-3,-2,-1,1,2,3,4", "--xi=0,-1,0,0,0"]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_facets_instance(capsys):
    code, out, err = run(capsys, EXAMPLE)
    assert code == 0 and err == ""
    facets = json.loads(out)["facets"]
    assert len(facets) == 12
    assert [3, 4, 5, 6] in facets


def test_facets_check(capsys):
    code, out, _ = run(capsys, EXAMPLE + ["--check"])
    assert code == 0
    data = json.loads(out)
    check = data["check"]
    assert set(check) == {"lambda", "determinant", "sigma_pa", "s123"}
    assert check["lambda"] == check["determinant"] == check["sigma_pa"] \
        == check["s123"] == data["facets"]


def test_facets_composition(capsys):
    code, out, _ = run(capsys, ["facets", "--d", "4", "--arcs", "3,4", "--check"])
    assert code == 0
    assert len(json.loads(out)["facets"]) == 12


def test_count_check(capsys):
    code, out, _ = run(capsys, ["count", "--d", "4", "--arcs", "3,4", "--check"])
    assert code == 0
    assert json.loads(out) == {"count": 12, "enumerated": 12}


def test_decompose(capsys):
    code, out, _ = run(capsys, ["decompose", "--d", "4",
                                "--t=-3,-2,-1,1,2,3,4", "--xi=0,-1,0,0,0"])
    assert code == 0
    data = json.loads(out)
    assert data["sizes"] == [3, 4] and data["first_sign"] == 1
    assert data["arcs"] == [3, 4] and data["dividers"] == 2


def test_chart(capsys):
    code, out, _ = run(capsys, ["chart", "--d", "4", "--sizes", "3,4",
                                "--t=-3,-2,-1,1,2,3,4"])
    assert code == 0
    assert json.loads(out)["xi"] == ["0", "-1", "0", "0", "0"]


def test_classify(capsys):
    code, out, _ = run(capsys, ["classify", "--d", "3", "--arcs", "2,2,2"])
    assert code == 0
    data = json.loads(out)
    assert data["cross"] and not data["cyclic"]
    assert data["vertices"] == 6 and data["facets"] == 8


def test_vertices(capsys):
    code, out, _ = run(capsys, ["vertices", "--d", "4", "--arcs", "1,1,1,7"])
    assert code == 0
    assert len(json.loads(out)["vertices"]) == 5


def test_chart_order(capsys):
    code, out, _ = run(capsys, ["chart-order", "--d", "4", "--xi", "1,-4,6,-4,1"])
    assert json.loads(out) == {"on_curve": True}
    code, out, _ = run(capsys, ["chart-order", "--d", "4", "--xi", "0,-1,0,0,0"])
    assert json.loads(out) == {"on_curve": False}


def test_enumerate_csv(capsys):
    code, out, _ = run(capsys, ["enumerate", "--d", "3", "--n", "4..12",
                                "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "d,n,count"
    counts = [int(line.split(",")[2]) for line in lines[1:]]
    assert counts == [1, 1, 2, 1, 1, 1, 1, 1, 1]


def test_enumerate_json_lines(capsys):
    code, out, _ = run(capsys, ["enumerate", "--d", "4", "--n", "5..6"])
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert [r["count"] for r in rows] == [1, 2]
    assert all({"arcs", "certificate", "flags"} <= set(t)
               for r in rows for t in r["types"])


def test_certify_stdin(capsys, monkeypatch):
    import io

    payload = {"n_labels": 4, "d": 3,
               "facets": [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
    code, out, _ = run(capsys, ["certify"])
    assert code == 0
    cert = json.loads(out)["certificate"]
    bytes.fromhex(cert)


def test_certify_empty_facet(capsys, monkeypatch):
    import io

    # d = 0 allows only the empty facet; repeats and unused labels collapse
    certs = []
    for payload in ({"n_labels": 0, "d": 0, "facets": [[]]},
                    {"n_labels": 3, "d": 0, "facets": [[], []]}):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
        code, out, _ = run(capsys, ["certify"])
        assert code == 0
        certs.append(json.loads(out)["certificate"])
    assert certs == [b"0:0:".hex()] * 2


def _one_json_error(err):
    lines = err.strip().splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])
    assert set(error) == {"error", "message", "context"}
    return error


@pytest.mark.parametrize("label", [7, -1])
def test_certify_label_out_of_range_exit_2(capsys, monkeypatch, label):
    import io

    payload = {"n_labels": 4, "d": 3, "facets": [[0, 1, 2], [0, 1, label]]}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
    code, out, err = run(capsys, ["certify"])
    assert code == 2 and out == ""
    assert _one_json_error(err)["error"] == "invalid-index"


def test_certify_missing_file_exit_2(capsys, tmp_path):
    code, out, err = run(capsys, ["certify", "--file", str(tmp_path / "absent.json")])
    assert code == 2 and out == ""
    assert _one_json_error(err)["error"] == "invalid-input"


def test_certify_undecodable_file_exit_2(capsys, tmp_path):
    path = tmp_path / "binary.json"
    path.write_bytes(b"\xff\xfe{")
    code, out, err = run(capsys, ["certify", "--file", str(path)])
    assert code == 2 and out == ""
    assert _one_json_error(err)["error"] == "invalid-input"


def test_invalid_input_exit_2(capsys):
    code, out, err = run(capsys, ["facets", "--d", "4",
                                  "--t", "1,1,2,3,4", "--xi", "1,0,0,0,0"])
    assert code == 2 and out == ""
    error = json.loads(err)
    assert set(error) == {"error", "message", "context"}
    assert error["error"] == "invalid-instance"


def test_dimension_mismatch_exit_2(capsys):
    code, _, err = run(capsys, ["facets", "--d", "3",
                                "--t", "1,2,3,4,5", "--xi", "1,0,0,0,0"])
    assert code == 2
    assert json.loads(err)["error"] == "invalid-input"


def test_missing_input_exit_2(capsys):
    code, _, err = run(capsys, ["facets", "--d", "4"])
    assert code == 2
    assert json.loads(err)["error"] == "invalid-input"


def test_determinism(capsys):
    outs = []
    for _ in range(2):
        code = main(["enumerate", "--d", "4", "--n", "5..7"])
        assert code == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_global_flags_both_sides(capsys):
    code1, out1, _ = run(capsys, ["--format", "csv", "enumerate",
                                  "--d", "3", "--n", "4..5"])
    code2, out2, _ = run(capsys, ["enumerate", "--d", "3", "--n", "4..5",
                                  "--format", "csv"])
    assert code1 == code2 == 0 and out1 == out2


def _no_facets(*args):
    return FacetComplex(1, 1, ())


@pytest.mark.parametrize("argv, target, broken", [
    (EXAMPLE, "veronese.geometry.enumerate_facets_geometric", _no_facets),
    (EXAMPLE, "veronese.geometry.facet_test_determinant",
     lambda xi, t_set, s_values: False),
    (EXAMPLE, "veronese.geometry.enumerate_facets_line", _no_facets),
    (EXAMPLE, "veronese.geometry.s123_decompose", lambda dec, positions: None),
    # q's sign flipped at the interior parameter 2 of EXAMPLE: the lambda
    # and line tests read the wrong signs, the determinant test its own rows
    (EXAMPLE, "veronese.geometry.q_eval",
     lambda xi, t: -q_eval(xi, t) if t == 2 else q_eval(xi, t)),
    # the composition is cross-checked on realize(c)
    (["vertices", "--d", "4", "--arcs", "3,4"], "veronese.geometry.s123_decompose",
     lambda dec, positions: None),
    (["count", "--d", "4", "--arcs", "3,4"], "veronese.cli.facet_count", lambda c: 11),
    # the printed answer of a composition against that of realize(c)
    (["facets", "--d", "4", "--arcs", "3,4"], "veronese.cli.enumerate_facets_circular",
     _no_facets),
    (["vertices", "--d", "4", "--arcs", "1,1,1,7"], "veronese.cli.vertex_set",
     lambda c: (0, 1, 2)),
], ids=["lambda", "determinant", "sigma_pa", "s123", "q_eval", "vertices-arcs", "count",
        "facets-printed", "vertices-printed"])
def test_cross_check_failure_exit_3(capsys, monkeypatch, argv, target, broken):
    monkeypatch.setattr(target, broken)
    code, out, err = run(capsys, argv + ["--check"])
    assert code == 3 and out == ""
    assert _one_json_error(err)["error"] == "cross-check-failure"


@pytest.mark.parametrize("argv", [
    ["decompose", "--d", "4"],
    ["decompose", "--d", "4", "--t=1,2,3,4,5"],
])
def test_decompose_requires_t_and_xi(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_decompose_sign_change_overflow_exit_3(capsys, monkeypatch):
    import veronese.geometry as geometry

    monkeypatch.setattr(geometry, "q_eval", lambda xi, t: Fraction(-1) ** t)
    code, out, err = run(capsys, ["decompose", "--d", "2",
                                  "--t=1,2,3,4,5", "--xi=1,0,0"])
    assert code == 3 and out == ""
    assert json.loads(err)["error"] == "cross-check-failure"


def _certify(capsys, monkeypatch, payload):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
    return run(capsys, ["certify"])


@pytest.mark.parametrize("payload, code", [
    ({"n_labels": 4, "d": 3, "facets": [[0, 1, 2.5], [0, 1, 3]]}, "invalid-index"),
    ({"n_labels": 4, "d": 3, "facets": [[0, 1, True], [0, 1, 3]]}, "invalid-index"),
    ({"n_labels": 4.7, "d": 3, "facets": [[0, 1, 2], [0, 1, 3]]}, "invalid-input"),
    ({"n_labels": 4, "d": 3.0, "facets": [[0, 1, 2], [0, 1, 3]]}, "invalid-input"),
    ({"n_labels": 4, "d": True, "facets": [[0, 1, 2], [0, 1, 3]]}, "invalid-input"),
], ids=["float-label", "bool-label", "float-n-labels", "float-d", "bool-d"])
def test_certify_non_integer_exit_2(capsys, monkeypatch, payload, code):
    exit_code, out, err = _certify(capsys, monkeypatch, payload)
    assert exit_code == 2 and out == ""
    assert _one_json_error(err)["error"] == code


@pytest.mark.parametrize("name, facets", [
    ("simplex-12", [list(f) for f in combinations(range(12), 11)]),
    ("cross-polytope-d8", [list(f) for f in enumerate_facets_circular(
        CircularComposition(8, (2,) * 8)).facets]),
])
def test_certify_symmetric_complexes_quickly(capsys, monkeypatch, name, facets):
    # n! individualization leaves without orbit pruning
    start = time.perf_counter()
    code, out, err = _certify(capsys, monkeypatch, {
        "n_labels": 1 + max(map(max, facets)), "d": len(facets[0]), "facets": facets})
    assert code == 0 and err == ""
    bytes.fromhex(json.loads(out)["certificate"])
    assert time.perf_counter() - start < 5.0


@pytest.mark.parametrize("argv", [
    ["no-such-command"],
    ["facets", "--d", "x"],
    ["count", "--arcs", "3,4"],
    ["--format", "xml", "count", "--d", "4", "--arcs", "3,4"],
    ["chart-order", "--d=4", "--xi=--"],
], ids=["unknown-command", "bad-int", "missing-option", "bad-choice", "dash-dash-value"])
def test_usage_error_is_one_json_object(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert _one_json_error(captured.err)["error"] == "invalid-input"


@pytest.mark.parametrize("argv", [
    ["enumerate", "--d", "0", "--n", "1"],
    ["enumerate", "--d", "0", "--n", "2"],
    ["enumerate", "--d", "0", "--n", "3"],
    ["enumerate", "--d", "0..3", "--n", "4"],
    ["facets", "--d", "0", "--arcs", "2"],
    ["facets", "--d", "0", "--t=1,2", "--xi=1"],
    ["count", "--d", "-1", "--arcs", "2"],
    ["chart", "--d", "0", "--sizes", "2", "--t=1,2"],
])
def test_dimension_below_1_is_invalid_input(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects the shared --d
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    error = _one_json_error(captured.err)
    assert error["error"] == "invalid-input" and "--d" in error["message"]


@pytest.mark.parametrize("argv, flag", [
    (["enumerate", "--d", "2", "--n", "0"], "--n"),
    (["enumerate", "--d", "2", "--n", "-3"], "--n"),
    (["enumerate", "--d", "3..1", "--n", "4"], "--d"),
    (["enumerate", "--d", "2", "--n", "5..3"], "--n"),
    (["enumerate", "--d", "3", "--n", "2"], "--n"),
    (["enumerate", "--d", "4..5", "--n", "1..4"], "--n"),
])
def test_enumerate_selecting_no_cell_is_invalid_input(capsys, argv, flag):
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    error = _one_json_error(err)
    assert error["error"] == "invalid-input" and flag in error["message"]


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["count", "-h"])
    assert exc.value.code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: veronese count") and captured.err == ""


@pytest.mark.parametrize("command, phrases", [
    ("facets", ["--d D dimension d of the polytope",
                "--dividers DIVIDERS number of dividers; may be left out, since d and "
                "the arcs fix it",
                "one per arc, or d mod 2 for a single arc; only with --arcs"]),
    ("chart", ["--d D dimension d of the polytope",
               "--sizes SIZES comma-separated sizes of the constant-sign intervals",
               "--first-sign FIRST_SIGN sign of q on the first interval, 1 or -1"]),
])
def test_help_describes_every_option(capsys, command, phrases):
    with pytest.raises(SystemExit) as exc:
        main([command, "-h"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    for phrase in phrases:
        assert phrase in text


def test_large_dividerless_simplex_exits_0_quickly():
    start = time.perf_counter()
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-m", "veronese.cli", "facets", "--d", "40", "--arcs", "41",
         "--dividers", "0"], env=env, capture_output=True, timeout=60)
    assert proc.returncode == 0 and proc.stderr == b""
    assert len(json.loads(proc.stdout)["facets"]) == 41
    assert time.perf_counter() - start < 2.0


MANY_ARCS = ",".join(["1"] * 1199 + ["2"])


@pytest.mark.parametrize("argv, facets", [
    (["facets", "--d", "2000", "--arcs", "2001", "--dividers", "0"], 2001),
    (["facets", "--d", "1200", "--arcs", MANY_ARCS], 1201),
    (["count", "--check", "--d", "1200", "--arcs", MANY_ARCS], 1201),
    (["classify", "--d", "1200", "--arcs", MANY_ARCS], 1201),
], ids=["dividerless-d2000", "1200-arcs", "1200-arcs-count-check", "1200-arcs-classify"])
def test_deep_compositions_exit_0(capsys, argv, facets):
    # d/2 pairs on one arc and one divider per arc: no call depth grows
    # with either, so neither ends in a RecursionError
    start = time.perf_counter()
    code, out, err = run(capsys, argv)
    assert time.perf_counter() - start < 3.0
    assert code == 0 and err == ""
    data = json.loads(out)
    if argv[0] == "count":
        assert data == {"count": facets, "enumerated": facets}
    elif argv[0] == "classify":
        assert data["facets"] == facets and data["simplex"]
    else:
        assert len(data["facets"]) == facets


def test_line_facets_of_many_points_exit_0(capsys):
    # the cross-check lists the sigma-PA complements of 1099 positions
    code, out, err = run(capsys, ["facets", "--d", "1", "--arcs", "1100", "--check"])
    assert code == 0 and err == ""
    data = json.loads(out)
    assert data["facets"] == [[0], [1099]]
    assert all(facets == data["facets"] for facets in data["check"].values())


@pytest.mark.parametrize("argv, flag", [
    (["enumerate", "--d", "2", "--n", "3..2000000000"], "--n"),
    (["enumerate", "--d", f"1..{cli.RANGE_CAP + 1}", "--n", "3"], "--d"),
])
def test_range_past_the_cap_is_invalid_input_in_bounded_memory(capsys, argv, flag):
    cli.build_parser()  # built once per process, outside the budget
    tracemalloc.start()
    try:
        code, out, err = run(capsys, argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert code == 2 and out == ""
    error = _one_json_error(err)
    assert error["error"] == "invalid-input" and flag in error["message"]


def test_range_at_the_cap_is_accepted(capsys):
    code, out, err = run(capsys, ["enumerate", "--d", f"1..{cli.RANGE_CAP}", "--n", "3"])
    assert code == 0 and err == ""
    assert [json.loads(line)["d"] for line in out.splitlines()] == [1, 2]


def test_unparsable_parameter_is_invalid_input(capsys):
    code, out, err = run(capsys, ["facets", "--d", "2", "--t=1/0,1,2", "--xi=1,0,0"])
    assert code == 2 and out == ""
    error = _one_json_error(err)
    assert error["error"] == "invalid-input" and "--t" in error["message"]


@pytest.mark.parametrize("argv, read", [
    # about 200 kB, more than a pipe buffer holds
    (["facets", "--d", "6", "--arcs", "40", "--dividers", "0"], 10),
    (["count", "--d", "4", "--arcs", "3,4"], 0),
], ids=["while-writing", "at-exit"])
def test_closed_stdout_exits_0_quietly(argv, read):
    env = dict(os.environ, PYTHONPATH=SRC)
    with subprocess.Popen([sys.executable, "-m", "veronese.cli"] + argv, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        proc.stdout.read(read)
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 0 and err == b""


@pytest.mark.parametrize("argv", [
    ["facets", "--d", "2", "--t=1,2,3", "--xi=1,0,1", "--dividers", "3"],
    ["facets", "--d", "2", "--t=1,2,3", "--xi=1,0,1", "--dividers=-1"],
    ["vertices", "--d", "2", "--t=1,2,3", "--xi=1,0,1", "--dividers", "0"],
], ids=["facets", "facets-minus-one", "vertices"])
def test_dividers_without_arcs_is_invalid_input(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    error = _one_json_error(err)
    assert error["error"] == "invalid-input" and "--dividers" in error["message"]


@pytest.mark.parametrize("command", ["facets", "vertices", "count", "classify"])
def test_dividers_default_to_one_per_arc(capsys, command):
    argv = [command, "--d", "4", "--arcs", "3,4"]
    assert run(capsys, argv) == run(capsys, argv + ["--dividers", "2"])
    assert run(capsys, argv + ["--dividers", "0"])[0] == 2  # needs a single arc


@pytest.mark.parametrize("command", ["facets", "count", "classify"])
def test_single_arc_in_even_dimension_has_no_dividers(capsys, command):
    argv = [command, "--d", "4", "--arcs", "7"]
    code, out, err = run(capsys, argv)
    assert code == 0 and err == "" and out
    assert run(capsys, argv + ["--dividers", "0"]) == (code, out, err)
    code, out, err = run(capsys, argv + ["--dividers", "1"])
    assert code == 2 and out == ""
    assert _one_json_error(err)["error"] == "invalid-decomposition"


TETRAHEDRON = json.dumps({"n_labels": 4, "d": 3,
                          "facets": [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]})
ENUMERATE = ["enumerate", "--d", "3", "--n", "4..6"]

# every failure sits between two successes, so that running the list
# forwards and then backwards follows each failure with a success
PARSER_ORACLE_ARGV = [
    EXAMPLE,
    ["facets", "--d", "x"],  # usage error: bad int
    EXAMPLE + ["--check"],
    ["no-such-command"],  # usage error: unknown command
    ["facets", "--d", "4", "--arcs", "3,4"],
    ["count", "--arcs", "3,4"],  # usage error: missing option
    ["vertices", "--d", "4", "--arcs", "1,1,1,7"],
    ["chart-order", "--d=4", "--xi=--"],  # usage error: "--opt=--"
    ["vertices", "--d", "4", "--t=-3,-2,-1,1,2,3,4", "--xi=0,-1,0,0,0"],
    ["facets", "--d", "4", "--t", "1,1,2,3,4", "--xi", "1,0,0,0,0"],  # InputError
    ["decompose", "--d", "4", "--t=-3,-2,-1,1,2,3,4", "--xi=0,-1,0,0,0"],
    ["-h"],
    ["chart", "--d", "4", "--sizes", "3,4", "--t=-3,-2,-1,1,2,3,4"],
    ["count", "-h"],
    ["count", "--d", "4", "--arcs", "3,4", "--check"],
    ["--format", "xml", "count", "--d", "4", "--arcs", "3,4"],  # usage error: choice
    ["classify", "--d", "3", "--arcs", "2,2,2"],
    ["facets", "--d", "4"],  # InputError: no source
    ["chart-order", "--d", "4", "--xi", "1,-4,6,-4,1"],
    ["certify", "--file", "no-such-file.json"],  # InputError
    ["certify"],
    ["--format", "json"] + ENUMERATE,
    ENUMERATE + ["--format", "json"],
    ["--format", "csv"] + ENUMERATE,
    ENUMERATE + ["--format", "csv"],
    ["--format", "pretty"] + ENUMERATE,
    ENUMERATE + ["--format", "pretty"],
    ["--check", "--format", "csv", "count", "--d", "4", "--arcs", "3,4"],
    ["count", "--d", "4", "--arcs", "3,4", "--format", "pretty", "--check"],
]


def _outcome(capsys, monkeypatch, argv):
    """(exit code, stdout, stderr) of main(argv), with the tetrahedron on stdin."""
    monkeypatch.setattr("sys.stdin", io.StringIO(TETRAHEDRON))
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_shared_parser_matches_a_fresh_parser_per_call(capsys, monkeypatch):
    assert cli.build_parser() is cli.build_parser()
    argvs = PARSER_ORACLE_ARGV + PARSER_ORACLE_ARGV[::-1]
    shared = [_outcome(capsys, monkeypatch, argv) for argv in argvs]
    assert cli.build_parser.cache_info().currsize == 1
    # the oracle: every call builds its own parser, as before memoization
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    fresh = [_outcome(capsys, monkeypatch, argv) for argv in argvs]
    for argv, got, want in zip(argvs, shared, fresh):
        assert got == want, argv
    assert {code for code, _, _ in fresh} == {0, 2}


def test_import_loads_no_dataclasses_inspect_or_typing():
    # -S too, so no site hook preloads typing; the stdlib modules named
    # here would add about half of a fresh process's startup
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import veronese.cli\n"
            "veronese.cli.build_parser()\n"
            "print(' '.join(sorted({'dataclasses', 'inspect', 'pathlib', 'typing'}"
            " & (set(sys.modules) - before))))\n")
    done = subprocess.run([sys.executable, "-I", "-S", "-c",
                           f"import sys; sys.path.insert(0, {SRC!r})\n" + code],
                          capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout.split() == []


def test_modules_import_in_one_order():
    # the package __init__ imports every module, so the package is stubbed
    # and each module is imported on its own, lowest layer first: none may
    # load a module of a later layer, and classify then loads no canonical
    order = ["errors", "exact", "facets", "geometry", "circular", "classify",
             "canonical", "cli"]
    code = ("import sys, types\n"
            "package = types.ModuleType('veronese')\n"
            f"package.__path__ = [{SRC!r} + '/veronese']\n"
            "sys.modules['veronese'] = package\n"
            f"for name in {order!r}:\n"
            "    before = set(sys.modules)\n"
            "    __import__('veronese.' + name)\n"
            "    print(name, *sorted(m for m in set(sys.modules) - before"
            " if m.startswith('veronese.')))\n")
    done = subprocess.run([sys.executable, "-I", "-S", "-c", code],
                          capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout.splitlines() == [f"{name} veronese.{name}" for name in order]
