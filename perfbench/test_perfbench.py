"""Tests of the benchmark harness itself (not of the library).

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
import veronese  # noqa: E402
from veronese import cli, exact, geometry  # noqa: E402

SPEC = json.loads((HERE / "spec.json").read_text())


def cli_mix():
    return workloads.make("cli_mix", SPEC)


def digests_of(workload, items, with_tracer=None):
    tally = run.Tally()
    _, records, _ = run.run_items(workload, items, tally, with_tracer)
    assert tally.failed == 0, tally.failures
    return workloads.digest(records)


def test_same_seed_same_inputs_and_digests():
    w = cli_mix()
    first = w.block(7, 0)
    again = w.block(7, 0)
    assert [(r.argv, r.stdin) for r in first] == [(r.argv, r.stdin) for r in again]
    assert [(r.argv, r.stdin) for r in w.block(8, 0)] != [(r.argv, r.stdin) for r in first]
    assert digests_of(w, first[:40]) == digests_of(w, again[:40])


def test_block_follows_shares():
    kinds = [r.kind for r in cli_mix().block(3, 1)]
    assert {k: kinds.count(k) for k in set(kinds)} == SPEC["workloads"]["cli_mix"]["shares"]


def test_tracing_changes_no_output_and_restores_functions():
    w = cli_mix()
    items = w.block(5, 0)[:60]
    plain = digests_of(w, items)
    t = tracer.Tracer()
    t.install()
    try:
        assert hasattr(veronese.cli.main, "__wrapped__")
        assert geometry.sign_det is exact.sign_det is veronese.sign_det
        assert hasattr(geometry.sign_det, "__wrapped__")
        traced = digests_of(w, items, t)
    finally:
        t.restore()
    assert traced == plain
    assert not hasattr(cli.main, "__wrapped__")
    assert not hasattr(geometry.sign_det, "__wrapped__")
    assert geometry.sign_det is exact.sign_det
    assert {s[0] for s in t.spans} >= {"cli.main", "cli.build_parser"}
    metrics = t.layer_metrics(1, 1.0)
    assert metrics["cli.build_parser.calls"]["value"] == len(items)


def test_self_time_excludes_children():
    t = tracer.Tracer()
    t.spans = [("cli.main", 0.0, 10.0, -1, 0),
               ("cli.build_parser", 1.0, 3.0, 0, 0),
               ("canonical.certificate", 4.0, 8.0, 0, 0),
               ("circular.enumerate_facets_circular", 5.0, 6.0, 2, 0)]
    m = t.layer_metrics(1, 1.0)
    assert m["cli.main.self_s"]["value"] == pytest.approx(4.0)
    assert m["canonical.certificate.self_s"]["value"] == pytest.approx(3.0)
    assert m["canonical.certificate.max_ms"]["value"] == pytest.approx(4000.0)


def test_tail_has_ten_samples_beyond():
    value, percentile, beyond, count = run.tail([float(i) for i in range(100)])
    assert (value, beyond, count) == (89.0, 10, 100)
    assert percentile == pytest.approx(100 * 89 / 99)
    # too few samples for any tail: fall back to the median, say so
    value, percentile, beyond, count = run.tail([float(i) for i in range(15)])
    assert (value, percentile, beyond, count) == (7.0, 50.0, 7, 15)


def test_exception_escaping_main_is_a_failed_operation(monkeypatch):
    def boom(argv=None):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "main", boom)
    w = cli_mix()
    tally = run.Tally()
    items = w.block(1, 0)[:3]
    times, _, _ = run.run_items(w, items, tally)
    assert tally.attempted == 3 and tally.failed == 3
    assert len(times) == 3
    assert all("RuntimeError escaped main()" in reason for reason in tally.failures)


def test_malformed_requests_honour_error_contract():
    w = cli_mix()
    bad = [r for b in range(3) for r in w.block(2, b) if r.kind == "malformed"]
    assert {r.expect for r in bad} >= {"certify_not_json", "divider_parity"}
    digests_of(w, bad)


def test_known_defect_probe_reports_every_class():
    found = workloads.probe_known_defects()
    assert set(found) == set(workloads.KNOWN_DEFECTS)
    for problem in found.values():
        assert problem is None or isinstance(problem, str)


def test_wrong_outputs_are_caught():
    types = workloads.make("types", SPEC)
    rows, _ = types.run((3, 6))
    types.check((3, 6), rows)
    rows[0]["count"] += 1
    with pytest.raises(workloads.Failure):
        types.check((3, 6), rows)

    inst = workloads.make("instances", SPEC)
    item = next(i for i in inst.block(0, 0) if i[0].n <= 5)
    result, _ = inst.run(item)
    inst.check(item, result)
    with pytest.raises(workloads.Failure):
        inst.check(item, result[:5] + (result[5] + 1,))


def test_per_layer_names_match_benchmark_json():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(tracer.PER_LAYER)


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line(capsys, trace):
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert run.main(["--workload", "cli_mix", "--seed", "4",
                     "--seconds", "0.1", "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    key = "per_layer" if trace else "end_to_end"
    assert set(result["metrics"]) == {m["name"] for m in bench[key]}
    detail = json.loads(lines[-2])
    assert set(detail["known_defects"]) == set(workloads.KNOWN_DEFECTS)


def test_missing_sources_exit_nonzero(monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", HERE / "no-such-src")
    assert run.main(["--workload", "types", "--seed", "0", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
