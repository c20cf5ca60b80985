"""scripts/bench_pairs.py keeps the pairs it has when a run fails, fails
on a run that is not correct, compares the two trees' digests and adds
one traced run per tree."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
METRICS = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
RESULT = {"correct": True, "attempted": 4, "failed": 0,
          "metrics": {name: {"value": 1.0} for name in METRICS}}
DETAIL = {"reference_digest": "r0", "block0_digest": "b0"}


def _tree(path, body, detail=DETAIL, result=RESULT):
    """A source tree whose perfbench/run.py runs body, then prints the
    detail and result lines."""
    (path / "perfbench").mkdir(parents=True)
    (path / "perfbench" / "run.py").write_text(
        f"import json, sys\n{body}\n"
        f"print(json.dumps({detail!r}))\nprint(json.dumps({result!r}))\n")
    return str(path)


def _pairs(parent, change, *seeds):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_pairs.py"), parent, change,
         "--workload", "types", "--seeds", *map(str, seeds), "--seconds", "1"],
        capture_output=True, text=True, timeout=60)


def test_failed_run_reports_its_side_seed_and_stderr(tmp_path):
    parent = _tree(tmp_path / "parent", "")
    change = _tree(tmp_path / "change", (
        "if sys.argv[sys.argv.index('--seed') + 1] == '2':\n"
        "    print('trace\\nboom: no such workload', file=sys.stderr)\n"
        "    sys.exit(3)\n"))
    out = _pairs(parent, change, 1, 2, 3)
    assert out.returncode == 1
    assert "change run failed: seed 2 exited 3" in out.stderr
    assert out.stderr.rstrip().endswith("boom: no such workload")
    report = json.loads(out.stdout)
    assert [pair["seed"] for pair in report["pairs"]] == [1]
    assert report["summary"]["failed"] == {"parent": 0, "change": 0}
    assert report["trace"] is None


def test_run_that_is_not_correct_fails_the_session(tmp_path):
    wrong = {**RESULT, "correct": False, "failed": 3}
    parent = _tree(tmp_path / "parent", "", result=wrong)
    change = _tree(tmp_path / "change", "")
    out = _pairs(parent, change, 5, 6)
    assert out.returncode == 1
    assert "parent run failed: seed 5 was not correct, 3 of 4 operations failed" \
        in out.stderr
    report = json.loads(out.stdout)
    assert report["pairs"] == [] and report["summary"] is None


def test_pairs_report_whether_the_digests_agree(tmp_path):
    parent = _tree(tmp_path / "parent", "")
    change = _tree(tmp_path / "change", (
        "if sys.argv[sys.argv.index('--seed') + 1] == '8':\n"
        "    print(json.dumps({'reference_digest': 'r0', 'block0_digest': 'other'}))\n"
        f"    print(json.dumps({RESULT!r}))\n"
        "    sys.exit(0)\n"))
    out = _pairs(parent, change, 7, 8)
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout)
    assert [pair["same_digests"] for pair in report["pairs"]] == [
        {"reference_digest": True, "block0_digest": True},
        {"reference_digest": True, "block0_digest": False},
    ]


def _layers(calls):
    """A run.py body that answers --trace 1 with one per-layer metric."""
    traced = {**RESULT, "metrics": {"canonical.certificate.calls": {"value": calls}}}
    return ("if sys.argv[sys.argv.index('--trace') + 1] == '1':\n"
            "    assert sys.argv[sys.argv.index('--seed') + 1] == '4'\n"
            f"    print(json.dumps({DETAIL!r}))\n"
            f"    print(json.dumps({traced!r}))\n"
            "    sys.exit(0)\n")


def test_one_traced_run_per_tree_on_the_first_seed(tmp_path):
    parent = _tree(tmp_path / "parent", _layers(3.0))
    change = _tree(tmp_path / "change", _layers(2.0))
    out = _pairs(parent, change, 4, 9)
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout)
    assert [pair["seed"] for pair in report["pairs"]] == [4, 9]
    assert report["trace"] == {"seed": 4,
                               "parent": {"canonical.certificate.calls": 3.0},
                               "change": {"canonical.certificate.calls": 2.0}}


def test_failed_traced_run_fails_the_session(tmp_path):
    parent = _tree(tmp_path / "parent", (
        "if sys.argv[sys.argv.index('--trace') + 1] == '1':\n"
        "    print('no tracer', file=sys.stderr)\n"
        "    sys.exit(4)\n"))
    change = _tree(tmp_path / "change", "")
    out = _pairs(parent, change, 6)
    assert out.returncode == 1
    assert "parent traced run failed: seed 6 exited 4" in out.stderr
    report = json.loads(out.stdout)
    assert [pair["seed"] for pair in report["pairs"]] == [6]
    assert report["trace"] is None
