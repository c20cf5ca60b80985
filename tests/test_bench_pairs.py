"""scripts/bench_pairs.py keeps the pairs it has when a run fails."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
METRICS = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]


def _tree(path, body):
    (path / "perfbench").mkdir(parents=True)
    (path / "perfbench" / "run.py").write_text(body)
    return str(path)


def test_failed_run_reports_its_side_seed_and_stderr(tmp_path):
    result = {"failed": 0, "metrics": {name: {"value": 1.0} for name in METRICS}}
    parent = _tree(tmp_path / "parent", (
        "import json\n"
        f"print(json.dumps({{}}))\nprint(json.dumps({result!r}))\n"))
    change = _tree(tmp_path / "change", (
        "import sys\n"
        "if sys.argv[sys.argv.index('--seed') + 1] == '2':\n"
        "    print('trace\\nboom: no such workload', file=sys.stderr)\n"
        "    sys.exit(3)\n"
        f"import json\nprint(json.dumps({{}}))\nprint(json.dumps({result!r}))\n"))
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_pairs.py"), parent, change,
         "--workload", "types", "--seeds", "1", "2", "3", "--seconds", "1"],
        capture_output=True, text=True, timeout=60)
    assert out.returncode == 1
    assert "change run failed: seed 2 exited 3" in out.stderr
    assert out.stderr.rstrip().endswith("boom: no such workload")
    report = json.loads(out.stdout)
    assert [pair["seed"] for pair in report["pairs"]] == [1]
    assert report["summary"]["failed"] == {"parent": 0, "change": 0}
