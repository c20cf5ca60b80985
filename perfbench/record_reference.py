"""Rewrite the recorded output digests in spec.json from the current code.

    python3 perfbench/record_reference.py

Run it only when an output change is intended: the benchmark counts any
difference from these digests as a failed operation.
"""

import hashlib
import json
import sys

from run import HERE, SRC, Tally, run_items

sys.path.insert(0, str(SRC))
import workloads  # noqa: E402


def main():
    path = HERE / "spec.json"
    spec = json.loads(path.read_text())
    for name, entry in spec["workloads"].items():
        entry.pop("reference_digest", None)
        entry.pop("cell_digests", None)
        workload = workloads.make(name, spec)
        tally = Tally()
        if name == "types":
            items = list(workload.CELLS)
            _, records, _ = run_items(workload, items, tally)
            entry["cell_digests"] = {
                f"{d},{n}": hashlib.sha256(r).hexdigest()
                for (d, n), r in zip(items, records)
            }
        _, records, _ = run_items(workload, workload.reference(), tally)
        if tally.failed:
            raise SystemExit(f"{name}: {dict(tally.failures)}")
        entry["reference_digest"] = workloads.digest(records)
    path.write_text(json.dumps(spec, indent=2) + "\n")


if __name__ == "__main__":
    main()
