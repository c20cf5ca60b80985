"""Alternating perfbench runs on two source trees, printed as one JSON object.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload cli_mix \
        --seeds 1 2 3 --seconds 24

Each seed is one pair: perfbench/run.py runs in each tree on its own
sources, the parent first in the 1st, 3rd, ... pair and the change first
in the others.  A run keeps its last two stdout lines: details and result.
Each pair also says whether the two trees gave the same reference_digest
and block0_digest (the outputs of the seed's reference inputs and of its
first block), so a change that alters outputs shows in the report.

The summary gives, per end-to-end metric of BENCHMARK.json, the parent's
median and quartiles (statistics.quantiles, n=4), the change's median
and the pairs each side won (a tie goes to neither), and the failed
operations per side.  After the pairs, each tree makes one traced run
(--trace 1) on the first seed, and "trace" holds the per-layer metrics
of both, per repetition of the seed's first block, as perfbench/run.py
reports them.

A run, traced or not, that exits nonzero or whose result does not say
"correct": true ends the session: its side, seed and exit code or failed
operations, and the tail of its stderr, go to stderr, the pairs already
done are printed as above with no "trace", and the script exits 1.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


class RunFailed(Exception):
    pass


def run(tree, workload, seed, seconds, trace=0):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    tail = "\n".join(out.stderr.splitlines()[-20:])
    if out.returncode != 0:
        raise RunFailed(f"seed {seed} exited {out.returncode}; stderr ends:\n{tail}")
    detail, result = (json.loads(line) for line in out.stdout.strip().splitlines()[-2:])
    if result.get("correct") is not True:
        raise RunFailed(f"seed {seed} was not correct, {result.get('failed')} of "
                        f"{result.get('attempted')} operations failed; stderr ends:\n{tail}")
    return {"detail": detail, "result": result}


def summary(pairs):
    out = {}
    for metric in json.loads(BENCHMARK.read_text())["end_to_end"]:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        values = {side: [p[side]["result"]["metrics"][name]["value"] for p in pairs]
                  for side in ("parent", "change")}
        parent = values["parent"]
        quartiles = statistics.quantiles(parent, n=4) if len(parent) > 1 else parent * 3
        margins = [sign * (c - p) for p, c in zip(parent, values["change"])]
        out[name] = {"better": metric["better"],
                     "parent_median": statistics.median(parent),
                     "parent_quartiles": [quartiles[0], quartiles[2]],
                     "change_median": statistics.median(values["change"]),
                     "pairs_won": {"parent": sum(m < 0 for m in margins),
                                   "change": sum(m > 0 for m in margins)}}
    out["failed"] = {side: sum(p[side]["result"]["failed"] for p in pairs)
                     for side in ("parent", "change")}
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args, pairs, status = parser.parse_args(), [], 0
    for i, seed in enumerate(args.seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        runs = {}
        try:
            for side in order:
                runs[side] = run(getattr(args, side), args.workload, seed, args.seconds)
        except RunFailed as failure:
            print(f"{side} run failed: {failure}", file=sys.stderr)
            status = 1
            break
        same = {key: runs["parent"]["detail"][key] == runs["change"]["detail"][key]
                for key in ("reference_digest", "block0_digest")}
        pairs.append({"seed": seed, "first": order[0], "same_digests": same, **runs})
    trace = None
    if status == 0:
        trace = {"seed": args.seeds[0]}
        try:
            for side in ("parent", "change"):
                metrics = run(getattr(args, side), args.workload, args.seeds[0],
                              args.seconds, trace=1)["result"]["metrics"]
                trace[side] = {name: m["value"] for name, m in metrics.items()}
        except RunFailed as failure:
            print(f"{side} traced run failed: {failure}", file=sys.stderr)
            status, trace = 1, None
    print(json.dumps({"workload": args.workload, "seconds": args.seconds,
                      "summary": summary(pairs) if pairs else None, "pairs": pairs,
                      "trace": trace}))
    return status


if __name__ == "__main__":
    sys.exit(main())
