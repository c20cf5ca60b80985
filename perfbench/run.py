"""Benchmark of the veronese library and CLI.

    python3 perfbench/run.py --workload {instances,types,cli_mix} \
        --seed N --seconds S --trace {0,1}

One process, one thread, closed loop: each operation starts after the
previous one returns.  Every time is scaled to a reference machine speed
measured around each operation (see calibrate.py).  Inputs come from the seed and are generated
before the block that uses them is timed; a warm-up runs the default
seed's reference inputs first and compares their output digest with the
one recorded in spec.json.  Whole blocks run until S seconds have
passed, in scaled time.

With --trace 0 the run reports the end-to-end metrics, measured with
tracing off.  With --trace 1 it runs the seed's first block alternately
untraced and traced, checks that tracing changes no output, and reports
per-layer metrics per block; spans go to .perfbench_out/.

The last line of stdout is one JSON object: correct, attempted, failed
and metrics.  The line before it holds the details (tail percentile and
its sample count, error rate, digests, failure classes, and for cli_mix
the known-defect probe).
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

from calibrate import REFERENCE_S, kernel_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("instances", "types", "cli_mix")

SETUP_LAUNCHES = 9
SETUP_CODE = (
    "import sys, time\n"
    "from calibrate import kernel_seconds\n"
    "speed = kernel_seconds()\n"
    "start = time.perf_counter()\n"
    "import veronese.cli\n"
    "veronese.cli.build_parser()\n"
    "print(time.perf_counter() - start, speed, kernel_seconds())\n"
)
TAIL_BEYOND = 10


def setup_seconds(launches=SETUP_LAUNCHES):
    """Median time for a fresh interpreter to import veronese.cli and
    build the parser, as every CLI process does, scaled by the machine
    speed the child measures around it.  One unmeasured launch first, so
    compiled bytecode is in place as it is for an install."""
    cmd = [sys.executable, "-I", "-c",
           f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(HERE)!r}]\n" + SETUP_CODE]
    times = []
    for _ in range(launches + 1):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=60, check=True)
        elapsed, before, after = map(float, done.stdout.split())
        times.append(elapsed * REFERENCE_S / ((before + after) / 2))
    return statistics.median(times[1:])


def tail(latencies, beyond=TAIL_BEYOND):
    """Latency at the highest percentile with at least `beyond` samples
    above it (nearest rank), never below the median.  Returns (value,
    percentile, samples beyond, sample count)."""
    ordered = sorted(latencies)
    n = len(ordered)
    rank = max(n - 1 - beyond, (n - 1) // 2)
    percentile = 100.0 * rank / (n - 1) if n > 1 else 100.0
    return ordered[rank], percentile, n - 1 - rank, n


class Tally:
    """Attempted and failed operations, with failure classes."""

    def __init__(self):
        self.attempted = 0
        self.failures = Counter()

    @property
    def failed(self):
        return sum(self.failures.values())

    def fail(self, reason):
        self.failures[reason] += 1


def run_op(workload, item, tally, tracer=None, op_id=None):
    """Run and check one operation.  Returns (seconds, output record);
    a failed operation is tallied and never stops the run."""
    from workloads import Failure

    tally.attempted += 1
    if tracer is not None:
        tracer.op = op_id
    try:
        result, elapsed = workload.run(item)
    except Exception as exc:
        tally.fail(f"{type(exc).__name__} raised")
        return None, b""
    finally:
        if tracer is not None:
            tracer.op = None
    try:
        return elapsed, workload.check(item, result)
    except Failure as exc:
        tally.fail(str(exc))
    except Exception as exc:
        tally.fail(f"check raised {type(exc).__name__}")
    return elapsed, b""


def run_items(workload, items, tally, tracer=None):
    """Run items in order.  Returns (scaled seconds of each completed
    operation, output records, scaled seconds of the whole call).  Each
    operation's time is scaled by the machine speed measured just before
    and just after it, the whole call's by the median of those speeds, so
    run length does not follow the phases of a shared CPU."""
    times, records = [], []
    start = perf_counter()
    kernels = [kernel_seconds()]
    for op_id, item in enumerate(items):
        elapsed, record = run_op(workload, item, tally, tracer, op_id)
        kernels.append(kernel_seconds())
        if elapsed is not None:
            times.append(elapsed * REFERENCE_S / ((kernels[-2] + kernels[-1]) / 2))
        records.append(record)
    clock = (perf_counter() - start) * REFERENCE_S / statistics.median(kernels)
    return times, records, clock


def warm_up(workload, spec, tally):
    """Run the default seed's reference inputs; their digest must equal
    the recorded one (the byte-identical rule)."""
    from workloads import digest

    _, records, _ = run_items(workload, workload.reference(), tally)
    got = digest(records)
    want = spec["workloads"][workload.name].get("reference_digest")
    if want is not None and got != want:
        tally.attempted += 1
        tally.fail("reference digest differs from spec.json")
    return got


def measure(workload, seed, seconds, tally):
    """Closed loop over whole blocks until `seconds` (scaled) have passed.
    Every block has the same mix of input sizes, so each gives one
    throughput sample: completed operations / summed operation time."""
    from workloads import digest

    times, rates, block0 = [], [], None
    blocks, clock = 0, 0.0
    while blocks == 0 or clock < seconds:
        block_times, records, block_clock = run_items(
            workload, workload.block(seed, blocks), tally)
        clock += block_clock
        times += block_times
        if block_times:
            rates.append(len(block_times) / sum(block_times))
        if block0 is None:
            block0 = digest(records)
        blocks += 1
    if not times:
        raise RuntimeError("no operation completed")
    return times, rates, blocks, block0


def end_to_end(workload, seed, seconds, spec, tally, detail):
    setup = setup_seconds()
    detail["reference_digest"] = warm_up(workload, spec, tally)
    times, rates, blocks, block0 = measure(workload, seed, seconds, tally)
    value, percentile, beyond, count = tail(times)
    detail.update(blocks=blocks, block0_digest=block0,
                  tail={"percentile": round(percentile, 2),
                        "samples_beyond": beyond, "samples": count})
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": {"value": setup, "unit": "s"},
        "ops_per_s": {"value": statistics.median(rates), "unit": "1/s"},
        "op_p50_ms": {"value": statistics.median(times) * 1000, "unit": "ms"},
        "op_tail_ms": {"value": value * 1000, "unit": "ms"},
        "peak_rss_mb": {"value": rss_kib / 1024, "unit": "MB"},
    }


def traced(workload, seed, seconds, spec, tally, detail):
    from tracer import Tracer
    from workloads import digest

    detail["reference_digest"] = warm_up(workload, spec, tally)
    items = workload.block(seed, 0)
    tracer = Tracer()
    ratios, clock = [], 0.0
    while not ratios or clock < seconds:
        plain_times, plain, plain_clock = run_items(workload, items, tally)
        tracer.install()
        try:
            traced_times, traced_records, traced_clock = run_items(
                workload, items, tally, tracer)
        finally:
            tracer.restore()
        clock += plain_clock + traced_clock
        if digest(traced_records) != digest(plain):
            tally.attempted += 1
            tally.fail("tracing changed an output")
        ratios.append(sum(traced_times) / sum(plain_times))
    detail.update(blocks=1, repetitions=len(ratios), block0_digest=digest(plain),
                  spans=len(tracer.spans))
    tracer.write(OUT_DIR / f"spans-{workload.name}-seed{seed}.tsv.gz")
    return tracer.layer_metrics(len(ratios), statistics.median(ratios))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "veronese" / "__init__.py").is_file():
        print(f"error: no veronese sources under {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    import workloads

    spec = json.loads((HERE / "spec.json").read_text())
    workload = workloads.make(args.workload, spec)
    tally = Tally()
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    if args.workload == "cli_mix":
        detail["known_defects"] = workloads.probe_known_defects()
    run = traced if args.trace else end_to_end
    metrics = run(workload, args.seed, args.seconds, spec, tally, detail)
    detail.update(error_rate=tally.failed / tally.attempted,
                  failures=dict(tally.failures))
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
