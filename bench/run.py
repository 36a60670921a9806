"""cremona benchmark.

    python3 bench/run.py --workload {growth-q,catalog,weyl,all} --seed N
        --seconds S --trace {0,1}
    python3 bench/run.py --self-check

Workloads, metrics and the baseline are described in BENCHMARK.json and
bench/baseline.json. Each run starts fresh interpreters (bench/worker.py):
with --trace 0, several that only set up, for the median `setup_s`; then
one that sets up and runs the workload's operations one at a time (a closed
loop with one client) for about S seconds, checking every answer.

With --trace 0 the last line is the end-to-end result. The machine this was
built on is shared, and its speed drifts by up to 2x over minutes, so the
workers also time a fixed reference computation that does not involve
cremona every few seconds; reported times are divided, and rates multiplied,
by the reference's median time over its nominal REFERENCE_S. The lines above
the result show each value as timed as well.

With --trace 1 the worker first runs untraced for S/2 seconds, then wraps
cremona's public functions (bench/tracer.py) and runs as many fresh cycles
traced; the last line holds the per-layer metrics.

--self-check runs every workload with wrong expected answers and exits 0
only if every operation is counted as failed. The default seed is 1; claims
tuned on it are checked again on the held-out seed 7919.

Exit status is 0 when a result was printed, whether or not answers were
right (see "correct"), and 1 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKER = os.path.join(BENCH_DIR, "worker.py")
WORKLOADS = ("growth-q", "catalog", "weyl")
SETUP_SAMPLES = 5  # fresh interpreters per run whose set-up time is the median
TIME_LIMIT_S = 170  # a run ends within this, worker processes included
REFERENCE_S = 0.08  # nominal time of the worker's reference computation
TAIL_BEYOND = 10  # op_tail_s is the highest percentile with this many samples above


class BenchError(Exception):
    pass


def run_worker(args, deadline):
    """Run one worker to completion and return its JSON result."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, *args], cwd=ROOT, stdout=subprocess.PIPE,
            text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:  # subprocess.run has killed and reaped it
        raise BenchError(f"worker {' '.join(args)} timed out") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(lines[-1])


def tail(latencies):
    """(value, percentile, samples beyond) at the highest percentile that has
    TAIL_BEYOND samples above it; with fewer samples, the smallest one."""
    xs = sorted(latencies)
    k = max(len(xs) - TAIL_BEYOND - 1, 0)
    return xs[k], 100.0 * (k + 1) / len(xs), len(xs) - 1 - k


def measure(workload, seed, seconds, trace, deadline, perturb=False,
            setup_samples=SETUP_SAMPLES):
    """Run one workload; return (result line, human-readable lines)."""
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    setup_runs = [run_worker(common + ["--setup-only"], deadline)
                  for _ in range(0 if trace else setup_samples - 1)]
    extra = (["--trace"] if trace else []) + (["--perturb"] if perturb else [])
    res = run_worker(common + extra, deadline)

    lat = res["latencies"]
    attempted = len(lat) + res.get("traced_ops", 0)
    failed = res["failed"]
    lines = [
        f"workload {workload} seed {seed}: {len(lat)} ops in {res['cycles']} cycles"
        f" (closed loop, one client), {failed} of {attempted} failed",
        f"  error_rate     {failed / attempted:.4g}",
    ]
    if trace:
        metrics = {name: {"value": value, "unit": res["units"][name]}
                   for name, value in res["layers"].items()}
        lines.append(f"  traced ops     {res['traced_ops']} ({res['spans']} spans,"
                     f" written to {res['spans_path']}); per-layer times are raw")
        for name, m in metrics.items():
            lines.append(f"  {name:<34} {m['value']:.6g} {m['unit']}")
    else:
        # Slowness of the whole machine: the reference's median time in this
        # run over its nominal time. Times are divided by it, rates multiplied.
        slow = statistics.median(res["reference_s"]) / REFERENCE_S
        setup_refs = [x for r in setup_runs for x in r["reference_s"]]
        setup_slow = statistics.median(setup_refs or res["reference_s"]) / REFERENCE_S
        setup_raw = statistics.median(
            [r["setup_s"] for r in setup_runs] + [res["setup_s"]])
        rate, p50 = len(lat) / sum(lat), statistics.median(lat)
        tail_s, pct, beyond = tail(lat)
        values = {  # name: (as timed, reported, unit)
            "setup_s": (setup_raw, setup_raw / setup_slow, "s"),
            "ops_per_s": (rate, rate * slow, "1/s"),
            "op_p50_s": (p50, p50 / slow, "s"),
            "op_tail_s": (tail_s, tail_s / slow, "s"),
            "peak_rss_mb": (res["peak_rss_mb"], res["peak_rss_mb"], "MB"),
        }
        metrics = {name: {"value": v, "unit": unit}
                   for name, (_timed, v, unit) in values.items()}
        lines.append(f"  slowness       {slow:.4g} in the run, {setup_slow:.4g} in set-up"
                     f" (reference median over its nominal {REFERENCE_S} s)")
        lines.append(f"  setup_s        median of {setup_samples} fresh interpreters")
        lines.append(f"  op_tail_s      p{pct:.1f} of {len(lat)} ops, {beyond} beyond it")
        for name, (timed, v, unit) in values.items():
            lines.append(f"  {name:<14} {v:<12.6g} {unit:<4} (as timed: {timed:.6g})")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, lines


def self_check(seed, deadline):
    """Every operation with a perturbed expected answer must count as failed."""
    ok = True
    for workload in WORKLOADS:
        result, _ = measure(workload, seed, 1, False, deadline, perturb=True,
                            setup_samples=1)
        caught = result["failed"] == result["attempted"] and not result["correct"]
        ok = ok and caught
        print(f"self-check {workload}: {result['failed']} of {result['attempted']}"
              f" perturbed answers counted as failed: {'ok' if caught else 'FAIL'}")
    return ok


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        if args.self_check:
            return 0 if self_check(args.seed, deadline) else 1
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        if len(names) > 1:
            deadline = time.monotonic() + TIME_LIMIT_S * len(names)
        for name in names:
            result, lines = measure(name, args.seed, args.seconds, bool(args.trace),
                                    deadline)
            print("\n".join(lines), flush=True)
            print(json.dumps(result), flush=True)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
