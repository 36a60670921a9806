"""One benchmark process: set up a workload in this fresh interpreter, then
run its operations as a closed loop with one client, and print one JSON line.

    python3 bench/worker.py --workload NAME --seed N --seconds S
        [--trace] [--setup-only] [--perturb]

`run.py` starts it; it is not meant to be run by hand. Set-up (importing
cremona from ./src and making cycle 0 of the seeded inputs) is timed from
before the import and is kept out of the operation latencies.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from fractions import Fraction

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
MAX_TRACEBACKS = 3
REFERENCE_EVERY_S = 2.0
SETUP_REFERENCE_SAMPLES = 3


def import_program():
    """Import cremona from this checkout's sources, never from elsewhere."""
    init = os.path.join(SRC, "cremona", "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"worker: no cremona sources at {init}")
    sys.path.insert(0, SRC)
    import cremona

    if os.path.abspath(cremona.__file__) != init:
        raise SystemExit(f"worker: imported cremona from {cremona.__file__}")


class Reference:
    """A fixed computation that does not involve cremona: a sympy product of
    two dense bivariate polynomials over QQ (the kind of arithmetic growth-q
    spends its time in) and a product of two 12 x 12 Fraction matrices (the
    kind weyl spends its time in). Its time, taken every few seconds between
    operations, tracks how fast the machine is running at that moment."""

    def __init__(self):
        import sympy

        x, y = sympy.symbols("x y")
        expr = sum((7919 * i + 13) ** 3 * x ** i * y ** (24 - i) for i in range(25))
        self.poly = sympy.Poly(expr + (x + 3 * y + 1) ** 12, x, y, domain=sympy.QQ)
        self.matrix = [[Fraction(i * j + 1, i + j + 1) for j in range(12)]
                       for i in range(12)]
        self.samples = []

    def sample(self):
        start = time.perf_counter()
        self.poly * self.poly
        m = self.matrix
        [[sum(a * b for a, b in zip(row, col)) for col in zip(*m)] for row in m]
        self.samples.append(time.perf_counter() - start)


class Loop:
    """Runs whole cycles of operations and records each one's latency. With
    a reference, samples it before the first operation, after every
    REFERENCE_EVERY_S of operations and after the last one."""

    def __init__(self, tracer=None, reference=None):
        self.tracer = tracer
        self.reference = reference
        self.latencies = []
        self.failed = 0
        self.cycles = 0
        self._tracebacks = 0
        self._since_reference = 0.0

    def run_op(self, op):
        tracer = self.tracer
        raised = False
        result = None
        if tracer is not None:
            tracer.active = True
        start = time.perf_counter()
        try:
            result = op.call()
        except Exception:  # counted as a failed operation; the loop goes on
            raised = True
            if self._tracebacks < MAX_TRACEBACKS:
                self._tracebacks += 1
                traceback.print_exc(file=sys.stderr)
        latency = time.perf_counter() - start
        if tracer is not None:
            tracer.active = False
        if raised or not op.run_checked(result):
            self.failed += 1
        self.latencies.append(latency)
        self._since_reference += latency
        if self.reference is not None and self._since_reference >= REFERENCE_EVERY_S:
            self.reference.sample()
            self._since_reference = 0.0

    def run_cycle(self, cycle):
        for op in cycle:
            self.run_op(op)
        self.cycles += 1

    def run_for(self, make_cycle, seconds):
        """Cycles 0, 1, ... while the next one is expected to end within
        `seconds`, and at least one."""
        self.reference.sample()
        start = time.perf_counter()
        while True:
            self.run_cycle(make_cycle(self.cycles))
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / self.cycles > seconds:
                if self._since_reference:
                    self.reference.sample()
                return

    def summary(self):
        return {
            "latencies": self.latencies,
            "failed": self.failed,
            "cycles": self.cycles,
        }


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--perturb", action="store_true")
    args = ap.parse_args(argv)

    start = time.perf_counter()
    import_program()
    import workloads

    make_cycle = workloads.build(args.workload, args.seed)
    first = make_cycle(0)
    setup_s = time.perf_counter() - start
    reference = Reference()
    out = {"setup_s": setup_s, "reference_s": reference.samples}
    if args.setup_only:
        for _ in range(SETUP_REFERENCE_SAMPLES):
            reference.sample()
        print(json.dumps(out))
        return 0
    def cycle(k):  # cycle 0 was made during set-up
        ops = first if k == 0 else make_cycle(k)
        return workloads.perturb(ops) if args.perturb else ops

    if not args.trace:
        loop = Loop(reference=reference)
        loop.run_for(cycle, args.seconds)
        out.update(loop.summary())
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(json.dumps(out))
        return 0

    # Traced run: an untraced pass over half the time, then a traced pass
    # over as many fresh cycles with the same mix, so the overhead ratio
    # compares like with like.
    import tracer as tracing

    plain = Loop(reference=reference)
    plain.run_for(cycle, args.seconds / 2)
    tr = tracing.Tracer()
    tr.install()
    traced = Loop(tr)
    for k in range(plain.cycles, 2 * plain.cycles):
        traced.run_cycle(cycle(k))
    traced_s = sum(traced.latencies)
    layers = tr.report(len(traced.latencies), traced_s)
    # Cycle 0 meets the program's own caches cold; leave it out of the
    # untraced side when there is more than one cycle.
    warm = plain.latencies[len(first):] or plain.latencies
    layers["trace.overhead_ratio"] = (
        traced_s / len(traced.latencies)) / (sum(warm) / len(warm))
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.jsonl.gz")
    tr.dump(spans_path)
    out.update(plain.summary())
    out["failed"] += traced.failed
    out["traced_ops"] = len(traced.latencies)
    out["layers"] = layers
    out["units"] = tracing.metric_units()
    out["spans"] = len(tr.spans)
    out["spans_path"] = os.path.relpath(spans_path, ROOT)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
