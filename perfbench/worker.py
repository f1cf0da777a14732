"""Runs one workload in a fresh interpreter and prints one JSON line.

The loop is closed: one client, one thread, each job starts when the
previous one returns.  One untimed warm-up pass runs first; then timed passes
(and, with --trace 1, traced passes alternating with untraced ones).  Every
job's output is checked against the golden answers and its digest against
the warm-up pass; checks run after each pass, outside its timed region.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(1, HERE)

import numpy  # noqa: E402  deflab's one dependency, imported for its version

import deflab  # noqa: E402
from tracing import BENCH_SPAN, Tracer  # noqa: E402
from workloads import WORKLOADS, digest  # noqa: E402


class JobRecord:
    def __init__(self, job, golden):
        self.job = job
        self.golden = golden
        self.digest = None
        self.wall_s = []
        self.attempted = 0
        self.failures = []

    def check(self, outcome, wall):
        """Record one execution; return True when it passed every check."""
        self.attempted += 1
        self.wall_s.append(wall)
        kind, value = outcome
        if kind == "error":
            self.failures.append(value)
            return False
        try:
            answer = json.loads(json.dumps(self.job.answer(value)))
        except (ValueError, KeyError, TypeError) as exc:
            self.failures.append(f"unreadable output: {exc!r}")
            return False
        if answer != self.golden:
            self.failures.append(f"answer differs from golden: {json.dumps(answer)[:200]}")
            return False
        d = digest(value)
        if self.digest is None:
            self.digest = d
        elif d != self.digest:
            self.failures.append(f"output digest {d} differs from {self.digest}")
            return False
        return True

    def to_json(self):
        return {"job": self.job.name, "digest": self.digest, "attempted": self.attempted,
                "failed": len(self.failures), "wall_s": self.wall_s,
                "failures": self.failures[:3]}


def run_pass(records, tracer=None):
    """Run every job once, back to back; check outputs after the clock stops."""
    gc.collect()  # each pass starts without garbage left by the checks before it
    outcomes = []
    start = perf_counter()
    for rec in records:
        t0 = perf_counter()
        try:
            if tracer is None:
                out = rec.job.run()
            else:
                out = tracer.call(BENCH_SPAN, rec.job.run, ())
            outcomes.append((("ok", out), perf_counter() - t0))
        except Exception as exc:  # every failure of a job is counted, none stops the run
            outcomes.append((("error", f"{type(exc).__name__}: {exc}"), perf_counter() - t0))
    wall = perf_counter() - start
    failed = sum(not rec.check(outcome, t) for rec, (outcome, t) in zip(records, outcomes))
    return wall, failed


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()

    with open(os.path.join(HERE, "golden.json")) as fh:
        golden = json.load(fh)[args.workload]
    jobs = WORKLOADS[args.workload](args.workdir, args.seed)
    records = [JobRecord(job, golden[job.name]) for job in jobs]

    failed = 0
    warm_s, f = run_pass(records)
    failed += f
    run_s, traced_s, layers = [], [], []
    if args.trace:
        tracer = Tracer()
        for _ in range(max(1, round(args.seconds / (2 * warm_s)))):
            wall, f = run_pass(records)
            run_s.append(wall)
            failed += f
            tracer.reset()
            tracer.install()
            try:
                wall, f = run_pass(records, tracer)
            finally:
                tracer.uninstall()
            traced_s.append(wall)
            failed += f
            layers.append(tracer.snapshot())
    else:
        for _ in range(max(2, round(args.seconds / warm_s))):
            wall, f = run_pass(records)
            run_s.append(wall)
            failed += f

    print(json.dumps({
        "warmup_s": warm_s,
        "run_s": run_s,
        "traced_run_s": traced_s,
        "layers": layers,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": sum(r.attempted for r in records),
        "failed": failed,
        "jobs": [r.to_json() for r in records],
        "env": {"nproc": os.cpu_count(), "python": sys.version.split()[0],
                "numpy": numpy.__version__, "deflab": deflab.__version__},
    }))


if __name__ == "__main__":
    main()
