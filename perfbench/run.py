"""deflab benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload cover_sweep --seed 1 --seconds 20 --trace 0

--trace 0 prints the end-to-end metrics (run_s, peak_rss_mb, setup_s and
failed_ratio); --trace 1 prints the per-layer metrics of a traced run.  The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

from tracing import COUNTS, span_names  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 165
# numpy and BLAS get one thread, so each run is one client on one thread
CHILD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
SETUP_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "import deflab.cli; deflab.cli.build_parser(); print(time.time())"
)


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def describe(name, values, unit):
    q1, med, q3 = quartiles(values)
    return f"{name}: median {med:.4f} {unit} (q1 {q1:.4f}, q3 {q3:.4f}, n={len(values)})"


def measure_setup(env):
    """Fresh interpreter until deflab is imported and the CLI parser built."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.time()
        done = subprocess.run([sys.executable, "-c", SETUP_CODE, SRC], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        samples.append(float(done.stdout.strip()) - start)
    return samples


def run_worker(args, env):
    workdir = tempfile.mkdtemp(prefix="_work-", dir=HERE)
    try:
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--workdir", workdir],
            env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_S, check=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def per_layer_metrics(res):
    """Medians over the traced passes, plus the tracing accounting."""
    layers = res["layers"]
    metrics = {}
    for key in layers[0]:
        if key == "trace.accounted_s":
            continue
        if key.endswith(".calls") or key in COUNTS:
            unit = "count"
        elif key.endswith("_s"):
            unit = "s"
        else:
            unit = "ratio"
        metrics[key] = {"value": statistics.median(layer[key] for layer in layers), "unit": unit}
    traced = statistics.median(res["traced_run_s"])
    metrics["trace.overhead_s"] = {"value": traced - statistics.median(res["run_s"]), "unit": "s"}
    coverage = [layer["trace.accounted_s"] / wall
                for layer, wall in zip(layers, res["traced_run_s"])]
    metrics["trace.coverage"] = {"value": statistics.median(coverage), "unit": "ratio"}
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "deflab", "__init__.py")):
        print(f"error: no deflab sources under {SRC}", file=sys.stderr)
        return 2

    env = dict(os.environ, **CHILD_ENV)
    setup = measure_setup(env)
    res = run_worker(args, env)

    e = res["env"]
    print(f"env: nproc={e['nproc']} python={e['python']} numpy={e['numpy']} "
          f"deflab={e['deflab']} workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} loop=closed clients=1 threads=1")
    for job in res["jobs"]:
        print("job:", json.dumps(job))
    print(f"warmup_s: {res['warmup_s']:.4f} s (untimed pass)")
    print(describe("run_s", res["run_s"], "s"))
    print(f"peak_rss_mb: {res['peak_rss_mb']:.1f} MB")
    print(describe("setup_s", setup, "s"))
    failed_ratio = res["failed"] / res["attempted"]
    print(f"failed_ratio: {failed_ratio:.4f} ratio ({res['failed']}/{res['attempted']})")

    if args.trace:
        metrics = per_layer_metrics(res)
        print(describe("traced_run_s", res["traced_run_s"], "s"))
        spans = sorted(span_names() + ["bench"], key=lambda n: -metrics[f"{n}.self_s"]["value"])
        for name in spans:
            calls = metrics.get(f"{name}.calls", {"value": "-"})["value"]
            print(f"layer {name}: self_s {metrics[f'{name}.self_s']['value']:.4f} calls {calls}")
        for key, m in metrics.items():
            if not key.endswith((".self_s", ".calls")):
                print(f"{key}: {m['value']} {m['unit']}")
        coverage = metrics["trace.coverage"]["value"]
        if not 0.98 <= coverage <= 1.0 + 1e-9:
            print(f"error: span self times cover {coverage:.4f} of the traced wall time",
                  file=sys.stderr)
            return 1
    else:
        metrics = {
            "run_s": {"value": statistics.median(res["run_s"]), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
        }
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
