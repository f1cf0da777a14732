"""Rewrite golden.json from the current deflab sources.

    python3 perfbench/make_golden.py

Runs every job once at seed 0 and stores its relabelling-invariant answer.
Only regenerate on purpose: the stored answers are what every later commit
is checked against.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(1, HERE)

from workloads import WORKLOADS  # noqa: E402


def main():
    golden = {}
    with tempfile.TemporaryDirectory(prefix="_work-", dir=HERE) as workdir:
        for workload, build in WORKLOADS.items():
            golden[workload] = {job.name: job.answer(job.run()) for job in build(workdir, 0)}
    with open(os.path.join(HERE, "golden.json"), "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
