"""Tests of the benchmark itself: python3 -m pytest perfbench (about a minute)."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(1, HERE)

from tracing import BENCH_SPAN, Tracer  # noqa: E402
from workloads import A6_S, A6_T, GENUS2, PSL27_S, PSL27_ST, TREFOIL, WORKLOADS, relabelled  # noqa: E402

with open(os.path.join(HERE, "golden.json")) as fh:
    GOLDEN = json.load(fh)


@pytest.mark.parametrize("presentation,images", [
    (TREFOIL, (PSL27_S, PSL27_ST)),
    (GENUS2, (A6_S, A6_T, A6_T, A6_S)),
])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_relabelled_permutations_kill_relabelled_relators(presentation, images, seed):
    relabel, _ = relabelled(seed, "job", presentation)
    perms = relabel.perms(images)
    inverses = [tuple(sorted(range(len(p)), key=p.__getitem__)) for p in perms]
    for relator in presentation[1]:
        point_images = list(range(len(perms[0])))
        for j, s in relabel.letters(relator):
            step = perms[j] if s > 0 else inverses[j]
            point_images = [step[x] for x in point_images]
        assert point_images == sorted(point_images)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_two_seeds_give_the_golden_answers(workload, tmp_path):
    for seed in (1, 2):
        workdir = tmp_path / str(seed)
        workdir.mkdir()
        for job in WORKLOADS[workload](str(workdir), seed):
            answer = json.loads(json.dumps(job.answer(job.run())))
            assert answer == GOLDEN[workload][job.name], (seed, job.name)


def test_traced_self_times_add_up_and_uninstall_restores():
    from deflab import cli, lowindex, stability

    original = stability.low_index_subgroups
    tracer = Tracer()
    tracer.install()
    try:
        assert stability.low_index_subgroups is not original
        code = tracer.call(BENCH_SPAN, cli.main,
                           (["stability", "corpus:torus", "--max-index", "3", "--out", os.devnull],))
    finally:
        tracer.uninstall()
    assert code == 0
    assert stability.low_index_subgroups is original is lowindex.low_index_subgroups
    layers = tracer.snapshot()
    assert layers["cli.main.calls"] == 1
    assert layers["stability.stability_report.calls"] == 1
    assert layers["lowindex.subgroups"] == layers["stability.rows"] > 1
    assert all(v >= 0 for k, v in layers.items() if k.endswith(".self_s"))
    wall = tracer.inclusive_s[BENCH_SPAN]
    assert layers["trace.accounted_s"] == pytest.approx(wall, rel=1e-6)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "_work-*"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "modp_oracle", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
