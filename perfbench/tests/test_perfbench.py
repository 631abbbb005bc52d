"""Tests of the benchmark itself; run from the repository root with

    python3 -m pytest perfbench/tests -q

The smoke tests run the real command at a tiny scale (``--smoke``).
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pandas as pd
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench.checks import recovery_counts  # noqa: E402
from perfbench.replay import Tracer  # noqa: E402
from perfbench.workloads import tree_cpu_s  # noqa: E402

WORKLOADS = ["batch-chunker-d4", "batch-aguilar-btc", "stream-aguilar-d4"]


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def _run(args: list, cwd: str = ROOT, prelude: str | None = None) -> subprocess.CompletedProcess:
    if prelude is None:
        cmd = [sys.executable, "perfbench/run.py", *args]
    else:
        code = (
            f"import runpy, sys; sys.path[:0] = [{os.path.join(cwd, 'src')!r}, {cwd!r}]\n"
            f"{prelude}\n"
            f"sys.argv = ['perfbench/run.py'] + {args!r}\n"
            "runpy.run_path('perfbench/run.py', run_name='__main__')"
        )
        cmd = [sys.executable, "-c", code]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def _result(p: subprocess.CompletedProcess) -> dict:
    assert p.returncode == 0, p.stderr[-3000:]
    return json.loads(p.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_emits_every_metric_with_its_unit(workload, trace):
    out = _result(_run(["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace), "--smoke"]))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    wanted = _spec()["per_layer" if trace else "end_to_end"]
    assert list(out["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = out["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)


def test_broken_output_check_counts_as_failed_operation():
    prelude = (
        "from perfbench import checks\n"
        "checks.check_batch_result = lambda res: ['deliberately broken check']"
    )
    p = _run(["--workload", "batch-chunker-d4", "--seed", "1", "--seconds", "1", "--trace", "0", "--smoke"], prelude=prelude)
    out = _result(p)
    assert out["correct"] is False
    assert out["failed"] == out["attempted"] >= 1
    assert "deliberately broken check" in p.stderr


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = _run(["--workload", "batch-chunker-d4", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=str(tmp_path))
    assert p.returncode != 0
    assert not p.stdout.strip()


def test_self_time_excludes_children_and_recomputed_span():
    tr = Tracer()
    # parent 0..10 s with children 1..3 s ("a") and 4..9 s ("b", recomputes "a")
    tr.spans = [
        {"id": 0, "name": "p", "parent": None, "recomputes": None, "start": 0.0, "end": 10.0},
        {"id": 1, "name": "a", "parent": 0, "recomputes": None, "start": 1.0, "end": 3.0},
        {"id": 2, "name": "b", "parent": 0, "recomputes": "a", "start": 4.0, "end": 9.0},
    ]
    assert tr.self_times() == {"p": 3.0, "a": 2.0, "b": 3.0}


def test_recovery_counts():
    cols = ["tweet_id", "sent_id", "start", "length"]
    local = pd.DataFrame([(1, 0, 0, 1), (1, 0, 5, 2)], columns=cols)
    # "andy" (0, 1) lies inside the mined "andy beshear" (0, 2); (5, 2) is
    # found by both; (9, 1) only by mining
    mined = pd.DataFrame([(1, 0, 0, 2), (1, 0, 5, 2), (1, 0, 9, 1)], columns=cols)
    assert recovery_counts(local, mined) == (2, 1)


def test_tree_cpu_counts_finished_child_processes():
    before = tree_cpu_s()
    subprocess.run([sys.executable, "-c", "sum(range(3 * 10**7))"], check=True)
    assert tree_cpu_s() - before > 0.1
