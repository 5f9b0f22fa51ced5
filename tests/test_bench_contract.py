"""The benchmark's traced-run contract, run as part of the test suite.

For each workload in BENCHMARK.json, one untraced and one traced round of
``bench/run.py``.  The traced round wraps the library's public functions
from outside and checks that each wrapped count equals what the fitted
models report (``check_trace_counts``) and that tracing changes no output;
the bench's output checks (``run_checks``) follow.  A fit that reaches a
traced function through a binding the tracer cannot see fails here.
"""

import json
import os
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture
def bench_run(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(BENCH))
    # run.py pins BLAS threads in os.environ when imported; keep that out
    # of the environment that later tests hand to child processes.
    monkeypatch.setattr(os, "environ", os.environ.copy())
    import run

    monkeypatch.setattr(run, "RESULTS", tmp_path)
    return run


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_round_keeps_the_bench_contract(bench_run, workload):
    result = bench_run.run_workload(workload, 3, 0.0, True)
    assert result["correct"]
    assert result["failed"] == 0
