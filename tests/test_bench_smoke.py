"""Each benchmark workload runs briefly, exits 0 and reports correct outputs.

``bench/run.py`` exits non-zero when a workload raises or its outputs fail
their checks (for ``train_toy32``: a loss trace that stops repeating bit for
bit or drifts from ``bench/reference_trace.json``). A one-second run of each
workload, and a traced one of ``train_toy32``, put those checks in the test
suite.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def assert_bench_run_is_correct(*args):
    result = subprocess.run(
        [sys.executable, "bench/run.py", *args, "--seed", "1", "--seconds", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stderr
    last = json.loads(result.stdout.strip().splitlines()[-1])
    assert last["correct"] is True, last
    assert last["failed"] == 0, last


@pytest.mark.parametrize("workload", ["train_toy32", "loss_paper108", "cli_eval"])
def test_workload_runs_and_is_correct(workload):
    assert_bench_run_is_correct("--workload", workload)


def test_traced_train_toy32_runs_and_is_correct():
    # --trace 1 patches the public layer names and counts conv work from their
    # (C, H, W) shapes, so a network conv sent through them fails here
    assert_bench_run_is_correct("--workload", "train_toy32", "--trace", "1")
