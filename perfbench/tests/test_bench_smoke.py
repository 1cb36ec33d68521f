"""Every workload runs end to end at a small size, untraced and traced."""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import spanfeat.tensor
from spanbench import WORKLOADS, runner, workloads
from spanbench.tracer import Tracer, per_layer_names

from test_bench_checks import SMALL

BENCH = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_workload_runs_and_checks_out(name, trace, tmp_path):
    original = spanfeat.tensor.lstm_cell
    result = runner.run_workload(name, seed=2, seconds=0.05, trace=trace, workdir=tmp_path, sizes=SMALL)
    assert result["problems"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert result["rounds"] >= workloads.MIN_ROUNDS
    assert list(result["end_to_end"]) == list(runner.END_TO_END)
    assert all(m["value"] > 0 for m in result["end_to_end"].values())
    assert list(tmp_path.iterdir()) == []  # bundles are removed
    assert spanfeat.tensor.lstm_cell is original  # patches are undone
    if trace:
        assert [(k, m["unit"]) for k, m in result["per_layer"].items()] == per_layer_names()
        assert result["trace_coverage"] >= 0.9
        assert result["per_layer"]["tensor.tensors_created"]["value"] > 0


def test_coverage_counts_only_time_in_named_layers():
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span("cli.predict"):
            time.sleep(0.02)  # the outermost span's own time: not covered
        assert tracer.covered_s == 0.0
        with tracer.span("cli.predict"):
            spanfeat.tensor.relu(spanfeat.tensor.Tensor(np.ones(3)))
        assert 0.0 < tracer.covered_s < 0.02
    finally:
        tracer.uninstall()


def test_command_prints_the_result_last(tmp_path):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "predict", "--seed", "4",
         "--seconds", "0.2", "--trace", "0"],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert set(last["metrics"]) == set(runner.END_TO_END)
    assert last["correct"] and last["failed"] == 0


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "predict", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
