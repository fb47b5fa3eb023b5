"""The benchmark's traced `train`, `eval` and `predict-stream` runs, one round each.

The traced run wraps the package's call boundaries from outside and reads
some of its attributes (`Batch.mask`, `loss_on_batch`, `dev_ll_per_event`),
so a change to any of them shows here first.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import run  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", ["train", "eval", "predict-stream"])
def test_traced_run_has_no_problem_and_no_failed_operation(tmp_path, name):
    tally = run.Tally()
    metrics, _, _ = run.measure_traced(workloads.WORKLOADS[name], 5, 0.0, str(tmp_path), tally)
    assert tally.problems == [], tally.problems
    assert tally.attempted > 0 and tally.failed == 0
    assert metrics["ssm.scan_steps"] > 0
