"""The benchmark scores an operation whose answer fails its correctness gate
(perfbench/workloads.py) as incorrect.  These tests run that gate on the
reports and the verify table the library writes for the benchmark's
workload configurations, so a report-layout change the gate would reject
fails here first."""
import importlib.util
import pathlib
import sys

import pytest

from thermocasimir.config import load_config
from thermocasimir.pipeline import run_pipeline, verify_suite

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
SEED = 2024


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(PERFBENCH))       # workloads imports spans and speed
    try:
        spec = importlib.util.spec_from_file_location(
            "perfbench_workloads", PERFBENCH / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
    return module


@pytest.mark.parametrize("name", ["run-two-species", "fine-grid-three-species"])
def test_gate_accepts_run_report(workloads, name):
    config = load_config(workloads.workload_config(name, SEED))
    report = run_pipeline(
        config, magnetic_check=workloads.WORKLOADS[name]["magnetic_check"])["report"]
    assert workloads.gate_run_report(
        report, config.numerics["residual_tolerance"]) == []


def test_gate_accepts_verify_table(workloads):
    config = load_config(workloads.workload_config("cli-verify-two-species", SEED))
    assert workloads.gate_verify(0, verify_suite(config)) == []
