"""The benchmark's `eg` and `sweep` studies with their checks and oracles.

`bench/workloads.py` is imported as it is; its `eg` oracle compares the EG
fidelity with `bench/references.json` at seeds 42 and 7, so a change that
moves that fidelity fails here and not only in the benchmark.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no cache files in the benchmark's tree
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def run_study(study, seed, tmp_path):
    inp = study.setup(seed, str(tmp_path))
    value, errors = study.check(inp, study.run(inp))
    return value, errors + study.oracle(inp, value)


@pytest.mark.parametrize("seed", [42, 7])
def test_eg_study(workloads, seed, tmp_path):
    assert workloads.recorded_reference("eg", seed) is not None
    _, errors = run_study(workloads.EG(), seed, tmp_path)
    assert errors == []


def test_sweep_study(workloads, tmp_path):
    value, errors = run_study(workloads.Sweep(), 0, tmp_path)
    assert errors == []
    assert len(value) == workloads.Sweep.steps
