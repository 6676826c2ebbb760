"""The benchmark's studies with their checks and oracles, and its tracer's names.

`bench/workloads.py` is imported as it is.  Its `eg` and `simulate` oracles
compare with `bench/references.json` at seeds 42 and 7, and its `resolve`
oracle recomputes each commuting-route distance densely, so a change that
moves those numbers fails here and not only in the benchmark.  The `eg`
study's own copy of the decoder threshold must give `eg.decoding_povm`'s POVM.
`bench/spans.py` must find every function it traces.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from covertq import covert_sim as cs
from covertq import eg_toy as eg

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no cache files in the benchmark's tree
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


@pytest.fixture(scope="module")
def workloads():
    return load_bench("workloads")


def run_study(study, seed, tmp_path):
    inp = study.setup(seed, str(tmp_path))
    value, errors = study.check(inp, study.run(inp))
    return value, errors + study.oracle(inp, value)


@pytest.mark.parametrize("seed", [42, 7])
def test_eg_study(workloads, seed, tmp_path):
    assert workloads.recorded_reference("eg", seed) is not None
    _, errors = run_study(workloads.EG(), seed, tmp_path)
    assert errors == []


@pytest.mark.parametrize("seed", [42, 7])
def test_eg_study_decodes_with_the_decoders_threshold(workloads, seed, tmp_path):
    # the study keeps its own copy of decoding_povm's threshold a: its POVM must be the decoder's, bit for bit
    inp = workloads.EG().setup(seed, str(tmp_path))
    quad = inp["quad"]
    elements, abstain = cs.square_root_povm(inp["flat"], quad.sigma0, quad.sigma1, inp["a"])
    want, want_abstain, _ = eg.decoding_povm(inp["code"], inp["V"])
    for got, ref in zip([*elements, abstain], [*want, want_abstain], strict=True):
        assert got.dtype == ref.dtype and got.shape == ref.shape and got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("seed", [42, 7])
def test_resolve_study(workloads, seed, tmp_path):
    _, errors = run_study(workloads.Resolve(), seed, tmp_path)
    assert errors == []


@pytest.mark.parametrize("seed", [42, 7])
def test_simulate_study(workloads, seed, tmp_path):
    assert workloads.recorded_reference("simulate", seed) is not None
    _, errors = run_study(workloads.Simulate(), seed, tmp_path)
    assert errors == []


def test_sweep_study(workloads, tmp_path):
    value, errors = run_study(workloads.Sweep(), 0, tmp_path)
    assert errors == []
    assert len(value) == workloads.Sweep.steps


def test_traced_functions_exist():
    # Tracer.install looks up every traced name with getattr
    spans = load_bench("spans")
    missing = [
        f"{mod}.{fn}"
        for mod, fns in spans.TRACED.items()
        for fn in fns
        if not callable(getattr(importlib.import_module(f"covertq.{mod}"), fn, None))
    ]
    assert missing == []
