"""Each helper the unit tests share is defined once, in ``support.py``.

A unit-test module that defines a top-level function of the same name as one
in ``support.py`` has brought back a copy.  The acceptance suite keeps its own
oracles on purpose and is not checked.  The helpers' own properties that the
tests rely on without pinning them are checked here.
"""

import ast
from pathlib import Path

import numpy as np
import pytest
from support import random_density

TESTS = Path(__file__).resolve().parent


def top_level_functions(path):
    return {node.name for node in ast.parse(path.read_text()).body if isinstance(node, ast.FunctionDef)}


def test_no_unit_test_module_redefines_a_support_helper():
    shared = top_level_functions(TESTS / "support.py")
    modules = {p.name: top_level_functions(p) for p in TESTS.glob("test_*.py") if p.name != "test_acceptance.py"}
    assert {"kron_chain", "dense_trace_norm", "excitation_isometry", "distinct_words", "near_edge_pairs"} <= shared
    assert {"test_covert_sim.py", "test_eg_toy.py", "test_support.py"} <= set(modules)
    assert {name: sorted(names & shared) for name, names in modules.items() if names & shared} == {}


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_random_density_full_rank_sets_the_spectral_floor(d):
    # full_rank mixes in 0.1 of I/d, so no eigenvalue falls below 0.1/d; without it
    # some of the same draws do
    lowest = {flag: min(np.linalg.eigvalsh(random_density(np.random.default_rng(seed), d, flag)).min() for seed in range(5))
              for flag in (True, False)}
    assert lowest[True] >= 0.1 / d - 1e-12
    assert lowest[False] < 0.1 / d
