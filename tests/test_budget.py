"""The byte budget: one variable, checked before anything n-fold is allocated,
with charges that bound what each entry point holds at once."""

import numpy as np
import pytest
from support import distinct_words, excitation_isometry, excitation_quadruple, rotated_damping_isometry, traced

from covertq import budget
from covertq import channels as chn
from covertq import covert_sim as cs
from covertq import eg_toy as eg
from covertq import operators as op
from covertq import cli
from covertq.cli import main
from covertq.errors import BudgetExceededError

CHECK = budget.check
ISOMETRIES = {
    "commuting": lambda: excitation_isometry(0.3),
    "dense": rotated_damping_isometry,
}
SIM_ENTRY_POINTS = (
    "willie_average_state", "willie_bin_state", "resolvability_samples", "resolvability_experiment",
    "covertness_report", "secrecy_report", "sqrt_measurement_decoder", "square_root_povm", "simulate",
)
EG_ENTRY_POINTS = (
    "exact_string_povm", "protocol_state", "decoupling_decoder", "align_phases",
    "willie_marginal", "eliminate_assistance", "eg_report",
)


def sim_call(name, V, n, samples=2):
    """A zero-argument call of a covert_sim entry point on 16 words of n letters
    (4 words for ``square_root_povm``, whose dense elements grow with K)."""
    quad = chn.build_covert_channel(V)
    cfg = cs.SimConfig(n=n, gamma=1.0, m_size=4, l_size=4, seed=3, samples=samples)
    cb = cs.sample_codebook(cfg)
    args = {
        "willie_average_state": (cb, quad),
        "willie_bin_state": (cb, quad, 0),
        "resolvability_samples": (cfg, quad),
        "resolvability_experiment": (cfg, quad),
        "covertness_report": (cb, quad, cfg),
        "secrecy_report": (cb, quad, cfg),
        "sqrt_measurement_decoder": (cb, quad, cfg),
        "square_root_povm": (list(cb.words[0]), quad.sigma0, quad.sigma1, 0.1),
        "simulate": (cfg, quad),
    }[name]
    return lambda: getattr(cs, name)(*args)


def eg_code(n):
    """A code of 2 x 2 distinct words of n letters."""
    return eg.EGToyCode.from_words(distinct_words(np.random.default_rng(n), 2, 2, n))


def eg_call(name, V, code, povm):
    """A zero-argument call of an eg_toy entry point; ``povm`` is (elements, abstain)."""
    if name == "exact_string_povm":
        return lambda: eg.exact_string_povm(code.words.reshape(-1, code.n), V.out_dim_b)
    return lambda: getattr(eg, name)(code, V, *povm)


def peak_and_charge(call, monkeypatch):
    """Tracemalloc peak of ``call()`` and the largest charge it passed to budget.check."""
    charges = []
    monkeypatch.setattr(budget, "check", lambda nbytes, what: charges.append(nbytes) or CHECK(nbytes, what))
    with traced() as trace:
        call()
    assert charges, "no budget check"
    return trace.peak, max(charges)


def test_check_message_names_bytes_and_variable(monkeypatch):
    monkeypatch.setenv("COVERTQ_MAX_BYTES", "1000")
    budget.check(1000, "fits")
    with pytest.raises(BudgetExceededError, match=r"^big needs 1001 bytes, budget 1000 bytes \(COVERTQ_MAX_BYTES\)$"):
        budget.check(1001, "big")
    monkeypatch.setenv("COVERTQ_MAX_BYTES", "")  # empty means unset
    budget.check(budget.DEFAULT_MAX_BYTES, "default")
    with pytest.raises(BudgetExceededError, match=f"budget {budget.DEFAULT_MAX_BYTES} bytes"):
        budget.check(budget.DEFAULT_MAX_BYTES + 1, "default")


@pytest.mark.parametrize("route", sorted(ISOMETRIES))
@pytest.mark.parametrize("name", SIM_ENTRY_POINTS + EG_ENTRY_POINTS)
def test_entry_points_charge_before_allocating(monkeypatch, name, route):
    """An oversize n exits before any n-fold kron chain, codebook average or
    tensor power is built, and before anything else of note is allocated."""
    n = 13
    V = ISOMETRIES[route]()
    # the gate fires before the POVM is read, so a placeholder element will do
    call = sim_call(name, V, n) if name in SIM_ENTRY_POINTS else eg_call(name, V, eg_code(n), ([np.eye(1)], None))

    def built(*args, **kwargs):
        raise AssertionError("n-fold array built before the budget check")

    for fn in ("word_products", "mean_word_product", "tensor_power"):
        monkeypatch.setattr(op, fn, built)
    monkeypatch.setenv("COVERTQ_MAX_BYTES", str(64 * 2**10))
    with traced() as trace, pytest.raises(BudgetExceededError, match="COVERTQ_MAX_BYTES"):
        call()
    assert trace.peak < 2**20


@pytest.mark.parametrize("name", ["sqrt_measurement_decoder", "square_root_povm"])
def test_dense_charge_checks_the_vectors_before_listing_the_pinching_blocks(monkeypatch, name):
    """The dense charge reads the largest pinching block off d**n-long vectors of the strings'
    eigenvalues: at an n where those vectors alone exceed the budget it exits before forming them."""
    call = sim_call(name, rotated_damping_isometry(), 16)
    monkeypatch.setenv("COVERTQ_MAX_BYTES", str(2**20))
    with traced() as trace, pytest.raises(BudgetExceededError, match="COVERTQ_MAX_BYTES"):
        call()
    assert trace.peak < 8 * 2**16  # one float vector of the 2**16 strings


# Three sizes per entry point and route, where the n-fold arrays outweigh
# numpy's fixed ufunc buffers (8192 elements per operand), which no charge counts.
SIM_SIZES = {
    "willie_average_state": {"commuting": (6, 7, 8), "dense": (5, 6, 7)},
    "willie_bin_state": {"commuting": (6, 7, 8), "dense": (5, 6, 7)},
    "resolvability_samples": {"commuting": (12, 14, 16), "dense": (5, 6, 7)},
    "covertness_report": {"commuting": (12, 14, 16), "dense": (5, 6, 7)},
    "secrecy_report": {"commuting": (12, 14, 16), "dense": (5, 6, 7)},
    "sqrt_measurement_decoder": {"commuting": (12, 14, 16), "dense": (5, 6, 7)},
    "square_root_povm": {"commuting": (5, 6, 7), "dense": (5, 6, 7)},
    "simulate": {"commuting": (12, 14, 16), "dense": (5, 6, 7)},
}


# A size per route where 4 resolvability samples or 4 secrecy bins of 4 words span
# two blocks of two codebooks.
SPANNING_N = {"commuting": 13, "dense": 6}


@pytest.mark.parametrize("route", sorted(ISOMETRIES))
@pytest.mark.parametrize("name", sorted(SIM_SIZES))
def test_sim_charges_bound_peaks(monkeypatch, name, route):
    V = ISOMETRIES[route]()
    for n in SIM_SIZES[name][route]:
        peak, charge = peak_and_charge(sim_call(name, V, n), monkeypatch)
        assert peak <= charge, f"n = {n}: peak {peak} above charge {charge}"
    if name in ("resolvability_samples", "secrecy_report"):
        n = SPANNING_N[route]
        quad = chn.build_covert_channel(V)
        k_size = 16 if name == "resolvability_samples" else 4
        assert cs._charge(name, cs.pair_route(quad.omega0, quad.omega1), n, k_size, 4) == 2
        peak, charge = peak_and_charge(sim_call(name, V, n, samples=4), monkeypatch)
        assert peak <= charge, f"n = {n} over two blocks: peak {peak} above charge {charge}"


def test_small_budget_shrinks_blocks_not_runs(monkeypatch):
    """A budget that fits one codebook's charge still runs 25 samples and 4 bins, one
    codebook per block, with the results of the default blocks."""
    quad = excitation_quadruple(0.25)
    cfg = cs.SimConfig(n=12, gamma=1.0, m_size=4, l_size=4, seed=3, samples=25)
    cb = cs.sample_codebook(cfg)
    route = cs.pair_route(quad.omega0, quad.omega1)
    want = cs.resolvability_samples(cfg, quad), cs.secrecy_report(cb, quad, cfg)
    monkeypatch.setenv("COVERTQ_MAX_BYTES", str(6 * 8 * 2**12 + 24 * 16 * 12))  # one codebook's charge
    assert cs._charge("resolvability_samples", route, cfg.n, 16, cfg.samples) == 1
    assert cs._charge("secrecy_report", route, cfg.n, 4, cfg.m_size) == 1
    got = cs.resolvability_samples(cfg, quad), cs.secrecy_report(cb, quad, cfg)
    assert np.array_equal(got[0], want[0]) and got[1] == want[1]


@pytest.mark.parametrize("route", sorted(ISOMETRIES))
@pytest.mark.parametrize("name", EG_ENTRY_POINTS)
def test_eg_charges_bound_peaks(monkeypatch, name, route):
    V = ISOMETRIES[route]()
    for n in (4, 5, 6) if name != "exact_string_povm" else (6, 7, 8):
        code = eg_code(n)
        povm = eg.exact_string_povm(code.words.reshape(-1, n), V.out_dim_b)
        peak, charge = peak_and_charge(eg_call(name, V, code, povm), monkeypatch)
        assert peak <= charge, f"n = {n}: peak {peak} above charge {charge}"


def test_exact_string_povm_refuses_oversize_word_list():
    words = np.eye(4, 16, dtype=np.uint8)  # 4 distinct words of 16 letters: 4 GiB per projector
    with traced() as trace, pytest.raises(BudgetExceededError, match="exact_string_povm"):
        eg.exact_string_povm(words)
    assert trace.peak < 2**20


def sweep_argv(steps, out):
    return ["sweep", "--gamma-from", "0.01", "--gamma-to", "0.99", "--steps", str(steps), "--out", str(out)]


@pytest.mark.parametrize("steps", [2000, 20000])
def test_sweep_charge_bounds_its_peak(monkeypatch, tmp_path, steps):
    out = tmp_path / "sweep.csv"
    peak, charge = peak_and_charge(lambda: main(sweep_argv(steps, out)), monkeypatch)
    assert out.exists()
    assert peak <= charge, f"{steps} steps: peak {peak} above charge {charge}"


def test_sweep_peak_past_one_chunk_grows_by_its_parameters_alone(tmp_path):
    # the rate columns are computed and written one chunk at a time; the whole sweep held about 930 bytes a step
    steps = (2 * cli._SWEEP_CHUNK, 10 * cli._SWEEP_CHUNK)
    peaks = []
    for n in steps:
        with traced() as trace:
            assert main(sweep_argv(n, tmp_path / "sweep.csv")) == 0
        peaks.append(trace.peak)
    assert peaks[1] - peaks[0] <= 8 * (steps[1] - steps[0]) + 2**18, peaks


def test_oversize_sweep_exits_before_writing(monkeypatch, tmp_path, capsys):
    # a budget below the charge of the parameters and one chunk refuses the sweep before it writes
    monkeypatch.setenv("COVERTQ_MAX_BYTES", str(2**20))
    assert main(sweep_argv(2000, tmp_path / "sweep.csv")) == 3
    assert "budget error: sweep of 2000 steps needs" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
