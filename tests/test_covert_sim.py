import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from support import (
    dense_decoder_errors, dense_square_root_povm, dense_trace_norm, eigen_log_qre, exact_classes, exact_eigenprojectors,
    excitation_quadruple, kron_chain, kron_chain_mean, past_the_check, random_density, random_unitary,
    rank_two_qutrit_pair, rotated, rotated_damping_quadruple, traced,
)

from covertq import channels as chn
from covertq import covert_sim as cs
from covertq import divergences as dv
from covertq import operators as op
from covertq.errors import (
    AssumptionViolationError, BudgetExceededError, DimMismatchError, IndexOutOfRangeError, InvalidParameterError,
    NotHermitianError, TrivialTestError,
)


def test_sample_codebook_determinism():
    cfg = cs.SimConfig(n=8, gamma=1.0, alpha=0.25, m_size=4, l_size=4, seed=42)
    cb1 = cs.sample_codebook(cfg)
    cb2 = cs.sample_codebook(cfg)
    assert np.array_equal(cb1.words, cb2.words)
    other = cs.sample_codebook(cfg, sample_index=1)
    assert not np.array_equal(cb1.words, other.words)


def test_sample_codebook_degenerate():
    zeros = cs.sample_codebook(cs.SimConfig(n=6, gamma=0.0, m_size=2, l_size=2, alpha=0.0))
    assert not zeros.words.any()
    ones = cs.sample_codebook(cs.SimConfig(n=6, gamma=0.0, m_size=2, l_size=2, alpha=1.0))
    assert ones.words.all()


def test_otp_encode():
    cfg = cs.SimConfig(n=4, gamma=0.5, m_size=2, l_size=4, seed=1)
    cb = cs.sample_codebook(cfg)
    assert np.array_equal(cs.otp_encode(1, 2, 0, cb), cb.words[1, 2])
    assert np.array_equal(cs.otp_encode(1, 3, 2, cb), cb.words[1, 1])  # wraps mod 4
    for m, m2, k in ((0, 0, 4), (0, 0, -1), (2, 0, 0), (-1, 0, 0), (0, 4, 0)):
        with pytest.raises(IndexOutOfRangeError):
            cs.otp_encode(m, m2, k, cb)


def test_otp_uniform_key_average():
    # averaging over a uniform key yields the bin state regardless of m2
    cfg = cs.SimConfig(n=3, gamma=0.5, m_size=2, l_size=4, seed=3)
    cb = cs.sample_codebook(cfg)
    quad = excitation_quadruple()
    for m in range(2):
        bin_state = cs.willie_bin_state(cb, quad, m)
        for m2 in range(4):
            avg = np.zeros_like(bin_state)
            for k in range(4):
                word = cs.otp_encode(m, m2, k, cb)
                avg += cs.product_state(word, quad.omega0, quad.omega1)
            np.testing.assert_allclose(avg / 4, bin_state, atol=1e-12)


def test_willie_average_trivial_cases():
    quad = excitation_quadruple()
    cb = cs.Codebook(np.zeros((1, 1, 3), dtype=np.uint8))
    np.testing.assert_allclose(
        cs.willie_average_state(cb, quad), op.tensor_power(quad.omega0, 3), atol=1e-12
    )
    words = np.array([[[0, 0]], [[1, 1]]], dtype=np.uint8)
    cb2 = cs.Codebook(words)
    expected = 0.5 * (
        np.kron(quad.omega0, quad.omega0) + np.kron(quad.omega1, quad.omega1)
    )
    np.testing.assert_allclose(cs.willie_average_state(cb2, quad), expected, atol=1e-12)


def test_willie_average_refuses_a_letter_outside_the_bits():
    # before, "03" was counted as the string "11"
    cb = cs.Codebook(np.array([[[0, 3]]], dtype=np.uint8))
    with pytest.raises(InvalidParameterError, match=r"outside \[0, 2\)"):
        cs.willie_average_state(cb, excitation_quadruple())


def test_codebook_shape_fields_must_match_words():
    # the sizes are read off the words, so they cannot disagree with them
    cfg = cs.SimConfig(n=5, gamma=0.6, m_size=3, l_size=2, seed=1)
    cb = cs.sample_codebook(cfg)
    assert cb.words.shape == (cb.m_size, cb.l_size, cb.n) == (3, 2, 5)
    with pytest.raises(AttributeError):
        cb.n = 4
    for words in (np.zeros((4, 4), dtype=np.uint8), np.zeros((1, 2, 2, 4), dtype=np.uint8)):
        with pytest.raises(DimMismatchError, match="shape"):
            cs.Codebook(words)
        with pytest.raises(DimMismatchError, match="shape"):
            replace(cb, words=words)  # replace builds through the same check
    listed = cs.Codebook([[[0, 1, 1]], [[1, 0, 0]]])
    assert isinstance(listed.words, np.ndarray) and (listed.m_size, listed.l_size, listed.n) == (2, 1, 3)


@pytest.mark.parametrize("shape", [(2, 2, 4), (4, 1, 8), (1, 4, 8), (2, 2, 9)], ids=lambda s: "x".join(map(str, s)))
@pytest.mark.parametrize("stage", [cs.covertness_report, cs.secrecy_report, cs.sqrt_measurement_decoder], ids=lambda f: f.__name__)
def test_stages_refuse_a_codebook_that_does_not_fit_the_config(stage, shape):
    # unchecked, a codebook of n = 4 with an n = 8 config reported dReference 0.0316 for 0.0632
    quad = excitation_quadruple()
    cfg = cs.SimConfig(n=8, gamma=0.6, m_size=2, l_size=2)
    m_size, l_size, n = shape
    drawn = cs.sample_codebook(replace(cfg, n=n, m_size=m_size, l_size=l_size, alpha=None))
    with pytest.raises(DimMismatchError, match="config"):
        stage(drawn, quad, cfg)
    stage(cs.sample_codebook(cfg), quad, cfg)


def test_willie_average_full_population():
    # all 2^n strings equally weighted give the n-fold uniform mixture
    quad = excitation_quadruple()
    n = 3
    words = np.array([[list(w)] for w in itertools.product([0, 1], repeat=n)], dtype=np.uint8)
    cb = cs.Codebook(words)
    mixed = chn.mixed_output(quad, 0.5)
    np.testing.assert_allclose(
        cs.willie_average_state(cb, quad), op.tensor_power(mixed, n), atol=1e-12
    )


def test_commuting_fast_path_matches_dense():
    quad = excitation_quadruple()
    for seed in range(5):
        cfg = cs.SimConfig(n=6, gamma=0.6, m_size=4, l_size=2, seed=seed)
        cb = cs.sample_codebook(cfg)
        want = kron_chain_mean(cb.words.reshape(-1, cb.n), (quad.omega0, quad.omega1))
        np.testing.assert_allclose(cs.willie_average_state(cb, quad), want, atol=1e-10)


def test_willie_average_is_density():
    quad = excitation_quadruple()
    cfg = cs.SimConfig(n=6, gamma=0.6, m_size=4, l_size=4, seed=9)
    cb = cs.sample_codebook(cfg)
    avg = cs.willie_average_state(cb, quad)
    assert np.trace(avg).real == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.eigvalsh(avg).min() > -1e-9


def test_willie_bin_state():
    quad = excitation_quadruple()
    words = np.array([[[0, 1], [1, 0]]], dtype=np.uint8)
    cb = cs.Codebook(words)
    expected = 0.5 * (
        np.kron(quad.omega0, quad.omega1) + np.kron(quad.omega1, quad.omega0)
    )
    np.testing.assert_allclose(cs.willie_bin_state(cb, quad, 0), expected, atol=1e-12)
    with pytest.raises(IndexOutOfRangeError):
        cs.willie_bin_state(cb, quad, 1)


def test_budget():
    quad = excitation_quadruple()
    cb = cs.Codebook(np.zeros((1, 1, 40), dtype=np.uint8))
    with pytest.raises(BudgetExceededError):
        cs.willie_average_state(cb, quad)


def test_resolvability_budget(monkeypatch):
    # below the n = 6 charge of either route (3648 bytes on the commuting one)
    monkeypatch.setenv("COVERTQ_MAX_BYTES", "3000")
    exc = excitation_quadruple()
    omega0 = np.array([[0.7, 0.2], [0.2, 0.3]])
    omega1 = np.array([[0.4, 0.1], [0.1, 0.6]])
    dense = chn.BinaryCovertChannel(exc.sigma0, exc.sigma1, omega0, omega1)
    assert cs.shared_eigenbasis(exc.omega0, exc.omega1) is not None
    assert cs.shared_eigenbasis(omega0, omega1) is None
    cfg = cs.SimConfig(n=6, gamma=0.5, m_size=2, l_size=2, samples=2)
    for quad in (exc, dense):
        with pytest.raises(BudgetExceededError):
            cs.resolvability_samples(cfg, quad)
        with pytest.raises(BudgetExceededError):
            cs.resolvability_experiment(cfg, quad)


def test_covertness_report_all_zero():
    quad = excitation_quadruple()
    cfg = cs.SimConfig(n=4, gamma=0.5, m_size=2, l_size=2, seed=0, alpha=0.25)
    cb = cs.Codebook(np.zeros((2, 2, 4), dtype=np.uint8))
    rep = cs.covertness_report(cb, quad, cfg)
    assert rep.dCovert == pytest.approx(0.0, abs=1e-9)
    assert rep.helstromError == pytest.approx(0.5, abs=1e-9)


@pytest.mark.parametrize("n", range(4, 11))
def test_dcovert_on_a_dense_pair_equals_the_eigen_log_oracle(n):
    # omega0's smallest eigenvalue is 0.0029, so omega0^(x)n's falls below 1e-10 from n = 4 on: the n-fold
    # support test read dCovert as inf there, for 2.1514801991 at n = 4 and 1.4530452847 at n = 10
    quad = rotated_damping_quadruple()
    size = 2 if n <= 5 else 4
    cfg = cs.SimConfig(n=n, gamma=0.6, m_size=size, l_size=size, seed=n)
    cb = cs.sample_codebook(cfg)
    want = eigen_log_qre(cs.willie_average_state(cb, quad), quad.omega0, n)
    assert cs.covertness_report(cb, quad, cfg).dCovert == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("n", [20, 21, 22])
def test_commuting_dcovert_at_large_n_equals_the_vector_oracle(n):
    # dropping the n-fold entries at or below 1e-10 biased dCovert upward: 5.0e-4 relative at n = 22
    quad = excitation_quadruple(0.25)
    cfg = cs.SimConfig(n=n, gamma=0.6, m_size=4, l_size=4, seed=n)
    cb = cs.sample_codebook(cfg)
    table = cs.pair_route(quad.omega0, quad.omega1).table
    want = eigen_log_qre(op.mean_word_product(cb.words.reshape(-1, n), table), table[0], n)
    assert cs.covertness_report(cb, quad, cfg).dCovert == pytest.approx(want, rel=1e-12)


@st.composite
def validated_campaigns(draw):
    """A validated quadruple of d <= 3 whose warden pair is random (dense) or shares a random eigenbasis
    (commuting), and a codebook config of n <= 5."""
    d = draw(st.sampled_from([2, 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        omega0, omega1 = random_density(rng, d), random_density(rng, d, full_rank=draw(st.booleans()))
    else:
        unitary = random_unitary(rng, d)
        omega0, omega1 = (rotated(unitary, rng.dirichlet(np.ones(d))) for _ in range(2))
    cfg = cs.SimConfig(n=draw(st.integers(1, 5)), gamma=0.0, alpha=draw(st.floats(0.05, 0.95)),
                       m_size=draw(st.integers(1, 3)), l_size=draw(st.integers(1, 3)), seed=draw(st.integers(0, 2**16)))
    return chn.BinaryCovertChannel(omega0, omega1, omega0, omega1), cfg


@settings(max_examples=40, deadline=None)
@given(validated_campaigns())
def test_dcovert_equals_qre_against_the_dense_power(campaign):
    # where omega0^(x)n is well inside the n-fold support tolerance, both forms agree
    quad, cfg = campaign
    ref = op.tensor_power(quad.omega0, cfg.n)
    assume(np.min(np.linalg.eigvalsh(ref)) > 1e-6)
    cb = cs.sample_codebook(cfg)
    want = dv.qre(cs.willie_average_state(cb, quad), ref)
    assert cs.covertness_report(cb, quad, cfg).dCovert == pytest.approx(want, rel=1e-10, abs=1e-10)


def test_codebook_refuses_non_integral_letters():
    # read as its integer part, the word (0.7, 1) had the warden state of 01
    with pytest.raises(InvalidParameterError, match="not an integer"):
        cs.willie_average_state(cs.Codebook(np.array([[[0.7, 1.0]]])), excitation_quadruple())


def test_covertness_report_identities():
    quad = excitation_quadruple()
    cfg = cs.SimConfig(n=6, gamma=0.25 * math.sqrt(6), m_size=4, l_size=4, seed=42)
    cb = cs.sample_codebook(cfg)
    rep = cs.covertness_report(cb, quad, cfg)
    avg = cs.willie_average_state(cb, quad)
    ref = op.tensor_power(quad.omega0, 6)
    # Helstrom identity
    assert rep.helstromError == pytest.approx(dv.helstrom_error(avg, ref), abs=1e-12)
    assert rep.helstromError >= rep.pinskerLowerBound - 1e-12
    # Pinsker on the covertness pair
    assert 0.5 * op.trace_norm(avg - ref) <= math.sqrt(0.5 * rep.dCovert) + 1e-12
    # additivity of the reference divergence
    mixed = chn.mixed_output(quad, cfg.alpha)
    assert rep.dReference == pytest.approx(
        dv.qre(op.tensor_power(mixed, 6), ref), abs=1e-9
    )


def test_pinsker_lower_bound_reads_zero_when_vacuous(monkeypatch):
    # 1/2 (1 - sqrt(dCovert / 2)) is negative from dCovert = 2 on; it read -0.0186 at dCovert = 2.15
    cfg = cs.SimConfig(n=4, gamma=0.6, m_size=2, l_size=2, seed=4)
    rep = cs.covertness_report(cs.sample_codebook(cfg), rotated_damping_quadruple(), cfg)
    assert 2.0 < rep.dCovert < math.inf and rep.pinskerLowerBound == 0.0
    # omega1 off supp omega0 makes dCovert inf; the constructor refuses such a quadruple, which is outside the
    # covert setting and has no resolvability bound, so the report reaches it past the check without one
    quad = excitation_quadruple()
    with pytest.raises(AssumptionViolationError, match=r"^supp\(omega1\) not contained in supp\(omega0\)$"):
        chn.BinaryCovertChannel(quad.sigma0, quad.sigma1, quad.omega1, quad.omega0)
    monkeypatch.setattr(cs, "resolvability_rhs", lambda cfg, ch: math.nan)
    swapped = past_the_check(quad, omega0=quad.omega1, omega1=quad.omega0)
    rep = cs.covertness_report(cs.sample_codebook(cfg), swapped, cfg)
    assert rep.dCovert == math.inf and rep.pinskerLowerBound == 0.0


def test_secrecy_report():
    quad = excitation_quadruple()
    cfg = cs.SimConfig(n=4, gamma=0.5, m_size=2, l_size=1, seed=0, alpha=0.25)
    cb = cs.Codebook(np.zeros((2, 1, 4), dtype=np.uint8))
    rep = cs.secrecy_report(cb, quad, cfg)
    mixed = op.tensor_power(chn.mixed_output(quad, 0.25), 4)
    expected = op.trace_norm(op.tensor_power(quad.omega0, 4) - mixed)
    for d in rep.perBinDistances:
        assert d == pytest.approx(expected, abs=1e-10)
    assert rep.averageLeakage == pytest.approx(np.mean(rep.perBinDistances))


def test_resolvability_alpha_zero():
    quad = excitation_quadruple()
    cfg = cs.SimConfig(n=5, gamma=0.0, m_size=4, l_size=1, seed=0, samples=3, alpha=0.0)
    mean, rhs, holds = cs.resolvability_experiment(cfg, quad)
    assert mean == pytest.approx(0.0, abs=1e-12)
    assert holds


def test_resolvability_bound_holds():
    quad = excitation_quadruple()
    cfg = cs.SimConfig(n=6, gamma=1.0, alpha=0.25, m_size=16, l_size=1, seed=7, samples=30)
    mean, rhs, holds = cs.resolvability_experiment(cfg, quad)
    assert holds
    assert mean > 0.0


def test_sqrt_decoder_single_codeword():
    quad = excitation_quadruple()
    cfg = cs.SimConfig(n=4, gamma=0.5, m_size=1, l_size=1, seed=0, a_threshold=0.1)
    cb = cs.Codebook(np.array([[[0, 1, 0, 1]]], dtype=np.uint8))
    rep = cs.sqrt_measurement_decoder(cb, quad, cfg)
    # with one codeword S = Pi so Upsilon = Pi
    elements, _ = cs.square_root_povm([cb.words[0, 0]], quad.sigma0, quad.sigma1, 0.1)
    sig = cs.product_state(cb.words[0, 0], quad.sigma0, quad.sigma1)
    expected = 1.0 - np.trace(elements[0] @ sig).real
    assert rep.perMessageError[(0, 0)] == pytest.approx(expected, abs=1e-12)


def test_sqrt_decoder_identical_codewords():
    quad = excitation_quadruple()
    word = np.array([0, 1, 1, 0], dtype=np.uint8)
    elements, _ = cs.square_root_povm([word, word], quad.sigma0, quad.sigma1, 0.05)
    single, _ = cs.square_root_povm([word], quad.sigma0, quad.sigma1, 0.05)
    np.testing.assert_allclose(elements[0], 0.5 * single[0], atol=1e-10)
    np.testing.assert_allclose(elements[1], 0.5 * single[0], atol=1e-10)


def test_sqrt_povm_is_valid_measurement():
    quad = excitation_quadruple()
    rng = np.random.default_rng(11)
    words = rng.integers(0, 2, size=(4, 5)).astype(np.uint8)
    elements, abstain = cs.square_root_povm(list(words), quad.sigma0, quad.sigma1, 0.2)
    total = sum(elements) + abstain
    np.testing.assert_allclose(total, np.eye(2**5), atol=1e-9)
    for e in elements + [abstain]:
        assert np.linalg.eigvalsh((e + e.conj().T) / 2).min() > -1e-9


def test_covertness_scaling():
    quad = excitation_quadruple(0.25)
    values, target = cs.covertness_scaling(quad, 0.7, [16, 64, 144])
    assert target == pytest.approx(0.5 * 0.7**2 * (1.0 / 3.0), abs=1e-12)
    devs = [abs(v - target) / target for _, v in values]
    assert devs[0] > devs[1] > devs[2]
    assert devs[-1] < 0.05


# ---------------------------------------------------------------------------
# Commuting route versus dense recomputations on degenerate spectra


def commuting_pair(unitary, d0, d1):
    """U diag(d0) U^dag and U diag(d1) U^dag."""
    return tuple(rotated(unitary, np.asarray(d, dtype=float)) for d in (d0, d1))


def dense_resolvability(cfg, quad):
    mixed = kron_chain([0] * cfg.n, [chn.mixed_output(quad, cfg.alpha)])
    out = []
    for i in range(cfg.samples):
        words = cs.sample_codebook(cfg, sample_index=i).words.reshape(-1, cfg.n)
        out.append(dense_trace_norm(kron_chain_mean(words, (quad.omega0, quad.omega1)) - mixed))
    return np.array(out)


def degenerate_block_quadruple():
    """omega0 = Q diag(.5, .25, .25) Q^dag, omega1 = Q diag(0, 1, 0) Q^dag."""
    w0, w1 = commuting_pair(random_unitary(np.random.default_rng(5), 3), [0.5, 0.25, 0.25], [0.0, 1.0, 0.0])
    return chn.BinaryCovertChannel(w0, w1, w0, w1)


@pytest.mark.parametrize("seed, d0, d1", [
    pytest.param(5, [0.5, 0.25, 0.25], [0.0, 1.0, 0.0], id="block"),  # degenerate_block_quadruple's pair
    pytest.param(6, [0.5, 0.3, 0.2], [0.1, 0.45, 0.45], id="degenerate-in-b"),
    pytest.param(7, [0.4, 0.4, 0.1, 0.1], [0.7, 0.1, 0.1, 0.1], id="degenerate-in-both"),
    pytest.param(8, [0.25, 0.25, 0.25, 0.25], [0.6, 0.2, 0.2, 0.0], id="a-multiple-of-identity"),
    pytest.param(9, [0.3, 0.3, 0.3, 0.1], [0.4, 0.4, 0.1, 0.1], id="both-crossing"),
    pytest.param(None, [0.2, 0.5, 0.3], [0.3, 0.3, 0.4], id="diagonal"),  # U is a permutation
])
def test_shared_eigenbasis_degenerate_block(seed, d0, d1):
    unitary = np.eye(len(d0)) if seed is None else random_unitary(np.random.default_rng(seed), len(d0))
    a, b = commuting_pair(unitary, d0, d1)
    U, p0, p1 = cs.shared_eigenbasis(a, b)
    assert U.shape == a.shape
    np.testing.assert_allclose(U.conj().T @ U, np.eye(len(d0)), atol=1e-12)
    np.testing.assert_allclose((U * p0) @ U.conj().T, a, atol=1e-12)
    np.testing.assert_allclose((U * p1) @ U.conj().T, b, atol=1e-12)
    assert list(p0) == sorted(p0, reverse=True)  # a's eigenspaces, largest first
    assert cs.shared_eigenbasis(np.diag([1.0, 0.0]), np.ones((2, 2)) / 2) is None


def test_shared_eigenbasis_checks_both_operands():
    # b commutes with I but is not even diagonalisable; unchecked, it read as eigenvalues [-1, 1]
    nilpotent = np.array([[0.0, 1.0], [0.0, 0.0]])
    for a, b in ((np.eye(2), nilpotent), (nilpotent, np.eye(2))):
        with pytest.raises(NotHermitianError):
            cs.shared_eigenbasis(a, b)


def test_degenerate_pair_regression():
    quad = degenerate_block_quadruple()
    for k in (1, 4, 16):
        cfg = cs.SimConfig(n=4, gamma=0.0, alpha=0.3, m_size=k, l_size=1, seed=0, samples=3)
        np.testing.assert_allclose(
            cs.resolvability_samples(cfg, quad), dense_resolvability(cfg, quad), atol=1e-9
        )
        cb = cs.sample_codebook(cfg)
        dense = kron_chain_mean(cb.words.reshape(-1, 4), (quad.omega0, quad.omega1))
        np.testing.assert_allclose(cs.willie_average_state(cb, quad), dense, atol=1e-9)


@st.composite
def degenerate_commuting_pairs(draw, d):
    """A commuting pair of density matrices whose first spectrum repeats a value."""
    seed = draw(st.integers(0, 2**32 - 1))
    head = draw(st.lists(st.integers(1, 3), min_size=d - 1, max_size=d - 1))
    w0 = np.array(head + [head[-1]], dtype=float)
    w1 = np.array(draw(st.lists(st.integers(0, 3), min_size=d, max_size=d)), dtype=float)
    assume(w1.sum() > 0)
    unitary = random_unitary(np.random.default_rng(seed), d)
    return commuting_pair(unitary, w0 / w0.sum(), w1 / w1.sum())


@st.composite
def degenerate_campaigns(draw):
    d = draw(st.sampled_from([2, 3]))
    omega0, omega1 = draw(degenerate_commuting_pairs(d))
    assume(op.trace_norm(omega1 - omega0) > op.DEFAULT_TOL.support)  # omega1 = omega0 is outside the covert setting
    sigma0, sigma1 = draw(degenerate_commuting_pairs(d))
    cfg = cs.SimConfig(
        n=draw(st.integers(1, 3)), gamma=0.0,
        alpha=draw(st.floats(0.05, 0.95)),
        m_size=draw(st.integers(1, 3)), l_size=draw(st.integers(1, 3)),
        seed=draw(st.integers(0, 2**16)), samples=2,
        # irrational e^a keeps every threshold entry far from a tie
        a_threshold=draw(st.sampled_from([-0.5, 0.3, 1.0])),
    )
    return chn.BinaryCovertChannel(sigma0, sigma1, omega0, omega1), cfg


@settings(max_examples=40, deadline=None)
@given(degenerate_campaigns())
def test_commuting_route_matches_dense(campaign):
    quad, cfg = campaign
    n = cfg.n
    cb = cs.sample_codebook(cfg)
    words = cb.words.reshape(-1, n)
    avg = kron_chain_mean(words, (quad.omega0, quad.omega1))
    ref0 = kron_chain([0] * n, [quad.omega0])
    mixed = kron_chain([0] * n, [chn.mixed_output(quad, cfg.alpha)])

    np.testing.assert_allclose(cs.willie_average_state(cb, quad), avg, atol=1e-9)
    np.testing.assert_allclose(cs.resolvability_samples(cfg, quad), dense_resolvability(cfg, quad), atol=1e-9)

    cov = cs.covertness_report(cb, quad, cfg)
    assert cov.dCovert == pytest.approx(dv.qre(avg, ref0), abs=1e-9)
    assert cov.traceDistToMixed == pytest.approx(dense_trace_norm(avg - mixed), abs=1e-9)
    assert cov.helstromError == pytest.approx(0.5 * (1.0 - 0.5 * dense_trace_norm(avg - ref0)), abs=1e-9)

    sec = cs.secrecy_report(cb, quad, cfg)
    bins = [kron_chain_mean(cb.words[m], (quad.omega0, quad.omega1)) for m in range(cfg.m_size)]
    np.testing.assert_allclose(sec.perBinDistances, [dense_trace_norm(b - mixed) for b in bins], atol=1e-9)

    dec = cs.sqrt_measurement_decoder(cb, quad, cfg)
    elements, _ = dense_square_root_povm(words, quad.sigma0, quad.sigma1, cfg.a_threshold)
    expected = dense_decoder_errors(elements, words, (quad.sigma0, quad.sigma1))
    np.testing.assert_allclose(list(dec.perMessageError.values()), expected, atol=1e-9)


@st.composite
def degenerate_povm_cases(draw):
    d = draw(st.sampled_from([2, 3]))
    sigma0, sigma1 = draw(degenerate_commuting_pairs(d))
    n = draw(st.integers(1, 3))
    words = draw(st.lists(st.lists(st.integers(0, 1), min_size=n, max_size=n), min_size=1, max_size=4))
    # irrational e^a keeps every threshold entry far from a tie
    a = draw(st.sampled_from([-0.5, 0.3, 1.0]))
    return np.array(words, dtype=np.uint8), sigma0, sigma1, a


@settings(max_examples=40, deadline=None)
@given(degenerate_povm_cases())
def test_square_root_povm_commuting_matches_dense(case):
    words, sigma0, sigma1, a = case
    elements, abstain = cs.square_root_povm(list(words), sigma0, sigma1, a)
    want, want_abstain = dense_square_root_povm(words, sigma0, sigma1, a)
    assert len(elements) == len(want)
    for got, ref in zip(elements, want):
        np.testing.assert_allclose(got, ref, atol=1e-9)
    np.testing.assert_allclose(abstain, want_abstain, atol=1e-9)


@pytest.mark.parametrize("case", ["excitation", "diagonal", "rotated"])
def test_permutation_basis_povm_equals_the_product(case):
    # a permutation basis writes each element onto its diagonal; any other takes (Un * w) @ Un^dag
    if case == "excitation":
        quad = excitation_quadruple(0.25)
        pair = quad.sigma0, quad.sigma1
    elif case == "diagonal":  # the larger eigenvalue of sigma0 comes second, so U swaps the two
        pair = np.diag([0.3, 0.7]).astype(complex), np.diag([0.6, 0.4]).astype(complex)
    else:
        pair = commuting_pair(random_unitary(np.random.default_rng(3), 2), [0.7, 0.3], [0.4, 0.6])
    route = cs.pair_route(*pair)
    if case == "rotated":  # not a permutation: a write onto the diagonal would differ from the product
        assert np.count_nonzero(route.basis - np.diag(np.diag(route.basis)))
    else:
        assert np.array_equal(route.basis, np.eye(2)[::-1] if case == "diagonal" else np.eye(2))
    words = np.array([[0, 1, 1], [1, 0, 0], [0, 0, 1], [1, 1, 1]], dtype=np.uint8)
    elements, _ = cs.povm_on_route(list(words), route, 0.3)
    weights = cs._srm_weights(words, route.table, 0.3)[1]
    Un = op.tensor_power(route.basis, 3)
    assert np.any(weights)
    for got, w in zip(elements, weights):
        assert np.array_equal(got, (Un * w) @ Un.conj().T)


def test_commuting_route_rejects_non_hermitian_sigma1():
    # both sigma1 commute with their sigma0, so the pair takes the commuting route
    skew = np.array([[0.5, 0.1], [-0.1, 0.5]])
    complex_diag = np.diag([0.5 + 0.1j, 0.5 - 0.1j])
    exc = excitation_quadruple()
    cfg = cs.SimConfig(n=2, gamma=0.5, m_size=2, l_size=1, seed=4, a_threshold=0.1)
    cb = cs.sample_codebook(cfg)
    for sigma0, sigma1 in ((np.eye(2) / 2, skew), (np.diag([0.7, 0.3]), complex_diag)):
        assert np.allclose(sigma0 @ sigma1, sigma1 @ sigma0)
        with pytest.raises(NotHermitianError):
            cs.square_root_povm([np.array([0, 1], dtype=np.uint8)], sigma0, sigma1, 0.1)
        # the constructor refuses the pair as either party's outputs, and each stage still refuses it past the check
        with pytest.raises(NotHermitianError):
            chn.BinaryCovertChannel(sigma0, sigma1, exc.omega0, exc.omega1)
        with pytest.raises(NotHermitianError):
            chn.BinaryCovertChannel(exc.sigma0, exc.sigma1, sigma0, sigma1)
        with pytest.raises(NotHermitianError):
            cs.sqrt_measurement_decoder(cb, past_the_check(exc, sigma0=sigma0, sigma1=sigma1), cfg)
        warden = past_the_check(exc, omega0=sigma0, omega1=sigma1)
        for report in (
            lambda: cs.secrecy_report(cb, warden, cfg),
            lambda: cs.resolvability_samples(cfg, warden),
            lambda: cs.willie_average_state(cb, warden),
        ):
            with pytest.raises(NotHermitianError):
                report()


def test_sqrt_decoder_dense_route():
    sigma0 = np.array([[0.7, 0.2], [0.2, 0.3]])
    sigma1 = np.array([[0.4, 0.1], [0.1, 0.6]])
    assert cs.shared_eigenbasis(sigma0, sigma1) is None
    assert cs.pair_route(sigma0, sigma1).name == "dense"
    exc = excitation_quadruple()
    quad = chn.BinaryCovertChannel(sigma0, sigma1, exc.omega0, exc.omega1)
    cfg = cs.SimConfig(n=3, gamma=0.5, m_size=2, l_size=2, seed=4, a_threshold=0.2)
    cb = cs.sample_codebook(cfg)
    words = cb.words.reshape(-1, 3)
    elements, _ = cs.square_root_povm(list(words), sigma0, sigma1, 0.2)
    expected = dense_decoder_errors(elements, words, (sigma0, sigma1))
    rep = cs.sqrt_measurement_decoder(cb, quad, cfg)
    np.testing.assert_allclose(list(rep.perMessageError.values()), expected, atol=1e-12)


def test_sim_config_rejects_nonpositive_samples():
    for samples in (0, -3):
        with pytest.raises(InvalidParameterError, match="samples"):
            cs.SimConfig(n=6, gamma=0.5, m_size=2, l_size=2, samples=samples)


@pytest.mark.parametrize("alpha", [-0.1, 1.5, math.nan])
def test_sim_config_rejects_alpha_outside_the_unit_interval(alpha):
    with pytest.raises(InvalidParameterError, match="alpha"):
        cs.SimConfig(n=6, gamma=0.5, m_size=2, l_size=2, alpha=alpha)


def test_sim_config_rejects_seed_outside_uint64():
    for seed in (-1, 2**64):
        with pytest.raises(InvalidParameterError, match="seed"):
            cs.SimConfig(n=6, gamma=0.5, m_size=2, l_size=2, seed=seed)
    assert cs.SimConfig(n=6, gamma=0.5, m_size=2, l_size=2, seed=2**64 - 1).seed == 2**64 - 1


@pytest.mark.parametrize("field, value", [
    ("seed", 1.5), ("seed", np.float64(2.0)), ("seed", True), ("n", 2.5), ("n", np.float64(4.0)),
    ("m_size", 2.0), ("l_size", np.True_), ("samples", False), ("samples", "3"),
])
def test_sim_config_rejects_non_integers(field, value):
    # seed = 1.5 used to draw seed 1's codebook
    with pytest.raises(InvalidParameterError, match=f"^{field} = .* is not an integer"):
        cs.SimConfig(**{"n": 4, "gamma": 0.5, "m_size": 2, "l_size": 2, field: value})


def test_sim_config_takes_numpy_integers_as_ints():
    fields = {"n": 4, "m_size": 2, "l_size": 3, "samples": 2, "seed": 2**63 + 5}
    cfg = cs.SimConfig(gamma=0.5, **{k: np.uint64(v) if k == "seed" else np.int64(v) for k, v in fields.items()})
    assert {k: getattr(cfg, k) for k in fields} == fields
    assert all(type(getattr(cfg, k)) is int for k in fields)
    plain = cs.SimConfig(gamma=0.5, **fields)
    assert cfg == plain
    assert np.array_equal(cs.sample_codebook(cfg, 1).words, cs.sample_codebook(plain, 1).words)


@pytest.mark.parametrize("make_quad", [excitation_quadruple, rotated_damping_quadruple])
def test_codebook_averages_skip_per_word_products(monkeypatch, make_quad):
    quad = make_quad()
    cfg = cs.SimConfig(n=3, gamma=0.8, m_size=2, l_size=4, seed=6, samples=3)  # bins of L > n words
    cb = cs.sample_codebook(cfg)
    mixed = kron_chain([0] * cfg.n, [chn.mixed_output(quad, cfg.alpha)])
    table = (quad.omega0, quad.omega1)
    want_avg = kron_chain_mean(cb.words.reshape(-1, cfg.n), table)
    want_bins = [dense_trace_norm(kron_chain_mean(bin_words, table) - mixed) for bin_words in cb.words]
    want_res = dense_resolvability(cfg, quad)

    def per_word(*args, **kwargs):
        raise AssertionError("codebook average built from per-word products")

    one_word_products = op.word_products
    calls = []

    def one_word(words, table):
        # the n-fold references are single words; a codebook is not
        assert np.ndim(words) == 1, "codebook average built from per-word products"
        calls.append(words)
        return one_word_products(words, table)

    def counted(report, *args):
        calls.clear()
        out = report(*args)
        # a few references per report, not one product per codeword
        assert len(calls) <= 2 < cb.m_size * cb.l_size
        return out

    monkeypatch.setattr(cs, "product_state", per_word)
    monkeypatch.setattr(op, "word_products", one_word)
    avg = counted(cs.willie_average_state, cb, quad)
    np.testing.assert_allclose(avg, want_avg, atol=1e-12)
    sec = counted(cs.secrecy_report, cb, quad, cfg)
    np.testing.assert_allclose(sec.perBinDistances, want_bins, atol=1e-10)
    cov = counted(cs.covertness_report, cb, quad, cfg)
    assert cov.traceDistToMixed == pytest.approx(dense_trace_norm(want_avg - mixed), abs=1e-10)
    np.testing.assert_allclose(counted(cs.resolvability_samples, cfg, quad), want_res, atol=1e-10)


def test_resolvability_memory_independent_of_codebook_size(monkeypatch):
    monkeypatch.setenv("COVERTQ_MAX_BYTES", str(8 * 2**20))  # the charge fits the peak bound below
    quad = excitation_quadruple()
    cfg = cs.SimConfig(n=16, gamma=1.0, m_size=32, l_size=32, seed=5, samples=2)
    with traced() as trace:
        distances = cs.resolvability_samples(cfg, quad)
    # one codebook's 2**16 counts and d**16 average, not K = 1024 rows of them
    assert trace.peak < 8 * 2**20
    assert np.all((distances > 0.0) & (distances < 2.0))


def test_average_budget_counts_words_for_one_dimensional_warden():
    # a one-dimensional warden's outputs coincide, so the covert setting excludes it; a one-dimensional
    # receiver's pair is allowed, and max(d, 2)**n still charges its decoder the 2**n word counts
    exc = excitation_quadruple()
    trivial = np.ones((1, 1))
    with pytest.raises(TrivialTestError, match="^warden outputs coincide"):
        chn.BinaryCovertChannel(exc.sigma0, exc.sigma1, trivial, trivial)
    quad = chn.BinaryCovertChannel(trivial, trivial, exc.omega0, exc.omega1)
    cfg = cs.SimConfig(n=40, gamma=0.5, m_size=2, l_size=2)
    with pytest.raises(BudgetExceededError):
        cs.sqrt_measurement_decoder(cs.Codebook(np.zeros((2, 2, 40), dtype=np.uint8)), quad, cfg)


def test_resolvability_rhs_matches_grid_loop():
    for quad, cfg in (
        (excitation_quadruple(), cs.SimConfig(n=8, gamma=1.0, m_size=4, l_size=4)),
        (rotated_damping_quadruple(), cs.SimConfig(n=5, gamma=0.6, m_size=8, l_size=2)),
    ):
        ensemble = dv.CqEnsemble(np.array([1.0 - cfg.alpha, cfg.alpha]), (quad.omega0, quad.omega1))
        nu = dv.distinct_eigenvalue_count(chn.mixed_output(quad, cfg.alpha), cfg.n)
        betas = cs._default_beta_grid(cfg, quad)
        best = math.inf
        for s in (-1.0, -0.5, -0.25, -0.1, -0.05):
            phi_s = dv.phi(s, ensemble)
            for beta in betas:
                first = 2.0 * math.sqrt(math.exp(beta * s + cfg.n * phi_s))
                second = math.sqrt(math.exp(beta) * nu / (cfg.m_size * cfg.l_size))
                best = min(best, first + second)
        assert cs.resolvability_rhs(cfg, quad) == pytest.approx(best, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("make_quad", [excitation_quadruple, rotated_damping_quadruple])
def test_block_size_does_not_change_results(monkeypatch, make_quad):
    """Codebooks averaged one per block or all in one block give the same bits."""
    quad = make_quad()
    cfg = cs.SimConfig(n=4, gamma=0.8, m_size=5, l_size=3, seed=8, samples=7)
    cb = cs.sample_codebook(cfg, 2)
    results = []
    for block_bytes in (1, 2**40):  # one codebook per block; every codebook in one block
        monkeypatch.setattr(cs, "_BLOCK_BYTES", block_bytes)
        route = cs.pair_route(quad.omega0, quad.omega1)
        block = cs._charge("resolvability_samples", route, cfg.n, 15, cfg.samples)
        assert block == (1 if block_bytes == 1 else cfg.samples)
        results.append((cs.resolvability_samples(cfg, quad), cs.secrecy_report(cb, quad, cfg)))
    (res_one, sec_one), (res_all, sec_all) = results
    assert np.array_equal(res_one, res_all)
    assert np.array_equal(sec_one.perBinDistances, sec_all.perBinDistances)
    assert sec_one.averageLeakage == sec_all.averageLeakage


def test_sample_codebook_matches_fresh_philox_draws():
    """Every codebook, drawn alone or by the blocked sampler, is the draw of a fresh
    Philox keyed (seed, index), whatever other draws came before it."""
    quad = excitation_quadruple()
    cfg = cs.SimConfig(n=5, gamma=0.9, m_size=3, l_size=2, seed=2**63 + 9, samples=6)
    other = replace(cfg, n=7, m_size=2, seed=1, samples=3)
    route = cs.pair_route(quad.omega0, quad.omega1)
    mixed = cs._mixed_reference(route.table, cfg.alpha, cfg.n)
    distances = []
    for i in range(cfg.samples):
        cs.sample_codebook(other, i + 3)  # draws of another campaign in between
        cs.resolvability_samples(other, quad)
        rng = np.random.Generator(np.random.Philox(key=np.array([cfg.seed, i], dtype=np.uint64)))
        want = (rng.random((cfg.m_size, cfg.l_size, cfg.n)) < cfg.alpha).astype(np.uint8)
        assert np.array_equal(cs.sample_codebook(cfg, i).words, want)
        distances.append(route.distance(op.mean_word_product(want.reshape(-1, cfg.n), route.table) - mixed))
    assert np.array_equal(cs.resolvability_samples(cfg, quad), distances)


def test_one_shared_eigenbasis_per_pair_per_channel(monkeypatch):
    calls = []
    shared = cs.shared_eigenbasis
    monkeypatch.setattr(cs, "shared_eigenbasis", lambda a, b: calls.append((a, b)) or shared(a, b))
    quad = excitation_quadruple()
    for k in (16, 64, 256):
        cs.resolvability_experiment(cs.SimConfig(n=6, gamma=0.6, m_size=k, l_size=1, seed=3, samples=3), quad)
    cfg = cs.SimConfig(n=5, gamma=0.6, m_size=4, l_size=2, seed=4)
    cb = cs.sample_codebook(cfg)
    cs.covertness_report(cb, quad, cfg)
    cs.secrecy_report(cb, quad, cfg)
    cs.willie_average_state(cb, quad)
    cs.willie_bin_state(cb, quad, 1)
    assert len(calls) == 1  # the warden's pair
    cs.sqrt_measurement_decoder(cb, quad, cfg)
    cs.simulate(cfg, quad)
    assert len(calls) == 2  # and Bob's
    for (a, b), want in zip(calls, [(quad.omega0, quad.omega1), (quad.sigma0, quad.sigma1)]):
        assert np.array_equal(a, want[0]) and np.array_equal(b, want[1])
    other = replace(quad, omega1=np.diag([0.9, 0.1]))
    cs.resolvability_experiment(cfg, other)
    cs.covertness_report(cb, other, cfg)
    assert len(calls) == 3 and np.array_equal(calls[-1][1], other.omega1)


def test_resolvability_rhs_on_reused_channel_equals_fresh():
    cfgs = [
        cs.SimConfig(n=n, gamma=0.6, alpha=alpha, m_size=k, l_size=l)
        for n in (4, 8) for alpha in (None, 0.25) for k, l in ((16, 1), (64, 1), (4, 64))
    ]
    for make_quad in (excitation_quadruple, rotated_damping_quadruple):
        reused = make_quad()
        for cfg in cfgs + cfgs[::-1]:
            want = cs.resolvability_rhs(cfg, make_quad())
            assert float.hex(cs.resolvability_rhs(cfg, reused)) == float.hex(want), cfg


def test_cached_route_and_bound_ignore_writes_to_the_arrays_passed_in():
    fresh = excitation_quadruple()
    arrays = [np.array(a) for a in (fresh.sigma0, fresh.sigma1, fresh.omega0, fresh.omega1)]
    quad = chn.BinaryCovertChannel(*arrays)
    cfg = cs.SimConfig(n=6, gamma=0.6, m_size=16, l_size=1)
    rhs, route = cs.resolvability_rhs(cfg, quad), cs._warden_route(quad)
    table = route.table.copy()
    arrays[2][...] = np.diag([0.3, 0.7])
    assert np.array_equal(quad.omega0, fresh.omega0)
    assert cs._warden_route(quad) is route and np.array_equal(route.table, table)
    assert float.hex(cs.resolvability_rhs(cfg, quad)) == float.hex(rhs) == float.hex(cs.resolvability_rhs(cfg, fresh))


@pytest.mark.parametrize("index, valid", [(1.5, False), (-1, False), (2**64, False), (np.int64(3), True), (2**64 - 1, True), (True, False)])
def test_sample_codebook_index_is_an_integer_below_2_to_the_64(index, valid):
    cfg = cs.SimConfig(n=4, gamma=0.5, m_size=2, l_size=2, seed=3)
    if valid:
        want = np.random.Generator(np.random.Philox(key=np.array([cfg.seed, index], dtype=np.uint64)))
        bits = (want.random((cfg.m_size, cfg.l_size, cfg.n)) < cfg.alpha).astype(np.uint8)
        assert np.array_equal(cs.sample_codebook(cfg, index).words, bits)
    else:
        with pytest.raises(InvalidParameterError, match="sample_index"):
            cs.sample_codebook(cfg, index)


@pytest.mark.parametrize("make_quad, route", [(excitation_quadruple, "commuting"), (rotated_damping_quadruple, "dense")])
@pytest.mark.parametrize("m, l", [(4, 2), (8, 16)])  # K = 8 is decoded, K = 128 is not
def test_simulate_is_the_public_stages(make_quad, route, m, l):
    cfg = cs.SimConfig(n=4, gamma=0.6, m_size=m, l_size=l, seed=11, samples=3)
    cov, sec, res, dec, routes = cs.simulate(cfg, make_quad())
    quad = make_quad()
    cb = cs.sample_codebook(cfg)
    assert cov == cs.covertness_report(cb, quad, cfg)
    assert sec == cs.secrecy_report(cb, quad, cfg)
    assert res == cs.resolvability_experiment(cfg, quad)
    assert dec == (cs.sqrt_measurement_decoder(cb, quad, cfg) if m * l <= 64 else None)
    assert routes == {"warden": route, "decoder": route}


def test_commuting_decoder_scales_its_weights_in_place():
    # the success probabilities are the row sums of sigs * weights, bit for bit, and
    # the peak holds the (K, d^n) distributions and weights with one temporary: about
    # 2.35 of those arrays at n = 14, K = 16
    quad = excitation_quadruple()
    cfg = cs.SimConfig(n=14, gamma=1.0, m_size=4, l_size=4, seed=3)
    cb = cs.sample_codebook(cfg)
    with traced() as trace:
        rep = cs.sqrt_measurement_decoder(cb, quad, cfg)
    assert trace.peak < 2.5 * 8 * 16 * 2**14
    route = cs.pair_route(quad.sigma0, quad.sigma1)
    a = 0.5 * cfg.alpha * cfg.n * dv.qre(quad.sigma1, quad.sigma0)
    sigs, weights = cs._srm_weights(cb.words.reshape(-1, cfg.n), route.table, a)
    errors = np.clip(1.0 - np.sum(sigs * weights, axis=1), 0.0, 1.0)
    assert list(rep.perMessageError.values()) == errors.tolist()


@pytest.mark.parametrize("n", [5, 6])
def test_dense_povm_decomposes_its_reference_once(monkeypatch, n):
    # K = 16 words on a non-commuting Bob pair: one eigh of the single-letter sigma0 gives the
    # frame and the pinching's blocks, then per block one batched eigh of the K words' blocks
    # and one of S; none sees a D x D matrix, and no n-fold spectral_decompose runs
    quad = rotated_damping_quadruple()
    cfg = cs.SimConfig(n=n, gamma=0.6, m_size=4, l_size=4, seed=n, a_threshold=0.3)
    cb = cs.sample_codebook(cfg)
    words = list(cb.words.reshape(-1, n))
    route = cs.pair_route(quad.sigma0, quad.sigma1)
    assert route.name == "dense"
    blocks = op._pinching_blocks(op.eigh(route.table[0])[0], n)
    assert len(blocks) == n + 1 and max(map(len, blocks)) < 2**n
    calls, sides = {"eigh": 0, "spectral_decompose": 0}, []
    for name in calls:
        def counted(*args, _fn=getattr(op, name), _name=name):
            calls[_name] += 1
            sides.append(np.shape(args[0])[-1])
            return _fn(*args)
        monkeypatch.setattr(op, name, counted)
    elements, abstain = cs.square_root_povm(words, quad.sigma0, quad.sigma1, cfg.a_threshold)
    assert calls == {"eigh": 1 + 2 * len(blocks), "spectral_decompose": 0}
    rep = cs.sqrt_measurement_decoder(cb, quad, cfg)
    assert calls == {"eigh": 2 + 4 * len(blocks), "spectral_decompose": 0}
    assert max(sides) < 2**n
    assert abstain.tobytes() == (np.eye(2**n) - sum(elements)).tobytes()
    got = list(rep.perMessageError.values())
    np.testing.assert_allclose(got, dense_decoder_errors(elements, words, route.table), rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("a", [-0.5, 0.3, 1.0])
def test_dense_povm_matches_the_exact_class_oracle(n, a):
    quad = rotated_damping_quadruple()
    cfg = cs.SimConfig(n=n, gamma=0.6, m_size=4, l_size=4, seed=n, a_threshold=a)
    cb = cs.sample_codebook(cfg)
    words = list(cb.words.reshape(-1, n))
    elements, abstain = cs.square_root_povm(words, quad.sigma0, quad.sigma1, a)
    want, want_abstain = dense_square_root_povm(words, quad.sigma0, quad.sigma1, a)
    np.testing.assert_allclose(elements, want, rtol=0, atol=1e-10)
    np.testing.assert_allclose(abstain, want_abstain, rtol=0, atol=1e-10)
    table = cs.pair_route(quad.sigma0, quad.sigma1).table
    got = list(cs.sqrt_measurement_decoder(cb, quad, cfg).perMessageError.values())
    np.testing.assert_allclose(got, dense_decoder_errors(want, words, table), rtol=0, atol=1e-10)


def test_dense_elements_commute_with_the_reference_eigenprojectors():
    # an absolute 1e-10 clustering of sigma0^(x)n merged the blocks 0.0029^5 and 0.0029^4 0.997,
    # and the elements then missed commuting with sigma0^(x)n's eigenprojectors by 6.1e-4
    n, quad = 5, rotated_damping_quadruple()
    cfg = cs.SimConfig(n=n, gamma=0.6, m_size=4, l_size=4, seed=n)
    words = list(cs.sample_codebook(cfg).words.reshape(-1, n))
    a = 0.5 * cfg.alpha * n * dv.qre(quad.sigma1, quad.sigma0)
    elements, _ = cs.square_root_povm(words, quad.sigma0, quad.sigma1, a)
    blocks = exact_eigenprojectors(quad.sigma0, n)
    assert len(words) == 16 and len(blocks) == n + 1  # one per letter count
    for e in elements:
        for p in blocks:
            assert np.max(np.abs(e @ p - p @ e)) <= 1e-12


def excitation_decoder_inputs(n, a=None):
    """The (K, n) words, Bob's route and the default or given threshold a of the excitation(0.1) decoder."""
    quad = excitation_quadruple(0.1)
    cfg = cs.SimConfig(n=n, gamma=1.0, m_size=4, l_size=4, seed=1, a_threshold=a)
    words = cs.sample_codebook(cfg).words.reshape(-1, n)
    return words, cs.pair_route(quad.sigma0, quad.sigma1), 0.5 * cfg.alpha * n * dv.qre(quad.sigma1, quad.sigma0) if a is None else a


@pytest.mark.parametrize("n", [16, 20])
def test_commuting_rule_keeps_no_zero_probability_entry(n):
    # sigma1 = |1><1| gives each word zero probability on most strings; once e^a ref fell below
    # an absolute 1e-10, such strings entered Pi_c and drew weight from the right word
    words, route, a = excitation_decoder_inputs(n)
    sigs, weights = cs._srm_weights(words, route.table, a)
    assert np.any(weights) and not np.any(weights[sigs == 0.0])


def test_commuting_rule_keeps_tied_entries():
    # every string x in the support of sigma_c has likelihood ratio 10^|c|, so at a = log 100 the
    # words of weight 2 tie with e^a on all their mass; e^a rounds above 100, so most ties read negative
    n = 16
    words, route, a = excitation_decoder_inputs(n, math.log(100.0))
    tied = words.sum(axis=1) == 2
    assert np.count_nonzero(tied) == 3
    sigs, weights = cs._srm_weights(words, route.table, a)
    ref = op.word_products(np.zeros(n, dtype=np.uint8), route.table[:1])
    on = sigs[tied] > 0.0
    assert np.any((sigs[tied] - math.exp(a) * ref)[on] < 0.0)
    assert np.all(weights[tied][on] > 0.0)


@pytest.mark.parametrize("n, want", [
    (8, 0.5298778810611267), (12, 0.2801189801984605), (16, 0.23582990164530393), (20, 0.16180670537465225),
])
def test_commuting_decoder_errors_under_the_scale_free_rule(n, want):
    quad = excitation_quadruple(0.1)
    cfg = cs.SimConfig(n=n, gamma=1.0, m_size=4, l_size=4, seed=1)
    assert cs.sqrt_measurement_decoder(cs.sample_codebook(cfg), quad, cfg).averageError == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("n, want", [
    (4, 0.8912959432173053), (5, 0.8945990705495875), (6, 0.8388589267739246), (7, 0.7401882173258653),
    (8, 0.7295496018634764),
])
def test_dense_decoder_errors_under_the_scale_free_rule(n, want):
    quad = rotated_damping_quadruple()
    cfg = cs.SimConfig(n=n, gamma=0.6, m_size=4, l_size=4, seed=n)
    assert cs.sqrt_measurement_decoder(cs.sample_codebook(cfg), quad, cfg).averageError == pytest.approx(want, abs=1e-12)


def test_dense_decoder_holds_one_pinching_block_at_a_time():
    # the decoder sums tr(Lam_c sigma_c) block by block in sigma0's product eigenbasis: at n = 8,
    # K = 16 its peak stays below one (K, D, D) complex stack; lifting every element and
    # retracing it against a D x D sigma_c peaked at 37.1 MiB
    quad = rotated_damping_quadruple()
    cfg = cs.SimConfig(n=8, gamma=0.6, m_size=4, l_size=4, seed=8)
    cb = cs.sample_codebook(cfg)
    with traced() as trace:
        cs.sqrt_measurement_decoder(cb, quad, cfg)
    assert trace.peak < 16 * 16 * 2**16


@st.composite
def rotated_decoder_cases(draw):
    """A non-commuting pair of random full-rank d x d states on Bob's side, d in {2, 3}, and a
    codebook of words of at most 3 letters to decode; the warden's pair is excitation(0.25)'s."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.sampled_from([2, 3]))
    sigma0, sigma1 = random_density(rng, d), random_density(rng, d)
    exc = excitation_quadruple()
    cfg = cs.SimConfig(
        n=draw(st.integers(1, 3)), gamma=0.0, alpha=draw(st.floats(0.1, 0.9)),
        m_size=draw(st.integers(1, 3)), l_size=draw(st.integers(1, 3)), seed=draw(st.integers(0, 2**16)),
        # irrational e^a keeps every threshold entry far from a tie
        a_threshold=draw(st.sampled_from([-0.5, 0.3, 1.0])),
    )
    return chn.BinaryCovertChannel(sigma0, sigma1, exc.omega0, exc.omega1), cfg


@settings(max_examples=40, deadline=None)
@given(rotated_decoder_cases())
def test_dense_decoder_errors_match_the_dense_oracle(case):
    quad, cfg = case
    route = cs.pair_route(quad.sigma0, quad.sigma1)
    assert route.name == "dense"
    cb = cs.sample_codebook(cfg)
    words = cb.words.reshape(-1, cfg.n)
    want = dense_decoder_errors(dense_square_root_povm(words, quad.sigma0, quad.sigma1, cfg.a_threshold)[0], words, route.table)
    got = list(cs.sqrt_measurement_decoder(cb, quad, cfg).perMessageError.values())
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)


def loop_projectors(words, table, a):
    """Each word's Pi_c in sigma0's product eigenbasis, a D x D matrix assembled from the blocks
    of ``op._square_root_blocks``, and the blocks' strings."""
    words = np.asarray(words)
    out = np.zeros((len(words),) + (len(table[0]) ** words.shape[1],) * 2, dtype=complex)
    strings = []
    for block, _, projectors, _ in op._square_root_blocks(words, table, op.eigh(table[0]), a):
        assert projectors.shape == (len(words), len(block), len(block))
        out[:, block[:, None], block] = projectors
        strings.append(block)
    return list(out), strings


def test_dense_rule_keeps_no_eigenvector_below_the_scaled_reference():
    # sigma0's eigenvalue 0.0029 puts e^a lambda_P below 1e-10 on the blocks where it repeats, and
    # the absolute slack kept their eigenvectors at n = 5 whatever sigma_c put there; Pi_c is
    # formed in sigma0's product eigenbasis, where sigma0^(x)n is diagonal
    n, quad = 5, rotated_damping_quadruple()
    cfg = cs.SimConfig(n=n, gamma=0.6, m_size=4, l_size=4, seed=n)
    words = list(cs.sample_codebook(cfg).words.reshape(-1, n))
    a = 0.5 * cfg.alpha * n * dv.qre(quad.sigma1, quad.sigma0)
    table = cs.pair_route(quad.sigma0, quad.sigma1).table
    captured, strings = loop_projectors(words, table, a)
    letters, U = op.eigh(table[0])
    frame = U.conj().T @ table @ U
    ref = np.diag(op.word_products(np.zeros(n, dtype=np.uint8), letters[None]))
    labels = exact_classes(quad.sigma0, n)[0]
    # the loop's blocks are the exact classes of sigma0^(x)n's eigenvalues
    assert sorted(map(tuple, strings)) == sorted(tuple(np.flatnonzero(labels == c)) for c in np.unique(labels))
    assert len(captured) == len(words)
    for w, projector in zip(words, captured):
        pinched = op.word_products(w, frame) * (labels[:, None] == labels[None, :])
        vecs = op.eigh(pinched - math.exp(a) * ref)[1]
        kept, value, weight = (np.einsum("ij,ik,kj->j", vecs.conj(), m, vecs).real for m in (projector, pinched, ref))
        assert np.all(np.abs(kept - np.round(kept)) < 1e-12)
        kept = kept > 0.5
        assert np.all(value[kept] >= math.exp(a) * weight[kept] * (1.0 - op.DEFAULT_TOL.cluster))


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("a", [-0.5, 0.3, 1.0])
def test_dense_rule_keeps_eigenvectors_outside_the_reference_support(n, a):
    # every sigma_c vanishes outside supp(sigma0)^(x)n; the eigenvectors there are kept as the
    # absolute slack kept them, decided from sigma0's single-letter support, and the strings with
    # a zero letter form one block of the pinching
    sigma0, sigma1 = rank_two_qutrit_pair()
    route = cs.pair_route(sigma0, sigma1)
    assert route.name == "dense"
    words = [np.array(w, dtype=np.uint8) for w in itertools.product((0, 1), repeat=n)]
    captured = loop_projectors(words, route.table, a)[0]
    elements, abstain = cs.square_root_povm(words, sigma0, sigma1, a)
    want, want_abstain = dense_square_root_povm(words, sigma0, sigma1, a)
    np.testing.assert_allclose(elements, want, rtol=0, atol=1e-10)
    np.testing.assert_allclose(abstain, want_abstain, rtol=0, atol=1e-10)
    errors = dense_decoder_errors(elements, words, route.table)
    np.testing.assert_allclose(errors, dense_decoder_errors(want, words, route.table), rtol=0, atol=1e-10)
    # the decoder, which sums over the blocks and lifts nothing, reads the oracle's errors too
    exc = excitation_quadruple()
    cb, cfg = cs.Codebook(np.array(words)[:, None]), cs.SimConfig(n, 0.0, len(words), 1, a_threshold=a)
    decoded = cs.sqrt_measurement_decoder(cb, chn.BinaryCovertChannel(sigma0, sigma1, exc.omega0, exc.omega1), cfg)
    np.testing.assert_allclose(list(decoded.perMessageError.values()), errors, rtol=0, atol=1e-10)
    vals, vecs = np.linalg.eigh(sigma0)
    outside = np.eye(3**n) - kron_chain([0] * n, [vecs[:, 1:] @ vecs[:, 1:].conj().T])
    Un = op.tensor_power(op.eigh(route.table[0])[1], n)  # Pi_c is formed in sigma0's product eigenbasis
    for projector in captured:  # Pi_c contains the whole complement of the support
        np.testing.assert_allclose(Un @ projector @ Un.conj().T @ outside, outside, atol=1e-9)


def test_commuting_route_on_the_lattice_matches_dense():
    # at a = log 100 the excitation(0.1) words of weight 2 tie with e^a on all their mass
    quad = excitation_quadruple(0.1)
    for n in (4, 6):
        cfg = cs.SimConfig(n=n, gamma=1.0, m_size=4, l_size=4, seed=2, a_threshold=math.log(100.0))
        cb = cs.sample_codebook(cfg)
        words = cb.words.reshape(-1, n)
        assert np.any(words.sum(axis=1) == 2)
        elements, _ = dense_square_root_povm(words, quad.sigma0, quad.sigma1, cfg.a_threshold)
        want = dense_decoder_errors(elements, words, (quad.sigma0, quad.sigma1))
        got = cs.sqrt_measurement_decoder(cb, quad, cfg).perMessageError.values()
        np.testing.assert_allclose(list(got), want, atol=1e-12)


@pytest.mark.parametrize("a", [math.nan, math.inf, -math.inf, -800.0, 800.0])
def test_non_finite_decoder_threshold_raises(a):
    # nan read as averageError 1.0 and gave all-zero elements, silently; e^-800 underflowed to 0 and
    # kept every string, and e^800 raised a bare OverflowError
    with pytest.raises(InvalidParameterError, match="a_threshold"):
        cs.SimConfig(n=4, gamma=0.5, m_size=2, l_size=2, a_threshold=a)
    words = [np.array([0, 1, 1], dtype=np.uint8), np.array([1, 0, 0], dtype=np.uint8)]
    for quad in (excitation_quadruple(), rotated_damping_quadruple()):
        with pytest.raises(InvalidParameterError, match="threshold"):
            cs.square_root_povm(words, quad.sigma0, quad.sigma1, a)
        cfg = cs.SimConfig(n=3, gamma=0.5, m_size=2, l_size=1)
        object.__setattr__(cfg, "a_threshold", a)  # past the dataclass's own check
        with pytest.raises(InvalidParameterError, match="threshold"):
            cs.sqrt_measurement_decoder(cs.sample_codebook(cfg), quad, cfg)
