import math
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, replace
from functools import lru_cache
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from support import (
    distinct_words, eigen_log_qre, excitation_isometry, kron_chain, random_density, random_unitary, rotated_damping_isometry, traced,
)

from covertq import channels as chn
from covertq import divergences as dv
from covertq import eg_toy as eg
from covertq import operators as op
from covertq.errors import BudgetExceededError, DimMismatchError, DuplicateWordError, InvalidParameterError


def decoded_setup(code, V):
    """(code, V, povm, abstain, alpha): Bob's decoding POVM for the code on V, and the code's fraction of ones."""
    povm, abstain, _ = eg.decoding_povm(code, V)
    return code, V, povm, abstain, float(np.mean(code.words))


def demo_setup():
    return decoded_setup(eg.default_demo_code(), excitation_isometry(0.1))


def noiseless_setup():
    code = eg.default_demo_code()
    V = eg.noiseless_isometry()
    words = [code.words[m, l] for m in range(code.T) for l in range(code.l_size)]
    povm, abstain = eg.exact_string_povm(words)
    return code, V, povm, abstain


def test_build_quantum_codewords():
    # single string per message: a computational basis state
    code = eg.EGToyCode.from_words(np.array([[[0, 1]], [[1, 0]]], dtype=np.uint8))
    states = eg.build_quantum_codewords(code)
    np.testing.assert_allclose(states[0], [0, 1, 0, 0], atol=1e-12)
    np.testing.assert_allclose(states[1], [0, 0, 1, 0], atol=1e-12)
    # disjoint words give orthogonal codewords
    demo = eg.default_demo_code()
    s = eg.build_quantum_codewords(demo)
    assert abs(np.vdot(s[0], s[1])) < 1e-12
    # zero phases and words {00, 11}: a Bell-like superposition
    bell = eg.EGToyCode.from_words(np.array([[[0, 0], [1, 1]]], dtype=np.uint8))
    np.testing.assert_allclose(
        eg.build_quantum_codewords(bell)[0],
        np.array([1, 0, 0, 1]) / math.sqrt(2),
        atol=1e-12,
    )


def test_duplicate_word():
    # a code refuses a word repeated within a message however it is built; across messages one may repeat
    words = np.array([[[0, 1], [0, 1]]], dtype=np.uint8)
    for build in (eg.EGToyCode, eg.EGToyCode.from_words, lambda w: replace(eg.EGToyCode([[[0, 1], [1, 1]]]), words=w)):
        with pytest.raises(DuplicateWordError, match="within message 0"):
            build(words)
    assert eg.EGToyCode(np.array([[[0, 1]], [[0, 1]]])).T == 2
    with pytest.raises(DuplicateWordError):
        eg.exact_string_povm([[0, 1], [0, 1]])


@pytest.mark.parametrize("build", [eg.EGToyCode, eg.EGToyCode.from_words], ids=["constructor", "from_words"])
def test_code_refuses_non_integral_letters(build):
    # read as their integer parts, these words were [[[0, 1], [1, 0]]]
    with pytest.raises(InvalidParameterError, match="not an integer"):
        build([[[0.5, 1.9], [1.2, 0.0]]])
    assert build([[[0.0, 1.0], [1.0, 0.0]]]).words.tolist() == [[[0, 1], [1, 0]]]


EG_ENTRY_POINTS = (eg.eg_report, eg.protocol_state, eg.align_phases, eg.decoupling_decoder, eg.eliminate_assistance, eg.willie_marginal)


@pytest.mark.parametrize("build", [eg.EGToyCode, eg.EGToyCode.from_words], ids=["constructor", "from_words"])
@pytest.mark.parametrize("entry", EG_ENTRY_POINTS, ids=lambda f: f.__name__)
def test_entry_points_refuse_a_repeated_word(build, entry):
    # unchecked, the demo code with its last word repeated gave fidelity 1.37, traceDistanceGHZ 0.0
    # and a protocol state of norm 1.22; such a code is now refused before any entry point sees it
    words = eg.default_demo_code().words.copy()
    words[1, 1] = words[1, 0]
    _, V, povm, abstain, _ = demo_setup()
    with pytest.raises(DuplicateWordError):
        entry(build(words), V, povm, abstain)


def mismatched_povms():
    """The demo code on excitation 0.1 with POVMs that do not fit it: every element halved
    and listed twice, and pairs merged (both still summing to I), one built for n = 3, an
    abstain remainder of the wrong dimension, and none where one is needed to sum to I."""
    code, V, povm, abstain, _ = demo_setup()
    three = eg.decoding_povm(eg.EGToyCode(code.words[..., :3]), V)[:2]
    return code, V, {
        "split": ([e / 2 for e in povm] * 2, abstain),
        "merged": ([povm[0] + povm[1], povm[2] + povm[3]], abstain),
        "n=3": three,
        "abstain": (povm, abstain[:8, :8]),
        "no-abstain": (povm, None),
    }


@pytest.mark.parametrize("case", ["split", "merged", "n=3", "abstain", "no-abstain"])
@pytest.mark.parametrize("entry", EG_ENTRY_POINTS, ids=lambda f: f.__name__)
def test_entry_points_refuse_a_povm_that_does_not_fit_the_code(case, entry):
    # unchecked, the split POVM gave align_phases an alignedOverlapSum of 1.03 for 3.85 and the
    # others numpy broadcast errors
    code, V, povms = mismatched_povms()
    with pytest.raises(DimMismatchError, match="POVM completion defect" if case == "no-abstain" else "POVM elements for 4 words"):
        entry(code, V, *povms[case])


@pytest.mark.parametrize("entry", [eg.eg_report, eg.decoupling_decoder, eg.eliminate_assistance], ids=lambda f: f.__name__)
def test_unknown_decoupling_mode_raises(entry):
    code, V, povm, abstain, _ = demo_setup()
    with pytest.raises(ValueError, match="unknown decoupling mode 'other'"):
        entry(code, V, povm, abstain, mode="other")


def test_letters_outside_the_bits_raise():
    # before, "02" was put on the string "10" by both
    with pytest.raises(InvalidParameterError, match=r"outside \[0, 2\)"):
        eg.exact_string_povm([[0, 2]])
    with pytest.raises(InvalidParameterError, match=r"outside \[0, 2\)"):
        eg.build_quantum_codewords(eg.EGToyCode.from_words([[[0, 2]]]))


@pytest.mark.parametrize("words", [np.array([[[0, 256]]]), np.array([[[0, -1]]]), [[[1, 257]]], [[[-1, 0]]]])
def test_from_words_refuses_letters_a_uint8_would_wrap(words):
    # an integer array's 256 was cast to the letter 0 and -1 to 255, aliasing other words
    with pytest.raises(InvalidParameterError, match=r"outside \[0, 256\)"):
        eg.EGToyCode.from_words(words)
    assert eg.EGToyCode.from_words(np.array([[[0, 255]]])).words.tolist() == [[[0, 255]]]


def test_code_shape_fields_must_match_words():
    # the sizes are read off the words, so six words of shape (2, 3, 4) are two messages of three
    words = distinct_words(np.random.default_rng(0), 2, 3, 4).astype(float).tolist()
    code = eg.EGToyCode(words)
    assert (code.T, code.l_size, code.n) == (2, 3, 4) and code.words.dtype == np.uint8
    assert np.array_equal(code.words, words) and not code.encode_phases.any() and not code.decode_phases.any()
    assert code.encode_phases.shape == code.decode_phases.shape == (2, 3)
    with pytest.raises(AttributeError):
        code.T = 3
    for bad in ({"words": code.words[0]}, {"words": code.words[None]}, {"decode_phases": np.zeros((3, 2))}, {"encode_phases": np.zeros(6)}):
        with pytest.raises(DimMismatchError, match="shape"):
            eg.EGToyCode(**{"words": words, **bad})
        with pytest.raises(DimMismatchError, match="shape"):
            replace(code, **bad)  # replace builds through the same checks
    fewer = replace(code, words=code.words[:, :2], encode_phases=None, decode_phases=None)
    assert (fewer.T, fewer.l_size, fewer.n) == (2, 2, 4)


@pytest.mark.parametrize("alpha", [1.5, -0.5, math.nan])
def test_decoupler_alpha_outside_unit_interval_raises(alpha):
    # alpha = 1.5 would purify (1.5 omega1 - 0.5 omega0)^(x)n, which is not a state
    code, V, povm, abstain, _ = demo_setup()
    for run in (eg.eg_report, eg.decoupling_decoder, eg.eliminate_assistance):
        with pytest.raises(InvalidParameterError, match="alpha"):
            run(code, V, povm, abstain, alpha=alpha)


def test_protocol_state_normalized_and_isometric():
    code, V, povm, abstain, _ = demo_setup()
    tau = eg.protocol_state(code, V, povm, abstain)
    assert np.linalg.norm(tau.ravel()) == pytest.approx(1.0, abs=1e-9)
    # the R and M registers carry the same message index
    T = code.T
    for r in range(T):
        for m in range(T):
            if r != m:
                assert np.max(np.abs(tau[r, m])) < 1e-12


def test_protocol_state_noiseless_matches_ideal():
    code, V, povm, abstain = noiseless_setup()
    tau = eg.protocol_state(code, V, povm, abstain)
    # ideal state: decoding registers exactly the transmitted (m, l)
    ideal = np.zeros_like(tau)
    for m in range(code.T):
        for l in range(code.l_size):
            idx = int("".join(map(str, code.words[m, l])), 2)
            ideal[m, m, idx, 0, m, l] = 1.0 / math.sqrt(code.T * code.l_size)
    np.testing.assert_allclose(tau, ideal, atol=1e-9)


def test_protocol_state_budget():
    code = eg.EGToyCode.from_words(np.zeros((2, 1, 14), dtype=np.uint8))
    V = excitation_isometry(0.1)
    # the gate fires before the POVM is read, so a placeholder element will do
    with pytest.raises(BudgetExceededError):
        eg.protocol_state(code, V, [np.eye(1)])
    with pytest.raises(BudgetExceededError):
        eg.eg_report(code, V, [np.eye(1)])


def test_align_phases():
    code, V, povm, abstain, _ = demo_setup()
    t, h, diag = eg.align_phases(code, V, povm, abstain)
    # PSD POVM elements make every branch overlap real nonnegative already
    np.testing.assert_allclose(t, 0.0, atol=1e-12)
    np.testing.assert_allclose(h, 0.0, atol=1e-12)
    assert diag["alignedOverlapSum"] >= diag["zeroPhaseOverlapSum"] - 1e-12


def test_uhlmann_identity():
    rng = np.random.default_rng(0)
    psi = rng.normal(size=8) + 1j * rng.normal(size=8)
    psi /= np.linalg.norm(psi)
    W = eg.uhlmann_isometry(psi, (2, 4), psi, (2, 4))
    out = (psi.reshape(2, 4) @ W.T).ravel()
    assert abs(np.vdot(psi, out)) == pytest.approx(1.0, abs=1e-9)


def test_uhlmann_equal_marginals():
    # two purifications of the same state are related by an isometry exactly
    rng = np.random.default_rng(1)
    psi = op.canonical_purification(random_density(rng, 3, full_rank=False))
    theta = (psi.reshape(3, 3) @ random_unitary(rng, 3).T).ravel()
    W = eg.uhlmann_isometry(psi, (3, 3), theta, (3, 3))
    ov = abs(np.vdot(theta.reshape(3, 3), psi.reshape(3, 3) @ W.T))
    assert ov == pytest.approx(1.0, abs=1e-9)


def test_uhlmann_handmade_fidelity():
    # qubit marginals with F = 0.9 by construction
    rho = np.diag([0.5, 0.5])
    f_target = 0.9
    # sigma diagonal with sqrt-fidelity sum sqrt(0.5 p) + sqrt(0.5 (1-p)) = sqrt(F)
    # solve for p: (sqrt(p/2) + sqrt((1-p)/2))^2 = 0.9 -> p(1-p) = (0.8/2)^2
    p = (1 + math.sqrt(1 - 4 * 0.16)) / 2
    sig = np.diag([p, 1 - p])
    assert op.fidelity(rho, sig) == pytest.approx(f_target, abs=1e-12)
    psi = op.canonical_purification(rho)
    theta = op.canonical_purification(sig)
    W = eg.uhlmann_isometry(psi, (2, 2), theta, (2, 2))
    ov = abs(np.vdot(theta.reshape(2, 2), psi.reshape(2, 2) @ W.T))
    assert ov**2 == pytest.approx(f_target, abs=1e-9)


def assert_uhlmann_optimal(psi, theta, dA, dB, dC):
    W = eg.uhlmann_isometry(psi, (dA, dB), theta, (dA, dC))
    np.testing.assert_allclose(W.conj().T @ W, np.eye(dB), atol=1e-9)
    ov = abs(np.vdot(theta.reshape(dA, dC), psi.reshape(dA, dB) @ W.T))
    rho = psi.reshape(dA, dB) @ psi.reshape(dA, dB).conj().T
    sig = theta.reshape(dA, dC) @ theta.reshape(dA, dC).conj().T
    assert ov**2 == pytest.approx(op.fidelity(rho, sig), abs=1e-9)


def test_uhlmann_random_optimality():
    rng = np.random.default_rng(2)
    for _ in range(20):
        dA, dB, dC = 3, 4, 5
        psi = rng.normal(size=dA * dB) + 1j * rng.normal(size=dA * dB)
        psi /= np.linalg.norm(psi)
        theta = rng.normal(size=dA * dC) + 1j * rng.normal(size=dA * dC)
        theta /= np.linalg.norm(theta)
        assert_uhlmann_optimal(psi, theta, dA, dB, dC)


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_uhlmann_diagonal_target_optimality(kind):
    # an exactly diagonal real theta scales the rows of psi; a complex one is multiplied
    rng = np.random.default_rng(3)
    for _ in range(20):
        psi = rng.normal(size=16) + 1j * rng.normal(size=16)
        diagonal = rng.normal(size=4) + 1j * rng.normal(size=4)
        theta = np.diag(np.abs(diagonal) if kind == "real" else diagonal).ravel()
        assert_uhlmann_optimal(psi / np.linalg.norm(psi), theta / np.linalg.norm(theta), 4, 4, 4)


def test_uhlmann_dim_errors():
    psi = np.zeros(4)
    psi[0] = 1.0
    with pytest.raises(DimMismatchError):
        eg.uhlmann_isometry(psi, (2, 2), psi, (4, 1))
    with pytest.raises(DimMismatchError):
        eg.uhlmann_isometry(psi, (2, 2), np.ones(2) / math.sqrt(2), (2, 1))


def test_decoupling_noiseless_self_target():
    code, V, povm, abstain = noiseless_setup()
    _, diag = eg.decoupling_decoder(code, V, povm, abstain, mode="self-target")
    assert diag["traceDistanceGHZ"] == pytest.approx(0.0, abs=1e-6)
    assert diag["decouplerIsometryDefect"] < 1e-9


def test_decoupling_paper_target_diagnostics():
    code, V, povm, abstain, alpha = demo_setup()
    _, diag = eg.decoupling_decoder(code, V, povm, abstain, alpha=alpha)
    assert 0.0 <= diag["traceDistanceGHZ"] <= 2.0
    assert diag["decouplerIsometryDefect"] < 1e-9


def test_ghz_to_epr_exact():
    T = 3
    g = np.zeros(T**3, dtype=complex)
    for m in range(T):
        g[m * T * T + m * T + m] = 1.0
    g /= math.sqrt(T)
    rho = np.outer(g, g.conj())
    phi = np.zeros(T * T, dtype=complex)
    for m in range(T):
        phi[m * T + m] = 1.0
    phi /= math.sqrt(T)
    for j in range(T):
        out = eg.ghz_to_epr(rho, T, j)
        assert np.vdot(phi, out @ phi).real == pytest.approx(1.0, abs=1e-9)


def test_ghz_to_epr_perturbed():
    T = 2
    g = np.zeros(8, dtype=complex)
    g[0], g[7] = 1.0, 1.0
    g /= math.sqrt(2)
    eps = np.zeros(8, dtype=complex)
    eps[1] = 1.0
    v = g + 0.2 * eps
    v /= np.linalg.norm(v)
    rho = np.outer(v, v.conj())
    ghz_fid = abs(np.vdot(g, v)) ** 2
    phi = np.zeros(4, dtype=complex)
    phi[0] = phi[3] = 1 / math.sqrt(2)
    # averaged over outcomes, the conversion preserves the GHZ fidelity
    total = 0.0
    for j in range(T):
        f_j = np.exp(2j * np.pi * j * np.arange(T) / T) / math.sqrt(T)
        t = rho.reshape(2, 2, 2, 2, 2, 2)
        reduced = np.einsum("m,rmkspq,p->rksq", f_j.conj(), t, f_j).reshape(4, 4)
        prob = np.trace(reduced).real
        out = eg.ghz_to_epr(rho, T, j)
        total += prob * np.vdot(phi, out @ phi).real
    assert total >= ghz_fid - 1e-9


def _ghz_input(register):
    """|0>_R |register>_M |0>_Mhat for a two-level M register."""
    return np.kron(np.kron([1.0, 0.0], register), [1.0, 0.0])


@pytest.mark.parametrize("rho, match", [
    (np.eye(4) / 4, "expected dim 8, got 4"),
    # M in |-> is orthogonal to the Fourier vector of outcome 0
    (np.outer(_ghz_input([1.0, -1.0]), _ghz_input([1.0, -1.0])) / 2, "outcome 0 has zero probability"),
], ids=["dimension", "zero-probability"])
def test_ghz_to_epr_refusals(rho, match):
    with pytest.raises(DimMismatchError, match=match):
        eg.ghz_to_epr(rho, 2, 0)


def test_eliminate_assistance_noiseless():
    code, V, povm, abstain = noiseless_setup()
    best_j, fids = eg.eliminate_assistance(code, V, povm, abstain, mode="self-target")
    assert best_j == 0  # all branches tie at fidelity 1; lowest index wins
    for f in fids:
        assert f == pytest.approx(1.0, abs=1e-9)


def test_eliminate_assistance_max_ge_mean():
    code, V, povm, abstain, alpha = demo_setup()
    best_j, fids = eg.eliminate_assistance(code, V, povm, abstain, alpha=alpha)
    assert max(fids) >= np.mean(fids) - 1e-12
    assert fids[best_j] == max(fids)


def test_willie_marginal_per_message_phase_invariance():
    code, V, povm, abstain, _ = demo_setup()
    base = eg.willie_marginal(code, V, povm, abstain)
    shifted = eg.EGToyCode.from_words(
        code.words, encode_phases=np.array([[0.4, 0.4], [1.3, 1.3]])
    )
    out = eg.willie_marginal(shifted, V, povm, abstain)
    assert op.trace_norm(out - base) < 1e-12


def test_eg_report_noiseless():
    code, V, povm, abstain = noiseless_setup()
    rep = eg.eg_report(code, V, povm, abstain, mode="self-target")
    assert rep.fidelity == pytest.approx(1.0, abs=1e-9)
    assert rep.covertDivergence == pytest.approx(0.0, abs=1e-9)
    assert rep.perStepDiagnostics["willieClassicalGap"] < 1e-9


def test_eg_report_degenerate_single_message():
    code = eg.EGToyCode.from_words(np.zeros((1, 1, 3), dtype=np.uint8))
    V = eg.noiseless_isometry()
    povm, abstain = eg.exact_string_povm([code.words[0, 0]])
    rep = eg.eg_report(code, V, povm, abstain, mode="self-target")
    assert rep.covertDivergence == pytest.approx(0.0, abs=1e-9)
    assert rep.fidelity == pytest.approx(1.0, abs=1e-9)


def test_eg_report_generic_bounds():
    _, rep = pinned_eg_report("demo", "paper-target")
    assert 0.0 <= rep.fidelity <= 1.0
    assert rep.covertDivergence >= 0.0
    assert rep.perStepDiagnostics["meanBranchFidelity"] <= rep.fidelity + 1e-12


def three_kraus_isometry():
    """Excitation (gamma = 0.2) mixed with a Z flip: a qubit channel with dW = 3."""
    k0, k1 = chn.excitation_channel(0.2).kraus
    p = 0.3
    flip = math.sqrt(p) * np.diag([1.0, -1.0]).astype(complex)
    return chn.stinespring_from_kraus(chn.KrausChannel((math.sqrt(1 - p) * k0, math.sqrt(1 - p) * k1, flip)))


@pytest.mark.parametrize("mode", ["paper-target", "self-target"])
def test_eg_report_environment_wider_than_decoder(mode):
    # dW^n = 81 exceeds dB^n * L = 32, so Wbreve must be sized by the target
    code = eg.default_demo_code()
    V = three_kraus_isometry()
    povm, abstain = eg.exact_string_povm(code.words.reshape(-1, code.n))
    rep = eg.eg_report(code, V, povm, abstain, mode=mode)
    assert 0.0 <= rep.fidelity <= 1.0
    assert rep.perStepDiagnostics["decouplerIsometryDefect"] <= 1e-9


def rotated_setup(words, encode_phases, decode_phases):
    return decoded_setup(eg.EGToyCode.from_words(words, encode_phases, decode_phases), rotated_damping_isometry())


def pinned_rotated_setup():
    words = np.array([[[0, 0, 0], [0, 1, 1]], [[1, 0, 1], [1, 1, 0]], [[0, 1, 0], [1, 0, 0]]], dtype=np.uint8)
    return rotated_setup(
        words,
        encode_phases=[[0.3, -1.1], [0.7, 2.0], [-0.4, 1.5]],
        decode_phases=[[0.2, -0.5], [1.0, 0.1], [-0.7, 0.4]],
    )


# EGReport of the multi-pass pipeline (one protocol_state per stage), recorded
# with numpy 2.4.6 on OpenBLAS.  The decoupler is not unique off the support
# of the ideal branches and the fidelity depends on the isometry the SVD
# returns there, so these figures pin the decoupler's inputs bit for bit.
PINNED_REPORTS = {
    ("demo", "paper-target"): {
        "fidelity": 0.9315177237393958,
        "covertDivergence": 0.05791013367032122,
        "traceDistanceGHZ": 0.6449362017134118,
        "bestJ": 0,
        "perStepDiagnostics": {
            "alignedOverlapSum": 3.8538789493296672,
            "zeroPhaseOverlapSum": 3.853878949329667,
            "traceDistanceGHZ": 0.6449362017134118,
            "targetOverlap": 0.9465803314721204,
            "decouplerIsometryDefect": 6.661338147750939e-16,
            "mode": "paper-target",
            "alpha": 0.375,
            "willieClassicalGap": 0.09103191510052541,
            "branchFidelities": [0.9315177237393958, 0.9315177237393958],
            "meanBranchFidelity": 0.9315177237393958,
        },
    },
    ("demo", "self-target"): {
        "fidelity": 0.931517723739396,
        "covertDivergence": 0.05791013367032122,
        "traceDistanceGHZ": 0.7176685352917431,
        "bestJ": 0,
        "perStepDiagnostics": {
            "alignedOverlapSum": 3.8538789493296672,
            "zeroPhaseOverlapSum": 3.853878949329667,
            "traceDistanceGHZ": 0.7176685352917431,
            "targetOverlap": 0.9334012901014499,
            "decouplerIsometryDefect": 4.440892098500626e-16,
            "mode": "self-target",
            "alpha": 0.375,
            "willieClassicalGap": 0.09103191510052541,
            "branchFidelities": [0.931517723739396, 0.931517723739396],
            "meanBranchFidelity": 0.931517723739396,
        },
    },
    ("rotated", "paper-target"): {
        "fidelity": 0.33516792337262435,
        "covertDivergence": 1.5703062890722934,
        "traceDistanceGHZ": 1.694133023888776,
        "bestJ": 0,
        "perStepDiagnostics": {
            "alignedOverlapSum": 3.3606523678329645,
            "zeroPhaseOverlapSum": 3.360652367832964,
            "traceDistanceGHZ": 1.694133023888776,
            "targetOverlap": 0.531486899502112,
            "decouplerIsometryDefect": 3.716726240231423e-16,
            "mode": "paper-target",
            "alpha": 0.4444444444444444,
            "willieClassicalGap": 0.21407469048674838,
            "branchFidelities": [0.33516792337262435, 0.33516792337262435, 0.33516792337262435],
            "meanBranchFidelity": 0.33516792337262435,
        },
    },
    ("rotated", "self-target"): {
        "fidelity": 0.3307265636858697,
        "covertDivergence": 1.5703062890722934,
        "traceDistanceGHZ": 1.7062551257434635,
        "bestJ": 0,
        "perStepDiagnostics": {
            "alignedOverlapSum": 3.3606523678329645,
            "zeroPhaseOverlapSum": 3.360652367832964,
            "traceDistanceGHZ": 1.7062551257434635,
            "targetOverlap": 0.5217023686629565,
            "decouplerIsometryDefect": 7.970712644361531e-16,
            "mode": "self-target",
            "alpha": 0.4444444444444444,
            "willieClassicalGap": 0.21407469048674838,
            "branchFidelities": [0.3307265636858697, 0.3307265636858697, 0.3307265636858697],
            "meanBranchFidelity": 0.3307265636858697,
        },
    },
}


PINNED_SETUPS = {"demo": demo_setup, "rotated": pinned_rotated_setup}


@lru_cache(maxsize=None)
def pinned_eg_report(case, mode):
    """The code of a PINNED_REPORTS case and its eg_report, one pass per (case, mode) for the tests that share it."""
    code, V, povm, abstain, alpha = PINNED_SETUPS[case]()
    return code, eg.eg_report(code, V, povm, abstain, alpha=alpha, mode=mode)


def assert_pinned(got, want, path=""):
    if isinstance(want, dict):
        assert set(got) == set(want), path
        for key in want:
            assert_pinned(got[key], want[key], f"{path}/{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_pinned(g, w, f"{path}[{i}]")
    elif isinstance(want, (str, int)):
        assert got == want, path
    else:
        assert got == want or abs(got - want) <= 1e-10, f"{path}: {got!r} vs {want!r}"  # == for an infinite divergence


@pytest.mark.parametrize("case, mode", sorted(PINNED_REPORTS))
def test_eg_report_pinned(case, mode):
    _, rep = pinned_eg_report(case, mode)
    assert_pinned(asdict(rep), PINNED_REPORTS[case, mode])


@pytest.mark.parametrize("case, mode", sorted(PINNED_REPORTS))
def test_branch_fidelities_agree(case, mode):
    # the branch phases are 1 on the (m, m) entries the EPR fidelity reads
    code, rep = pinned_eg_report(case, mode)
    fidelities = rep.perStepDiagnostics["branchFidelities"]
    assert len(fidelities) == code.T
    assert max(fidelities) - min(fidelities) <= 1e-12
    assert rep.bestJ == 0


# ---- multi-pass reference: every stage rebuilt from the full protocol state


def ref_branches(code, V):
    """chi[m, l] = V^(x)n |x^n(m, l)> as a (dB^n, dW^n) matrix, from the n-fold isometry."""
    n, dB, dW = code.n, V.out_dim_b, V.out_dim_w
    Vn = kron_chain([0] * n, [V.V])
    idx = [int("".join(str(int(b)) for b in w), 2) for w in code.words.reshape(-1, n)]
    cols = Vn[:, idx].T.reshape((-1,) + (dB, dW) * n)
    perm = [0] + [1 + 2 * i for i in range(n)] + [2 + 2 * i for i in range(n)]
    return np.transpose(cols, perm).reshape(code.T, code.l_size, dB**n, dW**n)


def ref_roots(povm, abstain):
    elements = [np.asarray(e, dtype=complex) for e in povm]
    elements[0] = elements[0] + abstain
    return np.array([op.sqrtm_psd(e) for e in elements])


def ref_protocol_state(code, V, povm, abstain):
    T, L = code.T, code.l_size
    chi = ref_branches(code, V)
    amp = np.exp(1j * code.encode_phases) / math.sqrt(T * L)
    decoded = np.einsum("kab,ml,mlbw->mawk", ref_roots(povm, abstain), amp, chi)
    tau = np.zeros((T, T) + chi.shape[2:] + (T, L), dtype=complex)
    for m in range(T):
        tau[m, m] = decoded[m].reshape(tau.shape[2:])
    return tau


def ref_warden_state(code, V, povm, abstain):
    tau = ref_protocol_state(code, V, povm, abstain)
    return np.einsum("rmbwkl,rmbvkl->wv", tau, tau.conj())


def ref_uhlmann_inputs(code, V, alpha, mode):
    """Per message m, the ideal branch psi_m (dW^n x dB^n L) and its target theta_m
    zero-padded to dW^n x dC, built entry by entry as the decoupler builds them,
    so that products of them see the same bits as the decoupler's SVD."""
    T, L, n = code.T, code.l_size, code.n
    chi = ref_branches(code, V)
    dBn, dWn = chi.shape[2:]
    dC = max(dBn * L, dWn)
    psi = np.zeros((T, dWn, dBn, L), dtype=complex)
    for m in range(T):
        for l in range(L):
            phase = np.exp(1j * (code.encode_phases[m, l] + code.decode_phases[m, l]))
            psi[m, :, :, l] = phase * chi[m, l].T / math.sqrt(L)
    psi = psi.reshape(T, dWn, dBn * L)
    omega_alpha = (1 - alpha) * chn.marginal_outputs(V, 0)[1] + alpha * chn.marginal_outputs(V, 1)[1]
    thetas = []
    for m in range(T):
        psi[m] /= np.linalg.norm(psi[m])
        rho = op.tensor_power(omega_alpha, n) if mode == "paper-target" else psi[m] @ psi[m].conj().T
        theta = np.zeros((dWn, dC), dtype=complex)
        theta[:, :dWn] = op.canonical_purification(rho).reshape(dWn, dWn)
        thetas.append(theta)
    return psi, thetas


def ref_decoupled(code, V, povm, abstain, alpha, mode):
    T, L = code.T, code.l_size
    psi, thetas = ref_uhlmann_inputs(code, V, alpha, mode)
    (dWn, dC), dBn = thetas[0].shape, psi.shape[2] // L
    gammas = [eg.uhlmann_isometry(p.ravel(), (dWn, dBn * L), theta.ravel(), (dWn, dC)) for p, theta in zip(psi, thetas)]
    tau = ref_protocol_state(code, V, povm, abstain)
    out = np.einsum("rmbwkl,kcbl->rmwkc", tau, np.array(gammas).reshape(T, dC, dBn, L))
    overlap = min(abs(sum(np.vdot(thetas[0], out[m, m, :, m, :]) for m in range(T))) / math.sqrt(T), 1.0)
    # the decoupler's defect on the slice it meets: X_m rows (b, l), columns w;
    # relative to the largest Gram entry unless the slice is zero
    defects = []
    for m in range(T):
        x = np.moveaxis(tau[m, m, :, :, m, :], 1, 2).reshape(dBn * L, dWn)
        y = gammas[m] @ x
        gram = x.conj().T @ x
        scale = np.max(np.abs(gram))
        defects.append(float(np.max(np.abs(y.conj().T @ y - gram)) / (scale if scale > 0.0 else 1.0)))
    diagnostics = {
        "traceDistanceGHZ": 2.0 * math.sqrt(max(1.0 - overlap**2, 0.0)),
        "targetOverlap": overlap,
        "decouplerIsometryDefect": max(defects),
        "mode": mode,
        "alpha": alpha,
    }
    return out, diagnostics, thetas[0]


def ref_branch_fidelities(out):
    T = out.shape[0]
    fidelities = []
    for j in range(T):
        phases = np.exp(2j * np.pi * j * (np.arange(T)[None, :] - np.arange(T)[:, None]) / T)
        branch = np.einsum("rrwkc,rk->rwkc", out, phases)
        rho = np.einsum("rwkc,swqc->rksq", branch, branch.conj())
        fidelities.append(float(np.einsum("mmnn->", rho).real) / T)
    return fidelities


def random_rotated_setup(T, L, n):
    rng = np.random.default_rng(T * 100 + L * 10 + n)
    words = distinct_words(rng, T, L, n)
    return rotated_setup(words, rng.uniform(-np.pi, np.pi, (T, L)), rng.uniform(-np.pi, np.pi, (T, L)))


@pytest.mark.parametrize("shape", [(1, 1, 2), (2, 2, 3), (2, 1, 4), "pinned"])
def test_wrappers_match_multi_pass_reference(shape):
    code, V, povm, abstain, alpha = pinned_rotated_setup() if shape == "pinned" else random_rotated_setup(*shape)
    T, L, n = code.T, code.l_size, code.n
    tau = ref_protocol_state(code, V, povm, abstain)
    np.testing.assert_allclose(eg.protocol_state(code, V, povm, abstain), tau, rtol=0, atol=1e-12)
    np.testing.assert_allclose(
        eg.willie_marginal(code, V, povm, abstain),
        np.einsum("rmbwkl,rmbvkl->wv", tau, tau.conj()), rtol=0, atol=1e-12,
    )
    chi = ref_branches(code, V)
    raw = np.einsum("mlbw,mlbc,mlcw->ml", chi.conj(), ref_roots(povm, abstain).reshape(T, L, 2**n, 2**n), chi)
    t, h, diag = eg.align_phases(code, V, povm, abstain)
    np.testing.assert_array_equal(t, 0.0)
    np.testing.assert_allclose(h, np.angle(raw), rtol=0, atol=1e-12)
    assert diag["alignedOverlapSum"] == pytest.approx(np.sum(np.abs(raw)), abs=1e-12)
    assert diag["zeroPhaseOverlapSum"] == pytest.approx(np.sum(raw).real, abs=1e-12)
    for mode in ("paper-target", "self-target"):
        ref_out, ref_diag, _ = ref_decoupled(code, V, povm, abstain, alpha, mode)
        state, dec_diag = eg.decoupling_decoder(code, V, povm, abstain, alpha, mode)
        np.testing.assert_allclose(state, ref_out, rtol=0, atol=1e-12)
        # 2 sqrt(1 - overlap^2) is not Lipschitz at overlap 1, so the trace
        # distance is checked through the overlap it is computed from
        assert dec_diag["targetOverlap"] == pytest.approx(ref_diag["targetOverlap"], abs=1e-12)
        assert dec_diag["traceDistanceGHZ"] == 2.0 * math.sqrt(max(1.0 - dec_diag["targetOverlap"] ** 2, 0.0))
        assert dec_diag["decouplerIsometryDefect"] == pytest.approx(ref_diag["decouplerIsometryDefect"], abs=1e-12)
        assert (dec_diag["mode"], dec_diag["alpha"]) == (mode, alpha)
        best_j, fidelities = eg.eliminate_assistance(code, V, povm, abstain, alpha, mode)
        ref_fidelities = ref_branch_fidelities(ref_out)
        np.testing.assert_allclose(fidelities, ref_fidelities, rtol=0, atol=1e-12)
        assert best_j == next(i for i, f in enumerate(ref_fidelities) if f >= max(ref_fidelities) - 1e-12)


@pytest.mark.parametrize("case, mode", sorted(PINNED_REPORTS))
def test_eg_report_reads_only_the_matched_slices(monkeypatch, case, mode):
    # eg_report neither decouples the full decoded block nor reduces it
    def forbidden(*args, **kwargs):
        raise AssertionError("eg_report formed the full decoupled block")

    slices = eg._Decoded.slices

    def matched_only(decoded, m, every_r=False):
        if every_r:
            forbidden()
        return slices(decoded, m)

    monkeypatch.setattr(eg._Decoded, "slices", matched_only)
    monkeypatch.setattr(op, "partial_trace_vector", forbidden)
    code, V, povm, abstain, alpha = PINNED_SETUPS[case]()
    rep = eg.eg_report(code, V, povm, abstain, alpha=alpha, mode=mode)
    assert rep.fidelity == pytest.approx(PINNED_REPORTS[case, mode]["fidelity"], abs=1e-10)


def test_eg_report_diagonal_roots_and_purification_skip_lapack(monkeypatch):
    # on the excitation channel every POVM element and omega_alpha^(x)n are exactly
    # diagonal: the roots are read off the diagonals without sqrtm_psd, and the
    # purification never reaches np.linalg.eigh
    inside, calls, lapack_inside = [], {}, []
    lapack = np.linalg.eigh

    def counted(*args, **kwargs):
        lapack_inside.extend(inside[-1:])
        return lapack(*args, **kwargs)

    def tracked(name):
        real = getattr(op, name)

        def run(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            inside.append(name)
            try:
                return real(*args, **kwargs)
            finally:
                inside.pop()
        return run

    code, V, povm, abstain, alpha = demo_setup()
    monkeypatch.setattr(np.linalg, "eigh", counted)
    for name in ("sqrtm_psd", "canonical_purification"):
        monkeypatch.setattr(op, name, tracked(name))
    eg.eg_report(code, V, povm, abstain, alpha=alpha, mode="paper-target")
    assert calls == {"canonical_purification": 1}
    assert lapack_inside == []


def wide_environment_setup():
    # dC = dW^n = 81 exceeds dB^n * L = 32
    code = eg.default_demo_code()
    povm, abstain = eg.exact_string_povm(code.words.reshape(-1, code.n))
    return code, three_kraus_isometry(), povm, abstain, float(np.mean(code.words))


def near_complete_setup():
    # the completed POVM sums to I up to about 1e-10, inside the 1e-9 gate
    code, V, povm, abstain, alpha = random_rotated_setup(2, 2, 3)
    return code, V, povm, abstain + 1e-10 * np.diag(np.linspace(0.0, 1.0, 8)), alpha


SLICE_SETUPS = {
    "random-2-2-3": lambda: random_rotated_setup(2, 2, 3),
    "random-2-1-4": lambda: random_rotated_setup(2, 1, 4),
    "wide-environment": wide_environment_setup,
    "near-complete-povm": near_complete_setup,
}


def eg_report_phases(code, V, povm, abstain):
    """The code with eg_report's phases: zero encode phases, aligned decode phases."""
    _, h, _ = eg.align_phases(code, V, povm, abstain)
    return eg.EGToyCode.from_words(code.words, decode_phases=h)


@pytest.mark.parametrize("mode", ["paper-target", "self-target"])
@pytest.mark.parametrize("name", sorted(SLICE_SETUPS))
def test_eg_report_slices_match_full_block(name, mode):
    code, V, povm, abstain, alpha = SLICE_SETUPS[name]()
    rep = eg.eg_report(code, V, povm, abstain, alpha=alpha, mode=mode)
    aligned = eg_report_phases(code, V, povm, abstain)
    state, _ = eg.decoupling_decoder(aligned, V, povm, abstain, alpha, mode)
    np.testing.assert_allclose(rep.perStepDiagnostics["branchFidelities"], ref_branch_fidelities(state), rtol=0, atol=1e-12)
    assert rep.fidelity == rep.perStepDiagnostics["branchFidelities"][0]
    T = code.T
    _, _, theta_ref = ref_decoupled(aligned, V, povm, abstain, alpha, mode)
    overlap = abs(sum(np.vdot(theta_ref, state[m, m, :, m]) for m in range(T))) / math.sqrt(T)
    assert rep.perStepDiagnostics["targetOverlap"] == pytest.approx(overlap, abs=1e-12)
    omega0 = chn.marginal_outputs(V, 0)[1]
    tau_w = ref_warden_state(aligned, V, povm, abstain)
    assert rep.covertDivergence == pytest.approx(eigen_log_qre(tau_w, omega0, code.n), abs=1e-12)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_covert_divergence_on_rotated_damping_equals_the_eigen_log_oracle(n):
    # omega0^(x)n has eigenvalues below 1e-10 from n = 4 on, where the n-fold support test read inf
    code = eg.EGToyCode(distinct_words(np.random.default_rng(1), 2, 2, n))
    code, V, povm, abstain, alpha = decoded_setup(code, rotated_damping_isometry())
    want = eigen_log_qre(ref_warden_state(code, V, povm, abstain), chn.marginal_outputs(V, 0)[1], n)
    assert eg.eg_report(code, V, povm, abstain).covertDivergence == pytest.approx(want, rel=1e-9)


def test_covert_divergence_stays_infinite_off_the_warden_support():
    # unrotated amplitude damping: omega0 is pure, and the codewords' ones put weight off its support
    code = eg.EGToyCode(distinct_words(np.random.default_rng(1), 2, 2, 4))
    code, V, povm, abstain, alpha = decoded_setup(code, rotated_damping_isometry(0.3, 0.0, 0.0))
    assert eg.eg_report(code, V, povm, abstain).covertDivergence == math.inf


def test_warden_state_keeps_povm_completion_defect():
    # with sum Lam = I assumed, the warden state would differ by about 1e-10
    code, V, povm, abstain, _ = near_complete_setup()
    aligned = eg_report_phases(code, V, povm, abstain)
    exact = ref_warden_state(aligned, V, povm, abstain)
    complete = ref_warden_state(aligned, V, povm, np.eye(8) - sum(povm))
    assert np.max(np.abs(exact - complete)) > 1e-11
    np.testing.assert_allclose(eg.willie_marginal(aligned, V, povm, abstain), exact, rtol=0, atol=1e-13)


def one_letter_povm(low, dense):
    """The noiseless one-letter code with words 0 and 1, and elements diag(1 - low, 0)
    and diag(low, 1), which sum to I; rotated off the diagonal when ``dense``."""
    code = eg.EGToyCode.from_words(np.array([[[0]], [[1]]], dtype=np.uint8))
    povm = [np.diag([1.0 - low, 0.0]).astype(complex), np.diag([low, 1.0]).astype(complex)]
    if dense:
        c, s = math.cos(0.3), math.sin(0.3)
        u = np.array([[c, -s], [s, c]], dtype=complex)
        povm = [u @ e @ u.T for e in povm]
    return code, eg.noiseless_isometry(), povm


@pytest.mark.parametrize("dense", [False, True])
def test_negative_povm_element_raises(dense):
    # unchecked, the clipped roots gave fidelity 1.0977 and a warden state [[1.1]]
    code, V, povm = one_letter_povm(-0.2, dense)
    for run in (lambda: eg.eg_report(code, V, povm), lambda: eg.willie_marginal(code, V, povm)):
        with pytest.raises(DimMismatchError, match="below zero"):
            run()


@pytest.mark.parametrize("dense", [False, True])
def test_povm_negative_within_tolerance_runs(dense):
    code, V, povm = one_letter_povm(-1e-10, dense)
    rep = eg.eg_report(code, V, povm, mode="self-target")
    assert 0.0 <= rep.fidelity <= 1.0 + 1e-9
    assert np.trace(eg.willie_marginal(code, V, povm)).real == pytest.approx(1.0, abs=1e-9)


def with_diagonal_element(code, V, povm, abstain, alpha):
    """The POVM with element (0, 1) the exact diagonal D = diag(0, ..., 1), every other
    element conjugated by sqrt(I - D) and the old element (0, 1) moved into the
    abstain remainder, so the rest stay dense and the sum stays I."""
    d = np.linspace(0.0, 1.0, len(abstain))
    scale = np.sqrt(1.0 - d)

    def squeeze(e):
        return scale[:, None] * e * scale

    moved = squeeze(abstain + povm[1])
    povm = [np.diag(d).astype(complex) if k == 1 else squeeze(e) for k, e in enumerate(povm)]
    return code, V, povm, moved, alpha


@pytest.mark.parametrize("with_diagonal", [False, True])
def test_dense_povm_roots_take_one_eigh_per_element(monkeypatch, with_diagonal):
    # one spectrum per dense element gives both its positivity check and its root,
    # the bits of sqrtm_psd; an exactly diagonal element keeps its read-off root
    setup = random_rotated_setup(2, 2, 6)
    code, V, povm, abstain, _ = with_diagonal_element(*setup) if with_diagonal else setup
    elements, _ = eg._completed_povm(povm, abstain)
    dense = [op._real_diagonal(e) is None for e in elements]
    assert not all(dense) if with_diagonal else all(dense)
    want = np.array([op.sqrtm_psd(e) for e in elements])
    calls = {"eigh": 0, "eigvalsh": 0}

    def counted(name):
        lapack = getattr(np.linalg, name)

        def run(*args, **kwargs):
            calls[name] += 1
            return lapack(*args, **kwargs)
        return run

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counted(name))
    decoded = eg._decode(code, V, povm, abstain, "test")
    monkeypatch.undo()
    assert calls == {"eigh": sum(dense), "eigvalsh": 0}
    assert decoded.roots.dtype == want.dtype and decoded.roots.tobytes() == want.tobytes()


@pytest.mark.parametrize("case, mode", sorted(PINNED_REPORTS))
def test_decoupler_defect_is_live(monkeypatch, case, mode):
    # a decoupler that stretches its input by 1e-6 must show in the defect
    factors = eg._uhlmann_factors

    def stretched(psi_mat, theta_mat):
        u, vh = factors(psi_mat, theta_mat)
        return u * (1.0 + 1e-6), vh

    monkeypatch.setattr(eg, "_uhlmann_factors", stretched)
    code, V, povm, abstain, alpha = PINNED_SETUPS[case]()
    rep = eg.eg_report(code, V, povm, abstain, alpha=alpha, mode=mode)
    assert rep.perStepDiagnostics["decouplerIsometryDefect"] > 1e-7


def bench_eg_setup(seed=42, T=4, L=3, n=7):
    """The benchmark's eg input: excitation 0.1, T = 4, L = 3, n = 7, distinct words
    (other code shapes by keyword)."""
    code = eg.EGToyCode.from_words(distinct_words(np.random.default_rng(seed), T, L, n))
    return decoded_setup(code, excitation_isometry(0.1))


@pytest.mark.parametrize("mode", ["paper-target", "self-target"])
def test_eg_report_memory_bound(mode):
    # each Gamma^m is 384 x 384 here; holding all four and their 384 x 1536
    # concatenation took the peak to 32.5 MiB, and holding all T L = 12 channel
    # words through the decoupler (3 MiB) to 12.9 MiB
    code, V, povm, abstain, alpha = bench_eg_setup()
    with traced() as trace:
        eg.eg_report(code, V, povm, abstain, alpha=alpha, mode=mode)
    assert trace.peak < 11 * 2**20


@pytest.mark.parametrize("mode", ["paper-target", "self-target"])
@pytest.mark.parametrize("case", ["bench", "rotated"])
def test_decoupler_svd_sees_the_full_padded_product(monkeypatch, case, mode):
    # LAPACK's completion off the support of K sets the fidelity, so each SVD must
    # get all of K = theta^dag psi_m, zero rows included, bit for bit: on the sparse
    # bench input and on the dense rotated amplitude-damping one
    code, V, povm, abstain, alpha = bench_eg_setup() if case == "bench" else pinned_rotated_setup()
    inputs, svd = [], np.linalg.svd

    def recorded(a, *args, **kwargs):
        inputs.append(np.array(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recorded)
    eg.eg_report(code, V, povm, abstain, alpha=alpha, mode=mode)
    monkeypatch.undo()
    psi, thetas = ref_uhlmann_inputs(eg_report_phases(code, V, povm, abstain), V, alpha, mode)
    # the real excitation code's K is exactly real and goes to real LAPACK; the rotated one stays complex
    assert [K.dtype for K in inputs] == [np.float64 if case == "bench" else np.complex128] * code.T
    for K, p, theta in zip(inputs, psi, thetas):
        assert K.shape == (theta.shape[1], p.shape[1])  # dC x dB^n L
        assert np.array_equal(K, theta.conj().T @ p)


def ref_dense_report(code, V, povm, abstain, alpha, mode):
    """eg_report's fidelity, target overlap, decoupler defect and warden state with
    every product around the SVD dense: the library's factors (u, vh) applied to the
    whole X_m, both Gram matrices in full, and the full Gram sum of the POVM roots."""
    T, L = code.T, code.l_size
    decoded = eg._decode(eg.EGToyCode.from_words(code.words), V, povm, abstain, "reference")
    dBn, dWn = decoded.outputs.shape[1:]
    dense_roots = ref_roots(povm, abstain)
    roots = dense_roots.reshape(T, L, dBn, dBn)
    s, defect, theta_ref = 0.0, 0.0, None
    psi, thetas = ref_uhlmann_inputs(eg_report_phases(code, V, povm, abstain), V, alpha, mode)
    for m, (p, theta) in enumerate(zip(psi, thetas)):
        theta = theta[:, :dWn]
        u, vh = eg._uhlmann_factors(p, theta)
        theta_ref = theta if theta_ref is None else theta_ref
        x = np.swapaxes(np.matmul(roots[m], decoded.outputs[m]), 0, 1).reshape(dBn * L, dWn)
        y = np.conj(u @ (vh @ x.conj()))
        s = s + y
        gram = x.conj().T @ x
        defect = max(defect, float(np.max(np.abs(y.conj().T @ y - gram)) / np.max(np.abs(gram))))
    overlap = min(abs(np.vdot(theta_ref.T, s[: theta_ref.shape[1]])) / math.sqrt(T), 1.0)
    gram_roots = sum(r.conj().T @ r for r in dense_roots)
    tau = sum(o.T @ gram_roots.conj() @ o.conj() for o in decoded.outputs)
    return float(np.vdot(s, s).real) / T, overlap, defect, tau, decoded.overlaps


@lru_cache(maxsize=None)
def bench_eg_report(seed, mode):
    """eg_report on the benchmark's eg input at ``seed``, once per (seed, mode) for the
    tests that share it; first called outside dense_products(), so it is the fast pass."""
    code, V, povm, abstain, alpha = bench_eg_setup(seed)
    return eg.eg_report(code, V, povm, abstain, alpha=alpha, mode=mode)


@pytest.mark.parametrize("seed, mode", [(42, "paper-target"), (42, "self-target"), (7, "paper-target"),
                                        (1, "paper-target"), (2, "paper-target"), (3, "paper-target")])
def test_eg_report_on_the_support_matches_dense_products(seed, mode):
    code, V, povm, abstain, alpha = bench_eg_setup(seed)
    rep = bench_eg_report(seed, mode)
    fidelity, overlap, defect, tau, overlaps = ref_dense_report(code, V, povm, abstain, alpha, mode)
    assert rep.fidelity == fidelity
    diag = rep.perStepDiagnostics
    assert diag["targetOverlap"] == pytest.approx(overlap, abs=1e-12)
    assert rep.traceDistanceGHZ == diag["traceDistanceGHZ"] == 2.0 * math.sqrt(max(1.0 - diag["targetOverlap"] ** 2, 0.0))
    assert diag["decouplerIsometryDefect"] == pytest.approx(defect, abs=1e-12)
    assert diag["alignedOverlapSum"] == pytest.approx(np.sum(np.abs(overlaps)), abs=1e-12)
    assert diag["zeroPhaseOverlapSum"] == pytest.approx(np.sum(overlaps).real, abs=1e-12)
    np.testing.assert_allclose(eg.willie_marginal(code, V, povm, abstain), tau, rtol=0, atol=1e-12)
    omega0, omega1 = chn.marginal_outputs(V, 0)[1], chn.marginal_outputs(V, 1)[1]
    assert rep.covertDivergence == pytest.approx(eigen_log_qre(tau, omega0, code.n), abs=1e-12)
    classical = op.mean_word_product(code.words.reshape(-1, code.n), np.stack([omega0, omega1]))
    assert diag["willieClassicalGap"] == pytest.approx(op.trace_norm(tau - classical), abs=1e-12)


@pytest.mark.parametrize("mode", ["paper-target", "self-target"])
def test_decoupling_decoder_on_the_support_matches_dense_products(mode):
    code, V, povm, abstain, alpha = bench_eg_setup()
    state, _ = eg.decoupling_decoder(code, V, povm, abstain, alpha, mode)
    decoded = eg._decode(code, V, povm, abstain, "reference")
    (T, L), (dBn, dWn) = decoded.overlaps.shape, decoded.outputs.shape[1:]
    block, want = eg.protocol_state(code, V, povm, abstain)[np.arange(T), np.arange(T)], np.zeros_like(state)
    psi, thetas = ref_uhlmann_inputs(code, V, alpha, mode)
    for m, (p, theta) in enumerate(zip(psi, thetas)):
        u, vh = eg._uhlmann_factors(p, theta[:, :dWn])
        xs = np.swapaxes(block[..., m, :], -2, -1).reshape(-1, dBn * L, dWn)
        want[np.arange(T), np.arange(T), :, m, :] = np.swapaxes(np.conj(u @ (vh @ xs.conj())), -2, -1)
    np.testing.assert_allclose(state, want, rtol=0, atol=1e-12)


# ---- exactly diagonal operands: row scalings against eg_toy's dense products


@contextmanager
def dense_products():
    """eg_toy with the diagonal rule off: its POVM roots are dense matrices and K is
    the product theta^dag psi.  Only eg_toy's view of operators is patched, so
    sqrtm_psd and canonical_purification keep their own diagonal reads and the
    dense roots and theta are the bits they were before the row scalings."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(eg, "op", SimpleNamespace(**{**vars(op), "_real_diagonal": lambda m: None}))
        yield


@pytest.mark.parametrize("seed", [42, 7, 1, 2, 3])
def test_eg_report_diagonal_operands_equal_dense_products(seed):
    # every field and diagnostic, bit for bit: the row scalings feed the pinned SVDs
    # exactly what the dense products fed them
    code, V, povm, abstain, alpha = bench_eg_setup(seed)
    assert eg._decode(code, V, povm, abstain, "test").roots.shape == (code.T * code.l_size, 2**code.n)
    for mode in ("paper-target", "self-target"):
        rep = bench_eg_report(seed, mode)
        with dense_products():
            want = eg.eg_report(code, V, povm, abstain, alpha=alpha, mode=mode)
        assert rep == want


@pytest.mark.parametrize("setup", [demo_setup, lambda: bench_eg_setup(11, T=3, L=2, n=5)])
def test_wrappers_with_diagonal_roots_match_dense_products(setup):
    code, V, povm, abstain, alpha = setup()
    code = eg.EGToyCode.from_words(code.words, decode_phases=np.linspace(-1.0, 2.0, code.T * code.l_size).reshape(code.T, -1))
    got = [eg.protocol_state(code, V, povm, abstain), eg.willie_marginal(code, V, povm, abstain)]
    got += [eg.decoupling_decoder(code, V, povm, abstain, alpha, mode)[0] for mode in ("paper-target", "self-target")]
    with dense_products():
        assert eg._decode(code, V, povm, abstain, "test").roots.ndim == 3
        want = [eg.protocol_state(code, V, povm, abstain), eg.willie_marginal(code, V, povm, abstain)]
        want += [eg.decoupling_decoder(code, V, povm, abstain, alpha, mode)[0] for mode in ("paper-target", "self-target")]
    for g, w in zip(got, want):
        np.testing.assert_allclose(g, w, rtol=0, atol=1e-12)


def test_one_off_diagonal_entry_takes_the_dense_path():
    code, V, povm, abstain, alpha = demo_setup()
    nudged = [np.array(e) for e in povm]
    nudged[1][0, 1] = nudged[1][1, 0] = 1e-300
    assert eg._decode(code, V, povm, abstain, "test").roots.ndim == 2
    assert eg._decode(code, V, nudged, abstain, "test").roots.ndim == 3
    np.testing.assert_allclose(eg.protocol_state(code, V, nudged, abstain), eg.protocol_state(code, V, povm, abstain), rtol=0, atol=1e-12)
    np.testing.assert_allclose(eg.willie_marginal(code, V, nudged, abstain), eg.willie_marginal(code, V, povm, abstain), rtol=0, atol=1e-12)
    _, h_nudged, diag_nudged = eg.align_phases(code, V, nudged, abstain)
    _, h, diag = eg.align_phases(code, V, povm, abstain)
    np.testing.assert_allclose(h_nudged, h, rtol=0, atol=1e-12)
    assert diag_nudged == pytest.approx(diag, abs=1e-12)


def test_diagonal_roots_lower_the_eg_report_peak():
    # the dense (T L, dB^n, dB^n) root stack must not come back: the peak falls by
    # its size less the (T L, dB^n) diagonals held instead, within 32 KiB of other
    # allocations (about 3 KiB seen)
    code, V, povm, abstain, alpha = bench_eg_setup()
    peaks = []
    for context in (nullcontext(), dense_products()):
        with context, traced() as trace:
            eg.eg_report(code, V, povm, abstain, alpha=alpha)
        peaks.append(trace.peak)
    K, dBn = code.T * code.l_size, 2**code.n
    assert peaks[0] + 16 * K * dBn**2 - 8 * K * dBn - 2**15 <= peaks[1]


# ---- the decoupler's SVD in real arithmetic when K is exactly real


@contextmanager
def complex_svd():
    """np.linalg.svd with real input cast to complex: every decoupler SVD on complex
    LAPACK (zgesdd), the reference route for an exactly real K."""
    svd = np.linalg.svd
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "svd", lambda a, *args, **kwargs: svd(np.asarray(a, dtype=complex), *args, **kwargs))
        yield


@st.composite
def real_eg_cases(draw):
    """A code of distinct real words on the excitation or the (unrotated) amplitude-damping
    channel, T, L <= 3 and n <= 5, with its decoding POVM, and a decoupler mode."""
    T, L = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    n = draw(st.integers(max(1, (T * L - 1).bit_length()), 5))
    gamma = draw(st.floats(0.05, 0.95))
    V = draw(st.sampled_from([excitation_isometry, lambda g: rotated_damping_isometry(g, 0.0, 0.0)]))(gamma)
    code = eg.EGToyCode.from_words(distinct_words(np.random.default_rng(draw(st.integers(0, 2**16))), T, L, n))
    return decoded_setup(code, V), draw(st.sampled_from(["paper-target", "self-target"]))


# derandomized, so that the suite is deterministic: about one random draw in a
# thousand is a code whose completion of Gamma^m off K's support is set by roundoff,
# and there the two routes' fidelities part (CHANGES.md, ROADMAP item 2)
@settings(max_examples=40, deadline=None, derandomize=True)
@given(real_eg_cases())
def test_real_route_eg_report_equals_the_complex_route(case):
    (code, V, povm, abstain, alpha), mode = case
    rep = eg.eg_report(code, V, povm, abstain, alpha=alpha, mode=mode)
    with complex_svd():
        want = eg.eg_report(code, V, povm, abstain, alpha=alpha, mode=mode)
    assert_pinned(asdict(rep), asdict(want))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 4), st.integers(0, 2**16))
def test_real_route_uhlmann_isometry_equals_the_complex_route(dA, dB, extra, seed):
    # W is unique where K = theta^dag psi has full column rank (dA >= dB here); on a
    # rank-deficient K only W K^T = conj((K K^dag)^(1/2)) is, and LAPACK's completion
    # of W off K's support differs between the routes
    rng = np.random.default_rng(seed)
    dC = dB + extra
    psi, theta = rng.normal(size=dA * dB), rng.normal(size=dA * dC)
    W = eg.uhlmann_isometry(psi, (dA, dB), theta, (dA, dC))
    with complex_svd():
        want = eg.uhlmann_isometry(psi, (dA, dB), theta, (dA, dC))
    assert W.dtype == np.complex128
    np.testing.assert_allclose(W.conj().T @ W, np.eye(dB), rtol=0, atol=1e-12)
    K = theta.reshape(dA, dC).T @ psi.reshape(dA, dB)
    np.testing.assert_allclose(W @ K.T, want @ K.T, rtol=0, atol=1e-10)
    if dA >= dB:
        np.testing.assert_allclose(W, want, rtol=0, atol=1e-10)
