import math
from functools import reduce

import numpy as np
import pytest

from covertq import channels as chn
from covertq import covert_sim as cs
from covertq import divergences as dv
from covertq import eg_toy as eg
from covertq import operators as op
from covertq.errors import BudgetExceededError, DimMismatchError, DuplicateWordError


def demo_setup(gamma=0.1):
    code = eg.default_demo_code()
    V = chn.stinespring_from_kraus(chn.excitation_channel(gamma))
    quad = chn.build_covert_channel(V)
    words = [code.words[m, l] for m in range(code.T) for l in range(code.l_size)]
    alpha = float(np.mean(code.words))
    a = 0.5 * alpha * code.n * dv.qre(quad.sigma1, quad.sigma0)
    povm, abstain = cs.square_root_povm(words, quad.sigma0, quad.sigma1, a)
    return code, V, povm, abstain, alpha


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
    code = eg.EGToyCode.from_words(np.array([[[0, 1], [0, 1]]], dtype=np.uint8))
    with pytest.raises(DuplicateWordError):
        eg.build_quantum_codewords(code)
    with pytest.raises(DuplicateWordError):
        eg.exact_string_povm([[0, 1], [0, 1]])


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
    V = chn.stinespring_from_kraus(chn.excitation_channel(0.1))
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
    g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    psi = op.canonical_purification(rho)
    u, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    theta = (psi.reshape(3, 3) @ u.T).ravel()
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


def test_uhlmann_random_optimality():
    rng = np.random.default_rng(2)
    for _ in range(20):
        dA, dB, dC = 3, 4, 5
        psi = rng.normal(size=dA * dB) + 1j * rng.normal(size=dA * dB)
        psi /= np.linalg.norm(psi)
        theta = rng.normal(size=dA * dC) + 1j * rng.normal(size=dA * dC)
        theta /= np.linalg.norm(theta)
        W = eg.uhlmann_isometry(psi, (dA, dB), theta, (dA, dC))
        np.testing.assert_allclose(W.conj().T @ W, np.eye(dB), atol=1e-9)
        ov = abs(np.vdot(theta.reshape(dA, dC), psi.reshape(dA, dB) @ W.T))
        rho = psi.reshape(dA, dB) @ psi.reshape(dA, dB).conj().T
        sig = theta.reshape(dA, dC) @ theta.reshape(dA, dC).conj().T
        assert ov**2 == pytest.approx(op.fidelity(rho, sig), abs=1e-9)


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
    code, V, povm, abstain, alpha = demo_setup()
    rep = eg.eg_report(code, V, povm, abstain, alpha=alpha)
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


def rotated_damping_isometry(gamma=0.3, theta=0.7, phi=0.4):
    """Amplitude damping after a fixed input rotation: neither output pair commutes."""
    a0 = np.array([[1, 0], [0, math.sqrt(1 - gamma)]], dtype=complex)
    a1 = np.array([[0, math.sqrt(gamma)], [0, 0]], dtype=complex)
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    u = np.array([[c, -s * np.exp(-1j * phi)], [s * np.exp(1j * phi), c]], dtype=complex)
    return chn.stinespring_from_kraus(chn.KrausChannel((a0 @ u, a1 @ u)))


def rotated_setup(words, encode_phases, decode_phases):
    code = eg.EGToyCode.from_words(words, encode_phases, decode_phases)
    V = rotated_damping_isometry()
    quad = chn.build_covert_channel(V)
    alpha = float(np.mean(code.words))
    a = 0.5 * alpha * code.n * dv.qre(quad.sigma1, quad.sigma0)
    povm, abstain = cs.square_root_povm(list(code.words.reshape(-1, code.n)), quad.sigma0, quad.sigma1, a)
    return code, V, povm, abstain, alpha


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
        "fidelity": 0.33553091156606385,
        "covertDivergence": 1.5703062890722934,
        "traceDistanceGHZ": 1.6941330238169519,
        "bestJ": 0,
        "perStepDiagnostics": {
            "alignedOverlapSum": 3.3606523681184255,
            "zeroPhaseOverlapSum": 3.3606523681184255,
            "traceDistanceGHZ": 1.6941330238169519,
            "targetOverlap": 0.5314868995593475,
            "decouplerIsometryDefect": 1.1102230246251565e-15,
            "mode": "paper-target",
            "alpha": 0.4444444444444444,
            "willieClassicalGap": 0.21407469048674838,
            "branchFidelities": [0.33553091156606385, 0.33553091156606385, 0.33553091156606385],
            "meanBranchFidelity": 0.33553091156606385,
        },
    },
    ("rotated", "self-target"): {
        "fidelity": 0.3292565916943008,
        "covertDivergence": 1.5703062890722934,
        "traceDistanceGHZ": 1.7062551257717133,
        "bestJ": 0,
        "perStepDiagnostics": {
            "alignedOverlapSum": 3.3606523681184255,
            "zeroPhaseOverlapSum": 3.3606523681184255,
            "traceDistanceGHZ": 1.7062551257717133,
            "targetOverlap": 0.5217023686398583,
            "decouplerIsometryDefect": 1.1102230246251565e-15,
            "mode": "self-target",
            "alpha": 0.4444444444444444,
            "willieClassicalGap": 0.21407469048674838,
            "branchFidelities": [0.3292565916943008, 0.3292565916943008, 0.3292565916943008],
            "meanBranchFidelity": 0.3292565916943008,
        },
    },
}


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
        assert abs(got - want) <= 1e-10, f"{path}: {got!r} vs {want!r}"


@pytest.mark.parametrize("case, mode", sorted(PINNED_REPORTS))
def test_eg_report_pinned(case, mode):
    code, V, povm, abstain, alpha = demo_setup() if case == "demo" else pinned_rotated_setup()
    rep = eg.eg_report(code, V, povm, abstain, alpha=alpha, mode=mode)
    got = {
        "fidelity": rep.fidelity,
        "covertDivergence": rep.covertDivergence,
        "traceDistanceGHZ": rep.traceDistanceGHZ,
        "bestJ": rep.bestJ,
        "perStepDiagnostics": rep.perStepDiagnostics,
    }
    assert_pinned(got, PINNED_REPORTS[case, mode])


@pytest.mark.parametrize("case, mode", sorted(PINNED_REPORTS))
def test_branch_fidelities_agree(case, mode):
    # the branch phases are 1 on the (m, m) entries the EPR fidelity reads
    code, V, povm, abstain, alpha = demo_setup() if case == "demo" else pinned_rotated_setup()
    rep = eg.eg_report(code, V, povm, abstain, alpha=alpha, mode=mode)
    fidelities = rep.perStepDiagnostics["branchFidelities"]
    assert len(fidelities) == code.T
    assert max(fidelities) - min(fidelities) <= 1e-12
    assert rep.bestJ == 0


# ---- multi-pass reference: every stage rebuilt from the full protocol state


def ref_branches(code, V):
    """chi[m, l] = V^(x)n |x^n(m, l)> as a (dB^n, dW^n) matrix, from the n-fold isometry."""
    n, dB, dW = code.n, V.out_dim_b, V.out_dim_w
    Vn = reduce(np.kron, [V.V] * n)
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


def ref_decoupled(code, V, povm, abstain, alpha, mode):
    T, L, n = code.T, code.l_size, code.n
    chi = ref_branches(code, V)
    dBn, dWn = chi.shape[2:]
    dC = max(dBn * L, dWn)
    # entry by entry, so the SVD inside uhlmann_isometry sees the same bits
    psi = np.zeros((T, dWn, dBn, L), dtype=complex)
    for m in range(T):
        for l in range(L):
            phase = np.exp(1j * (code.encode_phases[m, l] + code.decode_phases[m, l]))
            psi[m, :, :, l] = phase * chi[m, l].T / math.sqrt(L)
    psi = psi.reshape(T, dWn, dBn * L)
    omega_alpha = (1 - alpha) * chn.marginal_outputs(V, 0)[1] + alpha * chn.marginal_outputs(V, 1)[1]
    gammas, thetas = [], []
    for m in range(T):
        psi[m] /= np.linalg.norm(psi[m])
        rho = op.tensor_power(omega_alpha, n) if mode == "paper-target" else psi[m] @ psi[m].conj().T
        theta = np.zeros((dWn, dC), dtype=complex)
        theta[:, :dWn] = op.canonical_purification(rho).reshape(dWn, dWn)
        thetas.append(theta)
        gammas.append(eg.uhlmann_isometry(psi[m].ravel(), (dWn, dBn * L), theta.ravel(), (dWn, dC)))
    tau = ref_protocol_state(code, V, povm, abstain)
    out = np.einsum("rmbwkl,kcbl->rmwkc", tau, np.array(gammas).reshape(T, dC, dBn, L))
    overlap = min(abs(sum(np.vdot(thetas[0], out[m, m, :, m, :]) for m in range(T))) / math.sqrt(T), 1.0)
    diagnostics = {
        "traceDistanceGHZ": 2.0 * math.sqrt(max(1.0 - overlap**2, 0.0)),
        "targetOverlap": overlap,
        "decouplerIsometryDefect": max(float(np.max(np.abs(g.conj().T @ g - np.eye(g.shape[1])))) for g in gammas),
        "mode": mode,
        "alpha": alpha,
    }
    return out, diagnostics


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
    index = rng.choice(2**n, T * L, replace=False)
    words = ((index[:, None] >> np.arange(n - 1, -1, -1)) & 1).reshape(T, L, n)
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
        ref_out, ref_diag = ref_decoupled(code, V, povm, abstain, alpha, mode)
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
