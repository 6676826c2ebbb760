"""Exact toy-scale execution of the covert entanglement-generation protocol.

The protocol runs entirely on dense state vectors:

1. Alice prepares (1/sqrt(T)) sum_m |m>_R |m>_M and encodes each message as a
   quantum codeword |phi_m> = (1/sqrt(L)) sum_l e^{i t(m,l)} |x^n(m,l)>.
2. The channel isometry acts copy-wise, A^n -> B^n W^n.
3. Bob applies a coherent (isometric) version of a decoding POVM,
   D = sum_{m,l} sqrt(Lam^{(m,l)}) (x) |m>_Mhat (x) |l>_Lhat.
4. Phase alignment makes every per-branch overlap with the ideal decoded
   state real and nonnegative.
5. A controlled Uhlmann isometry (the decoupler) moves Bob's leftover
   systems into a reference purification, ideally leaving a GHZ state on
   (R, M, Mhat) times a fixed purification of the warden's reference.
6. A Fourier measurement on M plus a phase correction on Mhat converts the
   GHZ state into a bipartite maximally entangled state; trying every
   measurement outcome as a standalone encoder/decoder pair eliminates the
   need for the measurement.

System ordering of the full protocol state: R, M, B^n, W^n, Mhat, Lhat.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from functools import reduce

import numpy as np

from . import divergences as dv
from . import operators as op
from .channels import KrausChannel, StinespringIsometry, marginal_outputs, stinespring_from_kraus
from .errors import BudgetExceededError, DimMismatchError, DuplicateWordError
from .operators import DEFAULT_TOL, Tolerances

#: Default cap on the total dense dimension of the protocol state.
DEFAULT_EG_BUDGET = 1 << 22


def eg_budget_cap() -> int:
    raw = os.environ.get("COVERTQ_MAX_DENSE_DIM")
    return int(raw) if raw else DEFAULT_EG_BUDGET


@dataclass(frozen=True)
class EGToyCode:
    """A toy quantum codebook: T messages, L strings per message."""

    T: int
    l_size: int
    n: int
    words: np.ndarray  # uint8, shape (T, l_size, n)
    encode_phases: np.ndarray  # float, shape (T, l_size)
    decode_phases: np.ndarray  # float, shape (T, l_size)

    @staticmethod
    def from_words(words, encode_phases=None, decode_phases=None) -> "EGToyCode":
        w = np.asarray(words, dtype=np.uint8)
        T, l_size, n = w.shape
        t = np.zeros((T, l_size)) if encode_phases is None else np.asarray(encode_phases, dtype=float)
        h = np.zeros((T, l_size)) if decode_phases is None else np.asarray(decode_phases, dtype=float)
        return EGToyCode(T=T, l_size=l_size, n=n, words=w, encode_phases=t, decode_phases=h)


@dataclass(frozen=True)
class EGReport:
    fidelity: float
    covertDivergence: float
    traceDistanceGHZ: float
    bestJ: int
    perStepDiagnostics: dict


def default_demo_code() -> EGToyCode:
    """The stock n=4, T=2, L=2 codebook used by the demo command."""
    words = np.array(
        [
            [[0, 0, 0, 0], [0, 0, 1, 1]],
            [[1, 1, 0, 0], [1, 0, 1, 0]],
        ],
        dtype=np.uint8,
    )
    return EGToyCode.from_words(words)


def noiseless_isometry() -> StinespringIsometry:
    """Identity qubit channel with a trivial (one-dimensional) environment."""
    return stinespring_from_kraus(KrausChannel((np.eye(2, dtype=complex),)))


def exact_string_povm(words, dim_b: int = 2):
    """Projective POVM of computational string projectors, one per word.

    All words must be distinct; the remainder I - sum of projectors is the
    abstain element.
    """
    words = [tuple(int(b) for b in w) for w in words]
    if len(set(words)) != len(words):
        raise DuplicateWordError("exact string POVM needs distinct words")
    n = len(words[0])
    dim = dim_b**n
    elements = []
    for w in words:
        idx = 0
        for b in w:
            idx = idx * dim_b + b
        proj = np.zeros((dim, dim), dtype=complex)
        proj[idx, idx] = 1.0
        elements.append(proj)
    abstain = np.eye(dim, dtype=complex) - sum(elements)
    return elements, abstain


def build_quantum_codewords(code: EGToyCode) -> list[np.ndarray]:
    """Codeword superpositions |phi_m> on the n-qubit input space."""
    states = []
    for m in range(code.T):
        strings = [tuple(int(b) for b in w) for w in code.words[m]]
        if len(set(strings)) != len(strings):
            raise DuplicateWordError(f"repeated classical word within message {m}")
        vec = np.zeros(2**code.n, dtype=complex)
        for l, w in enumerate(strings):
            idx = int("".join(map(str, w)), 2)
            vec[idx] += np.exp(1j * code.encode_phases[m, l])
        states.append(vec / math.sqrt(code.l_size))
    return states


def _channel_word_matrix(word, V: StinespringIsometry) -> np.ndarray:
    """Channel output of a basis string as a (dB^n x dW^n) matrix.

    Row index enumerates B^n, column index W^n; the vectorization of this
    matrix is V^{(x)n}|x^n> in B-major order.
    """
    factors = [V.V[:, int(b)].reshape(V.out_dim_b, V.out_dim_w) for b in word]
    return reduce(np.kron, factors)


def _completed_povm(povm, abstain, tol: Tolerances):
    """Route the abstain remainder into outcome 0, keeping sum = I."""
    elements = [np.asarray(e, dtype=complex) for e in povm]
    if abstain is not None:
        elements[0] = elements[0] + np.asarray(abstain, dtype=complex)
    total = sum(elements)
    defect = float(np.max(np.abs(total - np.eye(total.shape[0]))))
    return elements, defect


def protocol_state(code: EGToyCode, V: StinespringIsometry, povm, abstain=None, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Global pure state after encoding, channel, and coherent decoding.

    ``povm`` lists the decoding POVM elements on B^n in (m, l) row-major
    order; any ``abstain`` remainder is routed into outcome (0, 0) so the
    coherent measurement is exactly isometric.

    Returns
    -------
    ndarray of shape (T, T, dB^n, dW^n, T, L)
        The normalized state tensor over (R, M, B^n, W^n, Mhat, Lhat).
    """
    T, L, n = code.T, code.l_size, code.n
    dBn, dWn = V.out_dim_b**n, V.out_dim_w**n
    total_dim = T * T * dBn * dWn * T * L
    if total_dim > eg_budget_cap():
        raise BudgetExceededError(f"protocol state dimension {total_dim} exceeds budget")
    elements, defect = _completed_povm(povm, abstain, tol)
    if defect > 1e-9:
        raise DimMismatchError(f"POVM completion defect {defect:.3e}; supply the abstain remainder")
    sqrts = [op.sqrtm_psd(e, tol) for e in elements]
    out = np.zeros((T, T, dBn, dWn, T, L), dtype=complex)
    for m in range(T):
        for l in range(L):
            chi = _channel_word_matrix(code.words[m, l], V)
            amp = np.exp(1j * code.encode_phases[m, l]) / math.sqrt(T * L)
            for mp in range(T):
                for lp in range(L):
                    out[m, m, :, :, mp, lp] += amp * (sqrts[mp * L + lp] @ chi)
    return out


def _ideal_branches(code: EGToyCode, V: StinespringIsometry):
    """Ideal decoded branch chi_{m,l} matrices, indexed [m][l]."""
    return [
        [_channel_word_matrix(code.words[m, l], V) for l in range(code.l_size)]
        for m in range(code.T)
    ]


def align_phases(code: EGToyCode, V: StinespringIsometry, povm, abstain=None, tol: Tolerances = DEFAULT_TOL):
    """Choose phases making every per-branch decoded overlap real nonnegative.

    The encode phases stay zero; the decode phase h(m, l) is the argument of
    the overlap between the ideal branch (channel output with the correct
    outcome registered) and the actual decoded branch.

    Returns
    -------
    (t, h, diagnostics) : (ndarray, ndarray, dict)
        ``diagnostics`` reports the summed branch overlap with aligned and
        with zero phases.
    """
    elements, _ = _completed_povm(povm, abstain, tol)
    sqrts = [op.sqrtm_psd(e, tol) for e in elements]
    T, L = code.T, code.l_size
    t = np.zeros((T, L))
    h = np.zeros((T, L))
    raw = np.zeros((T, L), dtype=complex)
    for m in range(T):
        for l in range(L):
            chi = _channel_word_matrix(code.words[m, l], V)
            # overlap of the ideal branch with the correctly-decoded branch
            raw[m, l] = np.vdot(chi, sqrts[m * L + l] @ chi)
            h[m, l] = float(np.angle(raw[m, l]))
    diagnostics = {
        "alignedOverlapSum": float(np.sum(np.abs(raw))),
        "zeroPhaseOverlapSum": float(np.sum(raw).real),
    }
    return t, h, diagnostics


def uhlmann_isometry(psi, dims_psi, theta, dims_theta, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Partial isometry W : B -> C aligning two purifications.

    ``psi`` lives on A (x) B with dims ``dims_psi = (dA, dB)`` and ``theta``
    on A (x) C with ``dims_theta = (dA, dC)``.  The returned dC x dB matrix
    satisfies W^dag W = I_B and maximizes |<theta|(I_A (x) W)|psi>|; the
    achieved overlap equals sqrt(F) of the reduced states on A.
    """
    dA, dB = dims_psi
    dA2, dC = dims_theta
    if dA != dA2:
        raise DimMismatchError(f"shared-system dims differ: {dA} vs {dA2}")
    if dC < dB:
        raise DimMismatchError(f"target side dim {dC} < source side dim {dB}; pad C")
    psi_mat = np.asarray(psi, dtype=complex).reshape(dA, dB)
    theta_mat = np.asarray(theta, dtype=complex).reshape(dA, dC)
    # cross-overlap K[c, b]; the optimum sum_{c,b} K[c,b] W[c,b] is ||K||_1
    K = theta_mat.conj().T @ psi_mat
    u, _, vh = np.linalg.svd(K, full_matrices=False)
    return np.conj(u @ vh)


def _decoupler_targets(code: EGToyCode, V: StinespringIsometry, alpha, mode: str, tol: Tolerances):
    """Per-message Uhlmann isometries Gamma^m : B^n Lhat -> Wbreve.

    Returns (gammas, theta_ref) with theta_ref the (dW^n x dC) matrix of the
    purification used as the comparison target in the GHZ distance.
    """
    T, L, n = code.T, code.l_size, code.n
    dBn, dWn = V.out_dim_b**n, V.out_dim_w**n
    dC = dBn * L
    branches = _ideal_branches(code, V)
    if mode == "paper-target":
        _, omega0 = marginal_outputs(V, 0)
        _, omega1 = marginal_outputs(V, 1)
        omega_alpha = (1.0 - alpha) * omega0 + alpha * omega1
        pur = op.canonical_purification(op.tensor_power(omega_alpha, n) if n > 1 else omega_alpha, tol)
        theta = np.zeros((dWn, dC), dtype=complex)
        theta[:, :dWn] = pur.reshape(dWn, dWn)
    elif mode != "self-target":
        raise ValueError(f"unknown decoupling mode {mode!r}")
    gammas = []
    theta_ref = None
    for m in range(T):
        # ideal per-message branch on (W^n; B^n Lhat), decode phases applied
        psi = np.zeros((dWn, dBn, L), dtype=complex)
        for l in range(L):
            phase = np.exp(1j * (code.encode_phases[m, l] + code.decode_phases[m, l]))
            psi[:, :, l] = phase * branches[m][l].T / math.sqrt(L)
        psi = psi.reshape(dWn, dBn * L)
        psi /= np.linalg.norm(psi)
        if mode == "self-target":
            marg = psi @ psi.conj().T
            pur = op.canonical_purification(marg, tol)
            theta = np.zeros((dWn, dC), dtype=complex)
            theta[:, :dWn] = pur.reshape(dWn, dWn)
        if theta_ref is None:
            theta_ref = theta
        gammas.append(uhlmann_isometry(psi.ravel(), (dWn, dBn * L), theta.ravel(), (dWn, dC), tol))
    return gammas, theta_ref


def _apply_decoupler(state: np.ndarray, gammas) -> np.ndarray:
    """Apply sum_m |m><m|_Mhat (x) Gamma^m to the trailing (B, W, Mhat, L)
    axes of a state tensor; output axes end with (W, Mhat, Wbreve)."""
    prefix = state.shape[:-4]
    dB, dW, T, L = state.shape[-4:]
    dC = gammas[0].shape[0]
    moved = np.moveaxis(state, -4, -2)  # (..., W, Mhat, B, L)
    moved = moved.reshape(prefix + (dW, T, dB * L))
    out = np.empty(prefix + (dW, T, dC), dtype=complex)
    for m in range(T):
        out[..., m, :] = moved[..., m, :] @ gammas[m].T
    return out


def _ghz_tensor(T: int) -> np.ndarray:
    g = np.zeros((T, T, T), dtype=complex)
    for m in range(T):
        g[m, m, m] = 1.0
    return g / math.sqrt(T)


def decoupling_decoder(code: EGToyCode, V: StinespringIsometry, povm, abstain=None, alpha: float | None = None, mode: str = "paper-target", tol: Tolerances = DEFAULT_TOL):
    """Run the protocol through the controlled Uhlmann decoupler.

    Returns
    -------
    (state, diagnostics) : (ndarray, dict)
        ``state`` has axes (R, M, W^n, Mhat, Wbreve); diagnostics include the
        trace distance to GHZ (x) reference purification and isometry defects.
    """
    if alpha is None:
        alpha = float(np.mean(code.words))
    tau = protocol_state(code, V, povm, abstain, tol)
    gammas, theta_ref = _decoupler_targets(code, V, alpha, mode, tol)
    out = _apply_decoupler(tau, gammas)
    T = code.T
    dWn = V.out_dim_w**code.n
    dC = gammas[0].shape[0]
    target = np.einsum("rmk,wc->rmwkc", _ghz_tensor(T), theta_ref.reshape(dWn, dC))
    overlap = abs(np.vdot(target, out))
    overlap = min(overlap, 1.0)
    trace_dist = 2.0 * math.sqrt(max(1.0 - overlap**2, 0.0))
    gamma_defect = max(
        float(np.max(np.abs(g.conj().T @ g - np.eye(g.shape[1])))) for g in gammas
    )
    diagnostics = {
        "traceDistanceGHZ": trace_dist,
        "targetOverlap": float(overlap),
        "decouplerIsometryDefect": gamma_defect,
        "mode": mode,
        "alpha": float(alpha),
    }
    return out, diagnostics


def ghz_to_epr(state_rmmhat, T: int, j: int):
    """Fourier-measure the M register with outcome j and correct Mhat.

    ``state_rmmhat`` is a density operator on R (x) M (x) Mhat (each of
    dimension T).  On an exact GHZ input the output is the maximally
    entangled state on R (x) Mhat for every outcome j.
    """
    rho = np.asarray(state_rmmhat, dtype=complex)
    if rho.shape[0] != T**3:
        raise DimMismatchError(f"expected dim {T**3}, got {rho.shape[0]}")
    f_j = np.exp(2j * np.pi * j * np.arange(T) / T) / math.sqrt(T)
    t = rho.reshape(T, T, T, T, T, T)
    reduced = np.einsum("m,rmkspq,p->rksq", f_j.conj(), t, f_j)
    reduced = reduced.reshape(T * T, T * T)
    prob = np.trace(reduced).real
    if prob <= 0.0:
        raise DimMismatchError(f"measurement outcome {j} has zero probability")
    reduced /= prob
    corr = np.kron(np.eye(T), np.diag(np.exp(2j * np.pi * j * np.arange(T) / T)))
    return corr @ reduced @ corr.conj().T


def _epr_fidelity(rho_rmhat: np.ndarray, T: int) -> float:
    phi = np.zeros(T * T, dtype=complex)
    for m in range(T):
        phi[m * T + m] = 1.0
    phi /= math.sqrt(T)
    return float(np.real(np.vdot(phi, rho_rmhat @ phi)))


def eliminate_assistance(code: EGToyCode, V: StinespringIsometry, povm, abstain=None, alpha: float | None = None, mode: str = "paper-target", tol: Tolerances = DEFAULT_TOL):
    """Evaluate every Fourier-branch encoder/decoder pair and keep the best.

    Branch j uses the standalone encoder sum_m e^{-2 pi i j m / T}|phi_m><m|
    followed by the same coherent decoder, decoupler, and the Z^j phase
    correction on Mhat.  Returns (best_j, fidelities) with ties broken toward
    the lowest index.
    """
    if alpha is None:
        alpha = float(np.mean(code.words))
    tau = protocol_state(code, V, povm, abstain, tol)
    gammas, _ = _decoupler_targets(code, V, alpha, mode, tol)
    T = code.T
    dWn = V.out_dim_w**code.n
    dC = gammas[0].shape[0]
    # the standalone branch-j state is the (R = M) diagonal of tau, phased;
    # each diagonal block carries weight 1/T, so the slice is already normalized
    diag = np.einsum("rrbwkl->rbwkl", tau)
    fidelities = []
    for j in range(T):
        phases = np.exp(-2j * np.pi * j * np.arange(T) / T)
        branch = diag * phases[:, None, None, None, None]
        decoupled = _apply_decoupler(branch, gammas)  # (R, W, Mhat, Wbreve)
        corr = np.exp(2j * np.pi * j * np.arange(T) / T)
        decoupled = decoupled * corr[None, None, :, None]
        rho = op.partial_trace_vector(decoupled.ravel(), [T, dWn, T, dC], [0, 2])
        fidelities.append(_epr_fidelity(rho, T))
    best = max(fidelities)
    best_j = next(i for i, f in enumerate(fidelities) if f >= best - 1e-12)
    return best_j, fidelities


def willie_marginal(code: EGToyCode, V: StinespringIsometry, povm, abstain=None, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Warden's exact reduced state of the full protocol state."""
    tau = protocol_state(code, V, povm, abstain, tol)
    T, L = code.T, code.l_size
    dBn, dWn = V.out_dim_b**code.n, V.out_dim_w**code.n
    return op.partial_trace_vector(tau.ravel(), [T, T, dBn, dWn, T, L], [3])


def eg_report(code: EGToyCode, V: StinespringIsometry, povm, abstain=None, alpha: float | None = None, mode: str = "paper-target", tol: Tolerances = DEFAULT_TOL) -> EGReport:
    """Full pipeline: phase alignment, decoupling, assistance elimination,
    and exact covertness accounting."""
    if alpha is None:
        alpha = float(np.mean(code.words))
    t, h, phase_diag = align_phases(code, V, povm, abstain, tol)
    aligned = replace(code, encode_phases=t, decode_phases=h)
    _, dec_diag = decoupling_decoder(aligned, V, povm, abstain, alpha, mode, tol)
    best_j, fidelities = eliminate_assistance(aligned, V, povm, abstain, alpha, mode, tol)
    tau_w = willie_marginal(aligned, V, povm, abstain, tol)
    _, omega0 = marginal_outputs(V, 0)
    _, omega1 = marginal_outputs(V, 1)
    ref = op.tensor_power(omega0, code.n) if code.n > 1 else omega0
    covert_div = dv.qre(tau_w, ref, tol)
    # distance to the incoherent classical-codebook average, as a diagnostic
    classical = np.zeros_like(tau_w)
    for m in range(code.T):
        for l in range(code.l_size):
            states = [omega0, omega1]
            prod = states[int(code.words[m, l, 0])]
            for b in code.words[m, l, 1:]:
                prod = np.kron(prod, states[int(b)])
            classical += prod
    classical /= code.T * code.l_size
    diagnostics = dict(phase_diag)
    diagnostics.update(dec_diag)
    diagnostics["willieClassicalGap"] = op.trace_norm(tau_w - classical)
    diagnostics["branchFidelities"] = [float(f) for f in fidelities]
    diagnostics["meanBranchFidelity"] = float(np.mean(fidelities))
    return EGReport(
        fidelity=float(fidelities[best_j]),
        covertDivergence=float(covert_div),
        traceDistanceGHZ=float(dec_diag["traceDistanceGHZ"]),
        bestJ=int(best_j),
        perStepDiagnostics=diagnostics,
    )
