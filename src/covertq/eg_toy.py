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

Alice's preparation ties R to M, so every block with R != M is zero.
``eg_report`` therefore runs the steps above in a single pass over the R = M
block: one square root per POVM element and one channel-output matrix per
word give every decoded branch in one batched product; the decoupler is
built once and applied once; each Fourier branch of step 6 is the single
reduced state on (R, Mhat) times diagonal phase factors; and the warden's
state is one matrix product over the same block.  The public per-step
functions are thin wrappers over the same construction.
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


def _check_eg_budget(total_dim: int) -> None:
    if total_dim > eg_budget_cap():
        raise BudgetExceededError(f"protocol state dimension {total_dim} exceeds budget")


def _wbreve_dim(dBn: int, dWn: int, L: int) -> int:
    """Dimension of Wbreve: it must hold both B^n Lhat and the dW^n-column target."""
    return max(dBn * L, dWn)


@dataclass(frozen=True)
class _Decoded:
    """The protocol after encoding, channel and coherent decoding, built once.

    The full state has a zero block wherever R != M, so only the R = M
    diagonal is kept: ``decoded[m, k]`` is sqrt(Lam^k) applied to the channel
    output of the codeword |phi_m> (weighted by 1/sqrt(T)), a (dB^n x dW^n)
    matrix, with k = (m', l') in row-major order.
    """

    branches: np.ndarray  # (T, L, dB^n, dW^n): chi_{m,l}, channel output of each word
    overlaps: np.ndarray  # (T, L): <chi_{m,l}| sqrt(Lam^{(m,l)}) |chi_{m,l}>
    decoded: np.ndarray  # (T, T*L, dB^n, dW^n)

    @property
    def diag(self) -> np.ndarray:
        """The R = M diagonal of the protocol state, axes (R, B^n, W^n, Mhat, Lhat)."""
        T, L, dBn, dWn = self.branches.shape
        return np.moveaxis(self.decoded.reshape(T, T, L, dBn, dWn), (1, 2), (3, 4))


def _decode(code: EGToyCode, V: StinespringIsometry, povm, abstain, tol: Tolerances) -> _Decoded:
    """Budget and POVM checks, then every decoded branch from one square root
    per POVM element and one channel-output matrix per word."""
    T, L, n = code.T, code.l_size, code.n
    dBn, dWn = V.out_dim_b**n, V.out_dim_w**n
    # the protocol state, or the decoupled R = M block if that is larger
    _check_eg_budget(max(T * T * dBn * dWn * T * L, T * dWn * T * _wbreve_dim(dBn, dWn, L)))
    elements, defect = _completed_povm(povm, abstain, tol)
    if defect > 1e-9:
        raise DimMismatchError(f"POVM completion defect {defect:.3e}; supply the abstain remainder")
    sqrts = np.stack([op.sqrtm_psd(e, tol) for e in elements])
    chis = np.stack([_channel_word_matrix(w, V) for w in code.words.reshape(T * L, n)])
    overlaps = np.array([np.vdot(chi, root @ chi) for root, chi in zip(sqrts, chis)]).reshape(T, L)
    branches = chis.reshape(T, L, dBn, dWn)
    amp = np.exp(1j * code.encode_phases) / math.sqrt(T * L)
    outputs = np.einsum("ml,mlbw->mbw", amp, branches)
    return _Decoded(branches, overlaps, np.matmul(sqrts[None], outputs[:, None]))


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
    diag = _decode(code, V, povm, abstain, tol).diag
    T = code.T
    out = np.zeros((T,) + diag.shape, dtype=complex)
    out[np.arange(T), np.arange(T)] = diag
    return out


def _phase_alignment(overlaps: np.ndarray):
    t = np.zeros(overlaps.shape)
    h = np.angle(overlaps)
    diagnostics = {
        "alignedOverlapSum": float(np.sum(np.abs(overlaps))),
        "zeroPhaseOverlapSum": float(np.sum(overlaps).real),
    }
    return t, h, diagnostics


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
    return _phase_alignment(_decode(code, V, povm, abstain, tol).overlaps)


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


def _decoupler_targets(code: EGToyCode, V: StinespringIsometry, branches, alpha, mode: str, tol: Tolerances):
    """Per-message Uhlmann isometries Gamma^m : B^n Lhat -> Wbreve.

    ``branches`` holds the channel outputs chi_{m,l} as (dB^n x dW^n) matrices.
    Returns (gammas, theta_ref) with theta_ref the (dW^n x dC) matrix of the
    purification used as the comparison target in the GHZ distance.
    """
    T, L, n = code.T, code.l_size, code.n
    dBn, dWn = V.out_dim_b**n, V.out_dim_w**n
    dC = _wbreve_dim(dBn, dWn, L)
    if mode == "paper-target":
        _, omega0 = marginal_outputs(V, 0)
        _, omega1 = marginal_outputs(V, 1)
        omega_alpha = (1.0 - alpha) * omega0 + alpha * omega1
        pur = op.canonical_purification(op.tensor_power(omega_alpha, n), tol)
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
            psi[:, :, l] = phase * branches[m, l].T / math.sqrt(L)
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


def _decouple(code: EGToyCode, V: StinespringIsometry, decoded: _Decoded, alpha, mode: str, tol: Tolerances):
    """The R = M block after the controlled decoupler, axes (R, W^n, Mhat,
    Wbreve), and the decoupling diagnostics."""
    gammas, theta_ref = _decoupler_targets(code, V, decoded.branches, alpha, mode, tol)
    out = _apply_decoupler(decoded.diag, gammas)
    # overlap with GHZ (x) theta_ref: only the r = m = k slices meet the GHZ state
    overlap = abs(np.einsum("wc,mwmc->", theta_ref.conj(), out)) / math.sqrt(code.T)
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
    T, L, n = code.T, code.l_size, code.n
    dWn = V.out_dim_w**n
    _check_eg_budget(T * T * dWn * T * _wbreve_dim(V.out_dim_b**n, dWn, L))
    out, diagnostics = _decouple(code, V, _decode(code, V, povm, abstain, tol), alpha, mode, tol)
    state = np.zeros((T,) + out.shape, dtype=complex)
    state[np.arange(T), np.arange(T)] = out
    return state, diagnostics


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


def _assistance_branches(decoupled: np.ndarray):
    """Best Fourier branch and every branch fidelity of the decoupled R = M block.

    Branch j phases R by e^{-2 pi i j r / T} (the standalone encoder) and
    Mhat by e^{2 pi i j k / T} (the Z^j correction); both are diagonal, so
    each branch is the one reduced state on (R, Mhat) with phase factors.
    The factor on entry (r, k) is e^{2 pi i j (k - r) / T}, which is 1 on
    the (m, m) entries that ``_epr_fidelity`` reads, so every branch has the
    same fidelity up to rounding and ``best_j`` is 0.
    """
    T, dWn, _, dC = decoupled.shape
    rho = op.partial_trace_vector(decoupled.ravel(), [T, dWn, T, dC], [0, 2])
    index = np.arange(T)
    fidelities = []
    for j in range(T):
        f = np.outer(np.exp(-2j * np.pi * j * index / T), np.exp(2j * np.pi * j * index / T)).ravel()
        fidelities.append(_epr_fidelity(f[:, None] * rho * f.conj()[None, :], T))
    best = max(fidelities)
    best_j = next(i for i, f in enumerate(fidelities) if f >= best - 1e-12)
    return best_j, fidelities


def eliminate_assistance(code: EGToyCode, V: StinespringIsometry, povm, abstain=None, alpha: float | None = None, mode: str = "paper-target", tol: Tolerances = DEFAULT_TOL):
    """Evaluate every Fourier-branch encoder/decoder pair and keep the best.

    Branch j uses the standalone encoder sum_m e^{-2 pi i j m / T}|phi_m><m|
    followed by the same coherent decoder, decoupler, and the Z^j phase
    correction on Mhat.  Returns (best_j, fidelities) with ties broken toward
    the lowest index.
    """
    if alpha is None:
        alpha = float(np.mean(code.words))
    decoupled, _ = _decouple(code, V, _decode(code, V, povm, abstain, tol), alpha, mode, tol)
    return _assistance_branches(decoupled)


def _warden_state(decoded: _Decoded) -> np.ndarray:
    """Trace out everything but W^n: one product over the R = M blocks."""
    rows = decoded.decoded.reshape(-1, decoded.decoded.shape[-1])
    return rows.T @ rows.conj()


def willie_marginal(code: EGToyCode, V: StinespringIsometry, povm, abstain=None, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Warden's exact reduced state of the full protocol state."""
    return _warden_state(_decode(code, V, povm, abstain, tol))


def eg_report(code: EGToyCode, V: StinespringIsometry, povm, abstain=None, alpha: float | None = None, mode: str = "paper-target", tol: Tolerances = DEFAULT_TOL) -> EGReport:
    """Full pipeline: phase alignment, decoupling, assistance elimination,
    and exact covertness accounting, all from one decoded state."""
    if alpha is None:
        alpha = float(np.mean(code.words))
    unphased = replace(code, encode_phases=np.zeros((code.T, code.l_size)))
    decoded = _decode(unphased, V, povm, abstain, tol)
    _, h, phase_diag = _phase_alignment(decoded.overlaps)
    aligned = replace(unphased, decode_phases=h)
    decoupled, dec_diag = _decouple(aligned, V, decoded, alpha, mode, tol)
    best_j, fidelities = _assistance_branches(decoupled)
    tau_w = _warden_state(decoded)
    _, omega0 = marginal_outputs(V, 0)
    _, omega1 = marginal_outputs(V, 1)
    covert_div = dv.qre(tau_w, op.tensor_power(omega0, code.n), tol)
    # distance to the incoherent classical-codebook average, as a diagnostic
    states = (omega0, omega1)
    words = code.words.reshape(-1, code.n)
    classical = sum(op.tensor(*(states[b] for b in w)) for w in words) / len(words)
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
