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
An ``EGToyCode`` is its words: T, L and n are read off their shape, and its
constructor checks the letters, the phases and that no word repeats within a
message.  ``_decode`` checks that the POVM has T L elements on B^n, and reads
the warden's single-letter outputs omega_0, omega_1 once for the whole pass.

Alice's preparation ties R to M, so every block with R != M is zero.
``eg_report`` runs the steps above in one pass over the R = M block and
forms only what it reads.  The decoupler acts on the Mhat = R slices alone,
which give both the EPR fidelity and the GHZ overlap; every Fourier branch
of step 6 has that fidelity, as its phases are 1 on the entries read.  The
warden's state comes from the codeword outputs and G = sum_k Lam^k, the
completed POVM's sum, on the B^n rows the outputs reach, and
``covertDivergence`` is D(tau_W || omega_0^(x)n) from ``divergences.qre_to_power``:
tau_W's spectrum and its n one-site marginals against the letter omega_0, the
support tested letter by letter, with no n-fold reference formed.  The public
per-step functions are thin wrappers over the same construction;
``protocol_state`` and ``decoupling_decoder`` form the full block because
they return it.

The pass holds one message's channel words chi_{m,l} = V^(x)n |x^n(m,l)>
at a time, an (L, dB^n, dW^n) stack (``_words``): decoding reads message
m's overlaps and output from its words and drops them, and the decoupler
forms them again for the branch psi_m, so no array of all T L words is
ever held.

The decoupler is one loop over the messages (``_decouple``): iteration m
forms the ideal branch psi_m, its target theta and the SVD factors u, vh
of K = theta^dag psi_m, applies Gamma^m = conj(u vh) to the decoded slice
X_m as conj(u (vh conj(X_m))) and drops u, vh, so no Gamma^m is ever
formed (``decoupling_decoder`` applies the same factors to every R slice,
as it returns the whole block).  K is formed from theta's dW^n columns
and padded with zero rows to dC, and the SVD sees all of it and returns
LAPACK's completion: Gamma^m is not unique off the support of K, and that
completion sets the reported fidelity (ROADMAP item 2 owns it).  An exactly
real K, as a real code on a real channel such as the excitation channel
gives, goes to real LAPACK (dgesdd for zgesdd, about half the time): in
exact arithmetic both run the same bidiagonalization and the same dbdsdc, so
the completion is the same up to roundoff, and on the demo and benchmark
codes the reports are bit for bit those of the complex route.  Where the
completion is itself set by roundoff, the two routes can return different
ones.  The products after the SVD run on the rows and columns of X_m that
hold a non-zero entry (on a sparse decoded state, a few dozen of each), as
do the Gram matrices of the decoupler's defect (``decouplerIsometryDefect``);
the zero rows and columns add nothing to any of these sums.  The POVM roots
meet the outputs in one place, ``_Decoded.slices``.  Exactly diagonal operands
(``operators._real_diagonal``) skip their dense products, bit for bit: if
every completed POVM element is diagonal, the roots are a (T L, dB^n) stack
of diagonals that scale rows, else dense roots act on all rows; a real
diagonal theta forms K's rows as theta_cc psi_m[c].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import budget
from . import covert_sim as cs
from . import divergences as dv
from . import operators as op
from .channels import KrausChannel, StinespringIsometry, _marginals, build_covert_channel, stinespring_from_kraus
from .errors import AssumptionViolationError, DimMismatchError, DuplicateWordError, InvalidParameterError, TrivialTestError
from .operators import DEFAULT_TOL


@dataclass(frozen=True)
class EGToyCode:
    """A toy quantum codebook: T messages, L distinct strings per message, |phi_m> superposing them.
    ``words`` is a (T, L, n) array of letters below 256, kept as uint8, and T, ``l_size`` and n are
    read off it; phases left out are zeros.  Every construction, ``replace`` too, checks all of this."""

    words: np.ndarray
    encode_phases: np.ndarray | None = None
    decode_phases: np.ndarray | None = None
    T = property(lambda self: self.words.shape[0])
    l_size = property(lambda self: self.words.shape[1])
    n = property(lambda self: self.words.shape[2])
    from_words = classmethod(lambda cls, *args, **kwargs: cls(*args, **kwargs))  # the constructor's older name

    def __post_init__(self):
        words = op._letters(self.words, 256).astype(np.uint8)  # a letter outside the uint8 range would wrap
        if words.ndim != 3:
            raise DimMismatchError(f"words of shape {words.shape}, not (T, l_size, n)")
        object.__setattr__(self, "words", words)
        for name in ("encode_phases", "decode_phases"):
            p = getattr(self, name)
            p = np.zeros(words.shape[:2]) if p is None else np.asarray(p, dtype=float)
            if p.shape != words.shape[:2]:
                raise DimMismatchError(f"{name} of shape {p.shape} for (T, l_size) = {words.shape[:2]}")
            object.__setattr__(self, name, p)
        for m, message in enumerate(words):
            if len({word.tobytes() for word in message}) < len(message):
                raise DuplicateWordError(f"repeated classical word within message {m}")


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
    k_size, n = np.shape(words)
    dim = dim_b**n
    # the K projectors and the abstain element, with one to spare
    budget.check(16 * (k_size + 2) * dim**2, f"exact_string_povm at n = {n}")
    index = op.word_index(words, dim_b)
    if len(np.unique(index)) != len(index):
        raise DuplicateWordError("exact string POVM needs distinct words")
    elements = np.zeros((k_size, dim, dim), dtype=complex)
    elements[np.arange(k_size), index, index] = 1.0
    abstain = np.eye(dim, dtype=complex)
    abstain[index, index] = 0.0  # I minus the projectors, as the words are distinct
    return list(elements), abstain


def decoding_povm(code: EGToyCode, V: StinespringIsometry):
    """Bob's decoding POVM for ``code`` on the channel V, ``(elements, abstain, route)``:
    the square-root measurement at a = alpha n D(sigma1||sigma0) / 2 (alpha the
    code's fraction of ones) on one :func:`covert_sim.pair_route` of that name, or,
    for a degenerate warden (e.g. a noiseless channel), :func:`exact_string_povm`
    with route ``"exact-string"``."""
    words = code.words.reshape(-1, code.n)
    try:
        quad = build_covert_channel(V)
    except (TrivialTestError, AssumptionViolationError):
        return (*exact_string_povm(words, V.out_dim_b), "exact-string")
    a = 0.5 * float(np.mean(code.words)) * code.n * dv.qre(quad.sigma1, quad.sigma0)
    route = cs.pair_route(quad.sigma0, quad.sigma1)
    return (*cs.povm_on_route(words, route, a), route.name)


def build_quantum_codewords(code: EGToyCode) -> list[np.ndarray]:
    """Codeword superpositions |phi_m> on the n-qubit input space."""
    states = []
    for m in range(code.T):
        vec = np.zeros(2**code.n, dtype=complex)
        vec[op.word_index(code.words[m])] = np.exp(1j * code.encode_phases[m])
        states.append(vec / math.sqrt(code.l_size))
    return states


def _completed_povm(povm, abstain):
    """Route the abstain remainder into outcome 0, keeping sum = I."""
    elements = [np.asarray(e, dtype=complex) for e in povm]
    if abstain is not None:
        elements[0] = elements[0] + np.asarray(abstain, dtype=complex)
    return elements, float(np.max(np.abs(sum(elements) - np.eye(elements[0].shape[0]))))


def _wbreve_dim(dBn: int, dWn: int, L: int) -> int:
    """Dimension of Wbreve: it must hold both B^n Lhat and the dW^n-column target."""
    return max(dBn * L, dWn)


def _words(code: EGToyCode, V: StinespringIsometry, m: int) -> np.ndarray:
    """chi_{m,l} = V^{(x)n}|x^n(m,l)> for every l of message m, an (L, dB^n, dW^n)
    stack with B^n the row index."""
    return op.word_products(code.words[m], V.V.T.reshape(V.in_dim, V.out_dim_b, V.out_dim_w))


@dataclass(frozen=True)
class _Decoded:
    """The protocol after encoding, channel and coherent decoding, in factored form.

    The full state has a zero block wherever R != M, and its R = M diagonal
    is sqrt(Lam^k) applied to ``outputs[m]`` for every outcome k = (m', l')
    in row-major order.  ``slices`` forms its Mhat = m part; ``eg_report``
    reads only the R = m slices and the warden state.  No channel word is
    kept: whoever needs message m's words forms them with ``_words``.
    """

    roots: np.ndarray  # sqrt(Lam^k), k = (m', l') row-major: (T*L, dB^n) diagonals or (T*L, dB^n, dB^n)
    overlaps: np.ndarray  # (T, L): <chi_{m,l}| sqrt(Lam^{(m,l)}) |chi_{m,l}>
    outputs: np.ndarray  # (T, dB^n, dW^n): channel output of |phi_m>, weighted by 1/sqrt(T)
    rows: np.ndarray  # the B^n rows where some output is non-zero
    gram: np.ndarray  # G = sum_k Lam^k on those rows and columns, not assumed to be I
    omegas: np.ndarray  # (2, dW, dW): the warden's single-letter outputs omega_0, omega_1

    @property
    def shape(self) -> tuple:
        """(T, L, dB^n, dW^n)."""
        return (*self.overlaps.shape, *self.outputs.shape[1:])

    def slices(self, m: int, every_r: bool = False) -> np.ndarray:
        """sqrt(Lam^{(m,l)}) outputs[r] for every l, one (dB^n L x dW^n) matrix with
        row b*L + l: for r = m, or stacked over every r."""
        T, L, dBn, dWn = self.shape
        roots = self.roots.reshape(T, L, dBn, -1)[m]  # a diagonal as a (dB^n, 1) column
        x = (self.outputs if every_r else self.outputs[m])[..., None, :, :]
        x = roots * x if self.roots.ndim == 2 else np.matmul(roots, x)
        return np.swapaxes(x, -3, -2).reshape(*x.shape[:-3], dBn * L, dWn)

    def warden_state(self) -> np.ndarray:
        """Trace out everything but W^n: sum_m outputs[m]^T conj(G) conj(outputs[m])."""
        dWn = self.outputs.shape[-1]
        outputs = self.outputs[:, self.rows]
        mixed = np.matmul(self.gram.conj(), outputs.conj())  # conj(G) conj(outputs[m])
        return outputs.reshape(-1, dWn).T @ mixed.reshape(-1, dWn)


def _decode(code: EGToyCode, V: StinespringIsometry, povm, abstain, what: str, held: int = 0) -> _Decoded:
    """Budget and POVM checks, then the decoded protocol from one square root
    per POVM element and, one message at a time, that message's L channel
    words (``_words``), dropped once its overlaps and output are read.  The
    completed elements must sum to I and be PSD within ``DEFAULT_TOL`` (the
    roots clip the roundoff, as ``sqrtm_psd``'s do).  The charge, as
    measured on ``eg_report``, covers the roots, the T message outputs, three
    arrays the size of one message's words (the words, the decoupler's branch
    psi_m and the decoded slice X_m), the decoupler's K (dC x dB^n L) and its
    SVD factors, counted as complex even where they are real (an upper bound),
    a dozen single-system n-fold matrices, and ``held`` bytes of the caller's
    full blocks."""
    T, L, n = code.words.shape
    dBn, dWn = V.out_dim_b**n, V.out_dim_w**n
    side = max(dBn, dWn)
    nbytes = 16 * (((T + 3) * L + T) * dBn * side + 4 * _wbreve_dim(dBn, dWn, L) * dBn * L + 12 * side**2)
    budget.check(nbytes + held, f"{what} at n = {n}, T = {T}, L = {L}")
    if len(povm) != T * L or any(np.shape(e) != (dBn, dBn) for e in (*povm, abstain) if e is not None):
        raise DimMismatchError(f"{len(povm)} POVM elements for {T * L} words, or not all {dBn} x {dBn}")
    elements, defect = _completed_povm(povm, abstain)
    if defect > DEFAULT_TOL.herm:
        raise DimMismatchError(f"POVM completion defect {defect:.3e}; supply the abstain remainder")
    # exactly diagonal elements keep their roots as diagonals, applied as row scalings
    diagonals = [op._real_diagonal(op.check_hermitian(e)) for e in elements]
    if all(d is not None for d in diagonals):
        low, sqrts = np.min(diagonals), np.sqrt(np.clip(diagonals, 0.0, None))
    else:  # sqrtm_psd's roots, each from the one spectrum that also gives the element's lowest eigenvalue
        low, sqrts = np.inf, np.empty((len(elements),) + elements[0].shape, dtype=complex)
        for k, e in enumerate(elements):
            sqrts[k], lowest = op._sqrtm_and_low(e)
            low = min(low, lowest)
    if low < -DEFAULT_TOL.psd:
        raise DimMismatchError(f"POVM element eigenvalue {low:.3e} below zero beyond tolerance")
    amp = np.exp(1j * code.encode_phases) / math.sqrt(T * L)
    overlaps = np.empty((T, L), dtype=complex)
    outputs = np.empty((T, dBn, dWn), dtype=complex)
    for m in range(T):  # one message's channel words alive at a time
        chis = _words(code, V, m)
        overlaps[m] = [np.vdot(chi, r[:, None] * chi if r.ndim == 1 else r @ chi) for r, chi in zip(sqrts[m * L :], chis)]
        outputs[m] = np.einsum("l,lbw->bw", amp[m], chis)
    rows = np.flatnonzero(np.any(outputs != 0, axis=(0, 2)))
    gram = sum(e[rows[:, None], rows] for e in elements)
    return _Decoded(sqrts, overlaps, outputs, rows, gram, _marginals(V.V, V.out_dim_b, V.out_dim_w, (0, 1))[1])


def protocol_state(code: EGToyCode, V: StinespringIsometry, povm, abstain=None) -> np.ndarray:
    """Global pure state after encoding, channel, and coherent decoding.

    ``povm`` lists the decoding POVM elements on B^n in (m, l) row-major
    order; any ``abstain`` remainder is routed into outcome (0, 0) so the
    coherent measurement is exactly isometric.

    Returns
    -------
    ndarray of shape (T, T, dB^n, dW^n, T, L)
        The normalized state tensor over (R, M, B^n, W^n, Mhat, Lhat).
    """
    block = 16 * code.T**2 * code.l_size * (V.out_dim_b * V.out_dim_w) ** code.n
    # the decoded slices (at most the R = M diagonal) and the returned state
    decoded = _decode(code, V, povm, abstain, "protocol_state", (code.T + 1) * block)
    T, L, dBn, dWn = decoded.shape
    out = np.zeros((T, T, dBn, dWn, T, L), dtype=complex)
    for m in range(T):  # one message's slices alive at a time
        out[np.arange(T), np.arange(T), ..., m, :] = np.swapaxes(decoded.slices(m, every_r=True).reshape(T, dBn, L, dWn), -2, -1)
    return out


def _phase_alignment(overlaps: np.ndarray):
    diagnostics = {
        "alignedOverlapSum": float(np.sum(np.abs(overlaps))),
        "zeroPhaseOverlapSum": float(np.sum(overlaps).real),
    }
    return np.zeros(overlaps.shape), np.angle(overlaps), diagnostics


def align_phases(code: EGToyCode, V: StinespringIsometry, povm, abstain=None):
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
    return _phase_alignment(_decode(code, V, povm, abstain, "align_phases").overlaps)


def _uhlmann_factors(psi_mat: np.ndarray, theta_mat: np.ndarray):
    """SVD factors (u, vh) of the cross-overlap K = theta^dag psi, padded with
    zero rows to dC = max(theta's columns, psi's columns); the Uhlmann
    isometry is conj(u @ vh).  A K with no non-zero imaginary entry goes to
    real LAPACK, which returns LAPACK's completion off K's support up to
    roundoff, and then u and vh are real."""
    # the optimum sum_{c,b} K[c,b] W[c,b] over isometries W is ||K||_1
    K = np.zeros((max(theta_mat.shape[1], psi_mat.shape[1]), psi_mat.shape[1]), dtype=complex)
    real = op._real_diagonal(theta_mat)
    if real is None or theta_mat.imag.any():
        K[: theta_mat.shape[1]] = theta_mat.conj().T @ psi_mat
    else:  # a real diagonal theta scales the rows of psi
        K[: len(real)] = real[:, None] * psi_mat
    u, _, vh = np.linalg.svd(K if K.imag.any() else K.real, full_matrices=False)
    return u, vh


def uhlmann_isometry(psi, dims_psi, theta, dims_theta) -> np.ndarray:
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
    u, vh = _uhlmann_factors(psi_mat, theta_mat)
    return np.conj(u @ vh).astype(complex)


def _decoupled(u: np.ndarray, vh: np.ndarray, x: np.ndarray):
    """Gamma = conj(u vh) applied to a stack x of (dB^n L x dW^n) slices as
    conj(u (vh conj(x))), on the rows and columns where some slice of x is
    non-zero.  Returns those columns, x on those rows and columns, and Gamma x
    on those columns; its other columns are zero."""
    nonzero = (x != 0).reshape(-1, *x.shape[-2:]).any(axis=0)
    rows, cols = np.flatnonzero(nonzero.any(axis=1)), np.flatnonzero(nonzero.any(axis=0))
    x = x[..., rows[:, None], cols]
    return cols, x, np.conj(u @ (vh[:, rows] @ x.conj()))


def _decouple(code: EGToyCode, V: StinespringIsometry, decoded: _Decoded, alpha, mode: str, every_r: bool = False):
    """The EPR fidelity and the decoupling diagnostics, in one loop over the messages.

    Iteration m forms the ideal branch psi_m on (W^n; B^n Lhat) with the decode
    phases, its target theta (omega_alpha^(x)n purified once before the loop,
    or psi_m's W^n marginal purified in self-target mode), the factors (u, vh)
    of Gamma^m = conj(u vh) from :func:`_uhlmann_factors` and the decoupled
    slice, and drops u, vh before the next message.  Only the r = m = Mhat
    slices meet the GHZ state.  Slice m is X_m = sqrt(Lam^{(m,l)}) outputs[m]
    with row b*L + l, a (dB^n L x dW^n) matrix (``_Decoded.slices``), and
    Gamma^m acts on it as Y_m = conj(u (vh conj(X_m))), on X_m's non-zero rows
    and columns only (:func:`_decoupled`).  With s = sum_m Y_m the EPR fidelity
    is ||s||^2 / T and the overlap with GHZ (x) theta_ref, message 0's theta, is
    |<theta_ref, s^T>| / sqrt(T).  ``decouplerIsometryDefect`` is the largest
    max|Y_m^dag Y_m - X_m^dag X_m| / max|X_m^dag X_m| (the unscaled deviation
    for a zero slice), both Gram matrices taken on X_m's non-zero columns,
    where the rest of them is zero: how far the decoupler fails to preserve
    the inner products of the input it is applied to, which bounds the error
    of the reported fidelity.  ``alpha``, which must lie in [0, 1], defaults to
    the code's fraction of ones.

    With ``every_r`` the same factored Gamma^m acts on the Mhat = m slices of
    every R at once, on the rows and columns where any of them is non-zero,
    and X_m, Y_m are the R = m ones of that stack; the third result is then
    the decoupled R = M block, axes (R, W^n, Mhat, Wbreve), else None.
    """
    if alpha is None:
        alpha = float(np.mean(code.words))
    if not 0.0 <= alpha <= 1.0:
        raise InvalidParameterError(f"alpha = {alpha} outside [0, 1]")
    T, L, dBn, dWn = decoded.shape
    dC = _wbreve_dim(dBn, dWn, L)
    out = np.zeros((T, dWn, T, dC), dtype=complex) if every_r else None
    s = np.zeros((dC, dWn), dtype=complex)
    defect = 0.0
    if mode == "paper-target":
        omega_alpha = (1.0 - alpha) * decoded.omegas[0] + alpha * decoded.omegas[1]
        theta = op.canonical_purification(op.tensor_power(omega_alpha, code.n)).reshape(dWn, dWn)
    elif mode != "self-target":
        raise ValueError(f"unknown decoupling mode {mode!r}")
    for m in range(T):
        phases = np.exp(1j * (code.encode_phases[m] + code.decode_phases[m]))
        psi = (phases * _words(code, V, m).T / math.sqrt(L)).reshape(dWn, dBn * L)  # (W^n, B^n, Lhat) axes
        psi /= np.linalg.norm(psi)
        if mode == "self-target":
            theta = op.canonical_purification(psi @ psi.conj().T).reshape(dWn, dWn)
        if m == 0:
            theta_ref = theta
        u, vh = _uhlmann_factors(psi, theta)
        cols, x, y = _decoupled(u, vh, decoded.slices(m, every_r))
        if every_r:
            out[:, cols, m, :] = np.swapaxes(y, -2, -1)
            x, y = x[m], y[m]
        s[:, cols] += y
        gram = x.conj().T @ x
        scale = float(np.max(np.abs(gram), initial=0.0))
        deviation = float(np.max(np.abs(y.conj().T @ y - gram), initial=0.0))
        defect = max(defect, deviation / scale if scale > 0.0 else deviation)
        del u, vh, x, y  # one message's factors at a time
    fidelity = float(np.vdot(s, s).real) / T
    overlap = min(abs(np.vdot(theta_ref.T, s[:dWn])) / math.sqrt(T), 1.0)
    trace_dist = 2.0 * math.sqrt(max(1.0 - overlap**2, 0.0))
    diagnostics = {"traceDistanceGHZ": trace_dist, "targetOverlap": float(overlap), "decouplerIsometryDefect": defect,
                   "mode": mode, "alpha": float(alpha)}
    return fidelity, diagnostics, out


def decoupling_decoder(code: EGToyCode, V: StinespringIsometry, povm, abstain=None, alpha: float | None = None, mode: str = "paper-target"):
    """Run the protocol through the controlled Uhlmann decoupler.

    Returns
    -------
    (state, diagnostics) : (ndarray, dict)
        ``state`` has axes (R, M, W^n, Mhat, Wbreve); diagnostics include the
        trace distance to GHZ (x) reference purification and isometry defects.
    """
    T, L, n = code.words.shape
    dBn, dWn = V.out_dim_b**n, V.out_dim_w**n
    # the decoded slices (at most the R = M diagonal), the decoupled block and the returned state
    held = 16 * T**2 * (L * dBn * dWn + (T + 1) * dWn * _wbreve_dim(dBn, dWn, L))
    decoded = _decode(code, V, povm, abstain, "decoupling_decoder", held)
    _, diagnostics, out = _decouple(code, V, decoded, alpha, mode, every_r=True)
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
    phases = np.exp(2j * np.pi * j * np.arange(T) / T)
    f_j = phases / math.sqrt(T)
    reduced = np.einsum("m,rmkspq,p->rksq", f_j.conj(), rho.reshape((T,) * 6), f_j).reshape(T * T, T * T)
    prob = np.trace(reduced).real
    if prob <= 0.0:
        raise DimMismatchError(f"measurement outcome {j} has zero probability")
    reduced /= prob
    corr = np.kron(np.eye(T), np.diag(phases))
    return corr @ reduced @ corr.conj().T


def eliminate_assistance(code: EGToyCode, V: StinespringIsometry, povm, abstain=None, alpha: float | None = None, mode: str = "paper-target"):
    """Evaluate every Fourier-branch encoder/decoder pair and keep the best.

    Branch j uses the standalone encoder sum_m e^{-2 pi i j m / T}|phi_m><m|
    followed by the same coherent decoder, decoupler, and the Z^j phase
    correction on Mhat.  Their factor e^{2 pi i j (k - r) / T} on entry (r, k)
    of the (R, Mhat) state is 1 on the k = r entries the EPR fidelity reads,
    so all T fidelities are one number, computed once.  Returns (0, fidelities).
    """
    fidelity, _, _ = _decouple(code, V, _decode(code, V, povm, abstain, "eliminate_assistance"), alpha, mode)
    return 0, [fidelity] * code.T


def willie_marginal(code: EGToyCode, V: StinespringIsometry, povm, abstain=None) -> np.ndarray:
    """Warden's exact reduced state of the full protocol state."""
    return _decode(code, V, povm, abstain, "willie_marginal").warden_state()


def eg_report(code: EGToyCode, V: StinespringIsometry, povm, abstain=None, alpha: float | None = None, mode: str = "paper-target") -> EGReport:
    """Full pipeline: phase alignment, decoupling, assistance elimination,
    and exact covertness accounting, all from one decoded state."""
    unphased = replace(code, encode_phases=None)
    decoded = _decode(unphased, V, povm, abstain, "eg_report")
    _, h, phase_diag = _phase_alignment(decoded.overlaps)
    aligned = replace(unphased, decode_phases=h)
    fidelity, dec_diag, _ = _decouple(aligned, V, decoded, alpha, mode)
    tau_w = decoded.warden_state()
    covert_div = dv.qre_to_power(tau_w, decoded.omegas[0], code.n)
    # distance to the incoherent classical-codebook average, as a diagnostic
    classical = op.mean_word_product(code.words.reshape(-1, code.n), decoded.omegas)
    diagnostics = {**phase_diag, **dec_diag}
    diagnostics["willieClassicalGap"] = op.trace_norm(tau_w - classical)
    # every Fourier branch has the same fidelity (see eliminate_assistance)
    diagnostics["branchFidelities"] = [fidelity] * code.T
    diagnostics["meanBranchFidelity"] = fidelity
    return EGReport(fidelity=fidelity, covertDivergence=float(covert_div), traceDistanceGHZ=dec_diag["traceDistanceGHZ"],
                    bestJ=0, perStepDiagnostics=diagnostics)
