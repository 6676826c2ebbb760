"""Information measures between quantum states.

Implements the Umegaki relative entropy, the chi-square divergence evaluated
from the spectral decomposition of the reference state, the hockey-stick
divergence, Petz-Renyi relative entropies, the cumulant-like functional phi
over classical-quantum ensembles, and binary-discrimination quantities
(Helstrom error, Pinsker bound).  All logarithms are natural; values are in
nats.  Support violations yield ``math.inf`` rather than a sentinel number.

Stack contract: ``qre``, ``chi_square``, ``hockey_stick``, ``petz_renyi``
and ``helstrom_error`` take a pair of density operators or two equal-shape
stacks of them, shape ``(..., d, d)``, and evaluate every pair at once with
batched eigendecompositions.  A 2-D pair gives a ``float``, stacks give an
array of shape ``(...)``.  The remaining functions take single states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from . import operators as op
from .errors import DimMismatchError, InvalidGammaError, SingularReferenceError
from .operators import DEFAULT_TOL, Tolerances


def _require_same_dim(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape[-1] != b.shape[-1]:
        raise DimMismatchError(f"dims {a.shape[-1]} vs {b.shape[-1]}")
    if a.shape != b.shape:
        raise DimMismatchError(f"stack shapes {a.shape[:-2]} vs {b.shape[:-2]}")


def _log_where(mask, x):
    """log(x) where ``mask`` holds, 0 elsewhere, without evaluating log there."""
    return np.log(np.where(mask, x, 1.0))


def qre(rho, sigma, tol: Tolerances = DEFAULT_TOL):
    """Umegaki relative entropy tr[rho(log rho - log sigma)] in nats.

    Returns ``inf`` when the support of ``rho`` is not contained in the
    support of ``sigma``.

    Parameters
    ----------
    rho, sigma : array_like
        Density operators of equal dimension, or equal-shape stacks of them.

    Returns
    -------
    float or ndarray
        Nonnegative divergence value, possibly ``inf``; one per stack element.
    """
    r = op.check_hermitian(rho, tol)
    s = op.check_hermitian(sigma, tol)
    _require_same_dim(r, s)
    rvals, rvecs = np.linalg.eigh(r)
    svals, svecs = np.linalg.eigh(s)
    # eigenvalues of rho at or below the support tolerance drop out
    on_r = rvals > tol.support
    on_s = svals > tol.support
    lam = np.where(on_r, rvals, 0.0)
    # weight[i, j] = lam_i |<u_i|v_j>|^2 between eigenvectors of rho and sigma
    weight = lam[..., :, None] * np.abs(op.dagger(rvecs) @ svecs) ** 2
    escapes = np.any((weight > tol.support) & ~on_s[..., None, :], axis=(-2, -1))
    # summed left to right, each rho eigenvalue's entropy term then its cross
    # terms, so a 2-D input gives the bits of the plain per-eigenvalue sum
    terms = np.concatenate([
        (lam * _log_where(on_r, rvals))[..., :, None],
        -weight * _log_where(on_s, svals)[..., None, :],
    ], axis=-1)
    total = np.cumsum(terms.reshape(terms.shape[:-2] + (-1,)), axis=-1)[..., -1]
    return op.scalar_or_stack(np.where(escapes, math.inf, np.maximum(total, 0.0)))


def chi_square(rho, sigma, tol: Tolerances = DEFAULT_TOL):
    """Chi-square divergence from the spectral decomposition of ``sigma``.

    With sigma = sum_i lambda_i Pi_i the value is

        sum_{i != j} [(log l_i - log l_j)/(l_i - l_j)] tr[D Pi_i D Pi_j]
        + sum_i (1/l_i) tr[D Pi_i D Pi_i],        D = rho - sigma,

    where eigenvalue clusters closer than the clustering tolerance use the
    limiting quotient 1/l_i.  Equals the second derivative at alpha = 0 of
    alpha -> qre(alpha rho + (1 - alpha) sigma, sigma).  Takes single states
    or equal-shape stacks; returns one value per stack element.

    Raises
    ------
    SingularReferenceError
        If ``sigma`` (the lowest such stack element) is not full rank within
        the support tolerance.
    """
    r = op.check_hermitian(rho, tol)
    s = op.check_hermitian(sigma, tol)
    _require_same_dim(r, s)
    vals, vecs = np.linalg.eigh(s)
    # clusters as in operators.spectral_decompose: a chain of ascending
    # eigenvalues with gaps below the tolerance, each at its cluster's mean
    label = np.cumsum(np.diff(vals, axis=-1, prepend=-np.inf) >= tol.cluster, axis=-1)
    same = label[..., :, None] == label[..., None, :]
    means = np.sum(np.where(same, vals[..., None, :], 0.0), axis=-1) / np.sum(same, axis=-1)
    failed = op.first_failure(np.min(means, axis=-1, initial=np.inf) <= tol.support)
    if failed:
        raise SingularReferenceError(f"{failed[1]}chi-square reference must be full rank")
    # tr[D Pi_i D Pi_j] is the sum of |<v_a|D|v_b>|^2 over the eigenvectors of both clusters
    weight = np.abs(op.dagger(vecs) @ (r - s) @ vecs) ** 2
    li, lj = means[..., :, None], means[..., None, :]
    close = np.abs(li - lj) < tol.cluster
    quotient = np.where(close, 1.0 / li, (np.log(li) - np.log(lj)) / np.where(close, 1.0, li - lj))
    total = np.sum(weight * quotient, axis=(-2, -1))
    return op.scalar_or_stack(np.maximum(total, 0.0))


def chi_square_commuting(p, q) -> float:
    """Classical chi-square divergence sum (p - q)^2 / q for vectors."""
    pa = np.asarray(p, dtype=float).ravel()
    qa = np.asarray(q, dtype=float).ravel()
    if pa.shape != qa.shape:
        raise DimMismatchError(f"lengths {pa.size} vs {qa.size}")
    if np.any(qa <= 0.0):
        raise SingularReferenceError("reference distribution must be strictly positive")
    return float(np.sum((pa - qa) ** 2 / qa))


def qre_commuting(p, q, tol: Tolerances = DEFAULT_TOL) -> float:
    """Classical relative entropy sum p log(p / q) of eigenvalue vectors
    paired in a shared eigenbasis.

    Applies the rules of :func:`qre`: entries of ``p`` at or below the support
    tolerance are dropped, and ``inf`` is returned when a remaining entry
    meets an entry of ``q`` at or below it.
    """
    pa = np.clip(np.asarray(p, dtype=float).ravel(), 0.0, None)
    qa = np.asarray(q, dtype=float).ravel()
    if pa.shape != qa.shape:
        raise DimMismatchError(f"lengths {pa.size} vs {qa.size}")
    keep = pa > tol.support
    if np.any(qa[keep] <= tol.support):
        return math.inf
    total = float(np.sum(pa[keep] * (np.log(pa[keep]) - np.log(qa[keep]))))
    return max(total, 0.0)


def hockey_stick(rho, sigma, gamma: float, tol: Tolerances = DEFAULT_TOL):
    """Hockey-stick divergence: sum of positive eigenvalues of rho - gamma*sigma."""
    if gamma < 1.0:
        raise InvalidGammaError(f"gamma must be >= 1, got {gamma}")
    r = op.check_hermitian(rho, tol)
    s = op.check_hermitian(sigma, tol)
    _require_same_dim(r, s)
    vals = np.linalg.eigvalsh(r - gamma * s)
    return op.scalar_or_stack(np.sum(np.where(vals > 0.0, vals, 0.0), axis=-1))


def petz_renyi(rho, sigma, s: float, tol: Tolerances = DEFAULT_TOL):
    """Petz-Renyi relative entropy (1/(s-1)) log tr[rho^s sigma^{1-s}].

    Powers are taken spectrally on the respective supports.  For s > 1 a
    support violation of rho against sigma yields ``inf``.
    """
    if s == 1.0:
        raise ValueError("order s = 1 is the qre limit; call qre instead")
    r = op.check_hermitian(rho, tol)
    sig = op.check_hermitian(sigma, tol)
    _require_same_dim(r, sig)
    rvals, rvecs = np.linalg.eigh(r)
    svals, svecs = np.linalg.eigh(sig)
    rvals = np.clip(rvals, 0.0, None)
    svals = np.clip(svals, 0.0, None)
    overlap = np.abs(op.dagger(rvecs) @ svecs) ** 2
    rp = np.where(rvals > tol.support, rvals, 0.0) ** s if s != 0 else np.ones_like(rvals)
    with np.errstate(divide="ignore"):
        sp = np.where(svals > tol.support, svals, np.nan) ** (1.0 - s)
    sp = np.nan_to_num(sp, nan=0.0, posinf=0.0)
    trace = np.einsum("...i,...ij,...j->...", rp, overlap, sp)
    infinite = trace <= 0.0
    if s > 1.0:
        infinite = infinite | np.logical_not(op.support_contained(r, sig, tol))
    value = _log_where(~infinite, trace) / (s - 1.0)
    return op.scalar_or_stack(np.where(infinite, math.inf, value))


@dataclass(frozen=True)
class CqEnsemble:
    """A finite classical-quantum ensemble: probabilities and matching states."""

    probs: np.ndarray
    states: tuple[np.ndarray, ...]

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float).ravel()
        if np.any(p < 0.0) or abs(p.sum() - 1.0) > DEFAULT_TOL.trace:
            raise ValueError("probabilities must be nonnegative and sum to 1")
        if len(self.states) != p.size:
            raise DimMismatchError("one state per probability required")
        object.__setattr__(self, "probs", p)

    def average_state(self) -> np.ndarray:
        out = np.zeros_like(np.asarray(self.states[0], dtype=complex))
        for p, w in zip(self.probs, self.states):
            out = out + p * np.asarray(w, dtype=complex)
        return out


def _power_on_support(h, exponent: float, tol: Tolerances) -> np.ndarray:
    vals, vecs = np.linalg.eigh(op.check_hermitian(h, tol))
    out = np.where(vals > tol.support, vals, 1.0) ** exponent
    out = np.where(vals > tol.support, out, 0.0)
    return (vecs * out) @ vecs.conj().T


def phi(s: float, ensemble: CqEnsemble, tol: Tolerances = DEFAULT_TOL) -> float:
    """Cumulant functional log sum_x p(x) tr[w_x^{1-s} w_p^s] for s <= 0.

    The average state w_p is formed internally; phi(0, .) = 0 exactly.
    """
    if s > 0.0:
        raise ValueError(f"phi is defined for s <= 0, got s = {s}")
    if s == 0.0:
        return 0.0
    wp_s = _power_on_support(ensemble.average_state(), s, tol)
    total = 0.0
    for p, w in zip(ensemble.probs, ensemble.states):
        if p == 0.0:
            continue
        w_pow = _power_on_support(w, 1.0 - s, tol)
        total += p * np.trace(w_pow @ wp_s).real
    return math.log(total)


def helstrom_error(rho, sigma, tol: Tolerances = DEFAULT_TOL):
    """Minimal binary-discrimination error (1/2)(1 - ||rho - sigma||_1 / 2)."""
    r = op.check_hermitian(rho, tol)
    s = op.check_hermitian(sigma, tol)
    _require_same_dim(r, s)
    return 0.5 * (1.0 - 0.5 * op.trace_norm(r - s))


def pinsker_check(rho, sigma, tol: Tolerances = DEFAULT_TOL):
    """Evaluate both sides of the quantum Pinsker inequality.

    Returns
    -------
    (lhs, rhs, holds) : tuple
        lhs = ||rho - sigma||_1 / 2, rhs = sqrt(qre(rho, sigma)/2), and
        ``holds`` is True when lhs <= rhs + 1e-12.
    """
    lhs = 0.5 * op.trace_norm(np.asarray(rho, dtype=complex) - np.asarray(sigma, dtype=complex))
    d = qre(rho, sigma, tol)
    rhs = math.sqrt(0.5 * d) if math.isfinite(d) else math.inf
    return lhs, rhs, lhs <= rhs + 1e-12


def distinct_eigenvalue_count(omega, n: int, tol: Tolerances = DEFAULT_TOL) -> int:
    """Number of distinct eigenvalues of the n-fold tensor power of ``omega``.

    Products of n single-copy eigenvalues are enumerated over multisets and
    clustered by the clustering tolerance.  The count never exceeds
    (n + 1)^dim.
    """
    sd = op.spectral_decompose(omega, tol)
    products = sorted(
        math.prod(combo)
        for combo in combinations_with_replacement(sd.eigenvalues, n)
    )
    count = 0
    prev = None
    for v in products:
        if prev is None or abs(v - prev) >= tol.cluster:
            count += 1
        prev = v
    return count
