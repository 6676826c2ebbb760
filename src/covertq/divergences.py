"""Information measures between quantum states.

Implements the Umegaki relative entropy (and, in ``qre_to_power``, its
value against an n-fold power from the spectrum and one-site marginals of the
state and the single letter), the chi-square divergence evaluated
from the spectral decomposition of the reference state, the hockey-stick
divergence, Petz-Renyi relative entropies, the cumulant-like functional phi
over classical-quantum ensembles, and the Helstrom error of binary
discrimination.  All logarithms are natural; values are in
nats.  Support violations yield ``math.inf`` rather than a sentinel number,
by the one rule of ``operators._outside``: rho leaves sigma's support when its
weights <v_j|rho|v_j> on sigma's eigenvectors with eigenvalues at or below
the support tolerance sum to more than it (in ``qre_to_power``, the weights
of each one-site marginal on the letter's).

Stack contract: ``qre``, ``chi_square``, ``hockey_stick``, ``petz_renyi``
and ``helstrom_error`` take a pair of density operators or two equal-shape
stacks of them, shape ``(..., d, d)``, checked by the one rule for a pair,
``operators._checked_pair`` (as a ``CqEnsemble``'s states are), and evaluate
every pair at once with batched eigendecompositions.  A 2-D pair gives a
``float``, stacks give an array of shape ``(...)``.  Every kernel that applies an eigenbasis (``qre``,
``chi_square``, and through ``operators._overlap`` ``petz_renyi`` and ``phi``)
gathers by one that ``operators.eigh`` read off a diagonal input, the matrix
product bit for bit.  ``phi`` takes a scalar or an array of orders ``s`` and
answers in kind.  ``qre_to_power`` takes one state or probability vector.
The remaining functions take single states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from . import operators as op
from .errors import DimMismatchError, InvalidGammaError, SingularReferenceError
from .operators import DEFAULT_TOL


def _log_where(mask, x):
    """log(x) where ``mask`` holds, 0 elsewhere, without evaluating log there."""
    return np.log(np.where(mask, x, 1.0))


def qre(rho, sigma):
    """Umegaki relative entropy tr[rho(log rho - log sigma)] in nats.

    Returns ``inf`` when the support of ``rho`` is not contained in the
    support of ``sigma`` by the rule of ``operators._outside``.

    Parameters
    ----------
    rho, sigma : array_like
        Density operators of equal dimension, or equal-shape stacks of them.

    Returns
    -------
    float or ndarray
        Nonnegative divergence value, possibly ``inf``; one per stack element.
    """
    r, s = op._checked_pair(rho, sigma)
    rvals, svals, overlap = op._overlap(op._eigh(r), op._eigh(s))
    # eigenvalues of rho at or below the support tolerance drop out of the value
    on_r = rvals > DEFAULT_TOL.support
    lam = np.where(on_r, rvals, 0.0)
    # weight[i, j] = lam_i |<u_i|v_j>|^2 between eigenvectors of rho and sigma
    weight = lam[..., :, None] * overlap
    # each rho eigenvalue's entropy term beside its cross terms
    terms = np.concatenate([
        (lam * _log_where(on_r, rvals))[..., :, None],
        -weight * _log_where(svals > DEFAULT_TOL.support, svals)[..., None, :],
    ], axis=-1)
    total = np.sum(terms, axis=(-2, -1))
    # the support test reads every eigenvalue: rho's weights <v_j|rho|v_j> on sigma's eigenvectors
    escapes = op._outside(np.einsum("...i,...ij->...j", rvals, overlap), svals)
    return op.scalar_or_stack(np.where(escapes, math.inf, np.maximum(total, 0.0)))


def chi_square(rho, sigma):
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
    r, s = op._checked_pair(rho, sigma)
    vals, vecs, order = op._eigh(s)
    # each ascending eigenvalue at the mean of its cluster, labelled by the package's one rule
    label = np.cumsum(op._cluster_starts(vals), axis=-1)
    same = label[..., :, None] == label[..., None, :]
    means = np.sum(np.where(same, vals[..., None, :], 0.0), axis=-1) / np.sum(same, axis=-1)
    failed = op.first_failure(np.min(means, axis=-1, initial=np.inf) <= DEFAULT_TOL.support)
    if failed:
        raise SingularReferenceError(f"{failed[1]}chi-square reference must be full rank")
    # tr[D Pi_i D Pi_j] is the sum of |<v_a|D|v_b>|^2 over the eigenvectors of both clusters
    weight = np.abs(op._basis_product(op._basis_product(r - s, vecs, order, -2), vecs, order, -1)) ** 2
    li, lj = means[..., :, None], means[..., None, :]
    close = np.abs(li - lj) < DEFAULT_TOL.cluster
    quotient = np.where(close, 1.0 / li, (np.log(li) - np.log(lj)) / np.where(close, 1.0, li - lj))
    total = np.sum(weight * quotient, axis=(-2, -1))
    return op.scalar_or_stack(np.maximum(total, 0.0))


def chi_square_commuting(p, q) -> float:
    """Classical chi-square divergence sum (p - q)^2 / q for vectors, each q above the support tolerance."""
    pa = np.asarray(p, dtype=float).ravel()
    qa = np.asarray(q, dtype=float).ravel()
    if pa.shape != qa.shape:
        raise DimMismatchError(f"lengths {pa.size} vs {qa.size}")
    if np.any(qa <= DEFAULT_TOL.support):
        raise SingularReferenceError("reference distribution must be strictly positive")
    return float(np.sum((pa - qa) ** 2 / qa))


def qre_to_power(rho, letter, n: int) -> float:
    """Relative entropy D(rho || letter^(x)n) in nats, read from the letter:

        sum_j lam_j log lam_j - sum_i tr(rho_i log letter),     0 log 0 = 0,

    with lam the spectrum of ``rho`` and rho_i its i-th one-site marginal.
    ``rho`` is a d**n x d**n density matrix and ``letter`` a d x d one, or
    ``rho`` is a d**n probability vector in the product eigenbasis of the
    letter, given as its d eigenvalues.  The support test is single-letter,
    as supp rho lies in supp letter^(x)n exactly when every supp rho_i lies in
    supp letter: ``inf`` when some rho_i leaves it by the rule of
    ``operators._outside``.  No n-fold eigenvalue meets a tolerance, so the
    value holds at any n.
    """
    r, d = np.asarray(rho), len(letter)
    if r.ndim not in (1, 2) or r.ndim != np.ndim(letter) or r.shape != (d**n,) * r.ndim:
        raise DimMismatchError(f"state of shape {r.shape} against a letter of shape {np.shape(letter)} at n = {n}")
    if r.ndim == 1:  # each marginal from the joint weights of the first n // 2 positions or of the rest: two passes over r
        lam, values, joint = r, np.asarray(letter, dtype=float), r.reshape(d ** (n // 2), -1)
        weights = np.array([w.reshape(d**i, d, -1).sum(axis=(0, 2))
                            for w, m in ((joint.sum(axis=1), n // 2), (joint.sum(axis=0), n - n // 2)) for i in range(m)])
    else:  # each marginal's weights on the letter's eigenvectors, from its eigenpairs as qre forms them
        r = op.check_hermitian(r)
        marginals = [np.einsum("aibajb->ij", r.reshape((d**i, d, d ** (n - 1 - i)) * 2)) for i in range(n)]
        basis = op._eigh(op.check_hermitian(letter))  # the letter's, once, broadcast to the n marginals
        letters = [None if x is None else np.broadcast_to(x, (n,) + x.shape) for x in basis]
        mvals, _, overlap = op._overlap(op._eigh(np.reshape(marginals, (n, d, d))), letters)
        lam, values, weights = op.eigvalsh(r), basis[0], np.einsum("...i,...ij->...j", mvals, overlap)
    weights, logs = weights.reshape(n, d), op._log_sums(values, 1)
    on = logs > -np.inf
    if op._outside(weights, values).any():
        return math.inf
    entropy = np.log(lam, out=np.zeros(lam.shape), where=lam > 0.0)
    entropy *= lam  # in place, summed pairwise
    return max(float(np.sum(entropy)) - float(np.sum(weights, axis=0)[on] @ logs[on]), 0.0)


def hockey_stick(rho, sigma, gamma: float):
    """Hockey-stick divergence: sum of positive eigenvalues of rho - gamma*sigma.

    Raises ``InvalidGammaError`` unless ``gamma`` is finite and at least 1.
    """
    if not (math.isfinite(gamma) and gamma >= 1.0):
        raise InvalidGammaError(f"gamma must be finite and >= 1, got {gamma}")
    r, s = op._checked_pair(rho, sigma)
    vals = op.eigvalsh(r - gamma * s)
    return op.scalar_or_stack(np.sum(np.where(vals > 0.0, vals, 0.0), axis=-1))


def _trace_powers(overlap, p, q):
    """tr[rho^p sigma^q] for exponent arrays ``p``, ``q`` from ``op._overlap(rho, sigma)``, each power
    on its state's support (a power 0 is its projector): sum_ij a_i^p |<u_i|v_j>|^2 b_j^q."""
    a, b, weight = overlap
    on_a, on_b = a > DEFAULT_TOL.support, b > DEFAULT_TOL.support
    a_pow = np.where(on_a, a, 1.0) ** np.asarray(p)[..., None] * on_a
    b_pow = np.where(on_b, b, 1.0) ** np.asarray(q)[..., None] * on_b
    return np.einsum("...i,...ij,...j->...", a_pow, weight, b_pow)


def petz_renyi(rho, sigma, s: float):
    """Petz-Renyi relative entropy (1/(s-1)) log tr[rho^s sigma^{1-s}] of an order s >= 0, s != 1.

    Powers are taken spectrally on the respective supports, so order 0 gives
    -log tr[Pi_rho sigma], its s -> 0+ limit.  For s > 1 a support violation
    of rho against sigma, by the rule of ``operators._outside``, yields ``inf``.
    """
    if not (math.isfinite(s) and s >= 0.0):
        raise ValueError(f"order s must be finite and >= 0, got {s}")
    if s == 1.0:
        raise ValueError("order s = 1 is the qre limit; call qre instead")
    a, b, weight = overlap = op._overlap(*map(op._eigh, op._checked_pair(rho, sigma)))
    trace = _trace_powers(overlap, s, 1.0 - s)
    infinite = trace <= 0.0
    if s > 1.0:  # rho's weights on sigma's eigenvectors, formed as qre and support_contained form them
        infinite |= op._outside(np.einsum("...i,...ij->...j", a, weight), b)
    value = _log_where(~infinite, trace) / (s - 1.0)
    return op.scalar_or_stack(np.where(infinite, math.inf, value))


@dataclass(frozen=True)
class CqEnsemble:
    """A finite classical-quantum ensemble: probabilities and matching states, each kept
    as checked against the first by the one rule for a pair, ``operators._checked_pair``."""

    probs: np.ndarray
    states: tuple[np.ndarray, ...]

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float).ravel()
        if np.any(p < 0.0) or abs(p.sum() - 1.0) > DEFAULT_TOL.trace:
            raise ValueError("probabilities must be nonnegative and sum to 1")
        if len(self.states) != p.size:
            raise DimMismatchError("one state per probability required")
        object.__setattr__(self, "probs", p)
        object.__setattr__(self, "states", tuple(op._checked_pair(w, self.states[0])[0] for w in self.states))

    def average_state(self) -> np.ndarray:
        return sum(p * w for p, w in zip(self.probs, self.states))


def phi(s, ensemble: CqEnsemble):
    """Cumulant functional log sum_x p(x) tr[w_x^{1-s} w_p^s] for s <= 0.

    ``s`` is a scalar, giving a ``float``, or an array, giving an array of
    its shape; each pair (w_x, w_p) is eigendecomposed once for all values of
    ``s``, and the trace is sum_ij a_i^{1-s} b_j^s |<u_i|v_j>|^2 over the
    supports of w_x = sum a_i |u_i><u_i| and w_p = sum b_j |v_j><v_j|.  The
    average state w_p is formed internally; phi(0, .) = 0 exactly.
    """
    s_arr = np.asarray(s, dtype=float)
    if not np.all(np.isfinite(s_arr) & (s_arr <= 0.0)):
        raise ValueError(f"phi is defined for finite s <= 0, got s = {s}")
    w_p = op._eigh(ensemble.average_state())
    total = np.zeros(s_arr.shape)
    for p, w in zip(ensemble.probs, ensemble.states):
        if p == 0.0:
            continue
        total = total + p * _trace_powers(op._overlap(op._eigh(w), w_p), 1.0 - s_arr, s_arr)
    return op.scalar_or_stack(np.where(s_arr == 0.0, 0.0, np.log(total)))


def helstrom_error(rho, sigma):
    """Minimal binary-discrimination error (1/2)(1 - ||rho - sigma||_1 / 2)."""
    r, s = op._checked_pair(rho, sigma)
    return 0.5 * (1.0 - 0.5 * op.trace_norm(r - s))


def distinct_eigenvalue_count(omega, n: int) -> int:
    """Number of distinct eigenvalues of the n-fold tensor power of ``omega``,
    counted as the classes of :func:`operators._pinching_blocks`.

    The logs of products of n single-copy eigenvalues are enumerated over
    multisets and clustered by the clustering tolerance, so the count does not
    depend on the products' scale; the products with an eigenvalue at or below
    the support tolerance form one more class.  The count never exceeds
    (n + 1)^dim.
    """
    letters = op.eigvalsh(op.check_hermitian(omega))
    logs = op._log_sums(letters, 1)
    sums = np.array([sum(combo, 0.0) for combo in combinations_with_replacement(logs, n)])
    support = sums[sums > -np.inf]
    return len(op.eigenvalue_clusters(support)) + int(support.size < sums.size)
