"""Channels, random states, codes and dense oracles shared by the unit-test modules.

Every helper that more than one unit-test module defines or needs lives here
once, and the test files import it (``test_support.py`` fails if a unit-test
module defines a top-level function of the same name again):

- :func:`traced`, the tracemalloc peak of a block;
- random inputs: :func:`random_density`, :func:`random_unitary`,
  :func:`rotated` and :func:`distinct_words`, the words of an EG code;
- channels: :func:`excitation_isometry` and :func:`excitation_quadruple`, and
  :func:`rotated_damping_isometry` and :func:`rotated_damping_quadruple`,
  whose output pairs do not commute; :func:`rank_two_qutrit_pair`;
  :func:`past_the_check`, a quadruple altered past its constructor's check;
- pairs at the edge of the support rule: the hypothesis strategy
  :func:`near_edge_pairs`;
- dense oracles: the kron chains :func:`kron_chain` and
  :func:`kron_chain_mean`, the SVD trace norm :func:`dense_trace_norm`, the
  eigen-log relative entropy to an n-fold power :func:`eigen_log_qre`, and
  the dense square-root measurement.

The dense square-root oracle (:func:`dense_square_root_povm`) builds every
n-fold operator with ``np.kron`` in the computational basis and pinches by
the exact eigenprojectors of sigma0^(x)n; of the package it calls only the
eigensolver ``operators.eigh``.  :func:`dense_decoder_errors` retraces its
elements against :func:`kron_chain`.

The acceptance suite (``test_acceptance.py``) imports none of these: it keeps
its own oracles, so that a fault in a shared helper cannot hide the same
fault in the package from both suites at once.
"""

import math
import tracemalloc
from contextlib import contextmanager
from functools import reduce
from types import SimpleNamespace

import numpy as np
from hypothesis import strategies as st

from covertq import channels as chn
from covertq import operators as op


@contextmanager
def traced():
    """Trace the allocations of the block: the namespace it yields gets their tracemalloc ``peak``
    in bytes when the block ends without an exception."""
    trace = SimpleNamespace(peak=None)
    tracemalloc.start()
    try:
        yield trace
        trace.peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def random_density(rng, d, full_rank=True):
    """A random d x d density matrix; ``full_rank`` mixes in 0.1 of the identity."""
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    if full_rank:
        rho = 0.9 * rho + 0.1 * np.eye(d) / d
    return rho


def random_unitary(rng, d):
    """A Haar-random d x d unitary: the QR factor with the phases of R's diagonal."""
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def rotated(unitary, spectrum):
    """U diag(spectrum) U^dag."""
    return (unitary * spectrum) @ unitary.conj().T


def distinct_words(rng, T, L, n):
    """T*L distinct words of n letters drawn by ``rng``, as a (T, L, n) uint8 array."""
    index = rng.choice(2**n, T * L, replace=False)
    return ((index[:, None] >> np.arange(n - 1, -1, -1)) & 1).astype(np.uint8).reshape(T, L, n)


def excitation_isometry(gamma):
    """The Stinespring isometry of the excitation channel, stacked when ``gamma`` is an array."""
    return chn.stinespring_from_kraus(chn.excitation_channel(gamma))


def excitation_quadruple(gamma=0.25):
    return chn.build_covert_channel(excitation_isometry(gamma))


def rotated_damping_isometry(gamma=0.3, theta=0.7, phi=0.4):
    """Amplitude damping after a fixed input rotation: neither output pair commutes."""
    a0 = np.array([[1, 0], [0, math.sqrt(1 - gamma)]], dtype=complex)
    a1 = np.array([[0, math.sqrt(gamma)], [0, 0]], dtype=complex)
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    u = np.array([[c, -s * np.exp(-1j * phi)], [s * np.exp(1j * phi), c]], dtype=complex)
    return chn.stinespring_from_kraus(chn.KrausChannel((a0 @ u, a1 @ u)))


def rotated_damping_quadruple(gamma=0.3, theta=0.7, phi=0.4):
    return chn.build_covert_channel(rotated_damping_isometry(gamma, theta, phi))


def past_the_check(quad, **fields):
    """A copy of ``quad`` with ``fields`` set past the constructor's covert-setting check, so that a
    stage's own guard against a quadruple outside the setting can be reached."""
    out = chn.BinaryCovertChannel(quad.sigma0, quad.sigma1, quad.omega0, quad.omega1)
    for name, value in fields.items():
        object.__setattr__(out, name, value)
    return out


def kron_chain(word, table):
    """table[w_1] (x) ... (x) table[w_n], one ``np.kron`` at a time from the left; ones of length 1
    (a vector table) or the 1 x 1 identity (a matrix table) for the empty word."""
    table = np.asarray(table)
    letters = [table[b] for b in word]
    return reduce(np.kron, letters) if letters else np.ones((1,) * (table.ndim - 1))


def kron_chain_mean(words, table):
    """The mean of the words' :func:`kron_chain`."""
    return np.mean([kron_chain(word, table) for word in words], axis=0)


def eigen_log_qre(rho, letter, n):
    """D(rho || letter^(x)n) = sum lam log lam - sum_j <v_j|rho|v_j> log mu_j from numpy ``eigh``, the logs taken
    with no tolerance: lam is rho's spectrum (0 log 0 = 0 there), and mu_j, v_j are the reference's eigenpairs, the
    kron chains of the letter's.  The letter's eigenvalues at or below 1e-10 are its kernel (``eigh`` returns an
    exact zero as about 1e-17): rho's total weight above 1e-10 on the strings that hold one gives inf.  A
    probability vector ``rho`` is read in the letter's product eigenbasis, the ``letter`` then given as its
    eigenvalues.  The reference's eigenpairs are not taken from a dense ``eigh`` of letter^(x)n: on rotated
    damping its smallest eigenvalues, 5e-21 at n = 8, come out negative."""
    rho, letter = np.asarray(rho), np.asarray(letter)
    if rho.ndim == 1:
        lam, mu, weights = rho, letter, rho
    else:
        lam, (mu, v) = np.linalg.eigvalsh(rho), np.linalg.eigh(letter)
        vn = kron_chain([0] * n, [v])
        weights = np.sum(vn.conj() * (rho @ vn), axis=0).real
    mu = kron_chain([0] * n, [np.where(mu > 1e-10, mu, 0.0)])
    if np.sum(weights[mu == 0.0]) > 1e-10:
        return math.inf
    on, weighted = lam > 0.0, (weights > 0.0) & (mu > 0.0)
    return float(np.sum(lam[on] * np.log(lam[on])) - np.sum(weights[weighted] * np.log(mu[weighted])))


def dense_trace_norm(a):
    """||a||_1 as the sum of a's singular values."""
    return float(np.sum(np.linalg.svd(a, compute_uv=False)))


def threshold_projector(pinched, ref, sigma0, n, a):
    """Pi_c of the scale-free rule: the eigenvectors v of pinched - e^a ref with eigenvalue at least
    -cluster e^a <v|ref|v>, and those at most half inside supp(sigma0)^(x)n, as Rayleigh quotients."""
    vals, vecs = op.eigh(pinched - math.exp(a) * ref)
    vals0, vecs0 = np.linalg.eigh(sigma0)
    support = vecs0[:, vals0 > op.DEFAULT_TOL.support]
    support_n = kron_chain([0] * n, [support @ support.conj().T])
    weight, inside = (np.einsum("ij,ik,kj->j", vecs.conj(), m, vecs).real for m in (ref, support_n))
    cols = vecs[:, (vals >= -op.DEFAULT_TOL.cluster * math.exp(a) * weight) | (inside <= 0.5)]
    return cols @ cols.conj().T


def exact_classes(sigma0, n):
    """The eigenvalue class of each of the d**n strings of sigma0's single-letter eigenbasis, whose
    n-fold product Un is returned too: strings whose products of eigenvalues agree to 1e-9 relative
    share a label, and so do all strings with an eigenvalue at or below 1e-10."""
    vals, vecs = np.linalg.eigh(sigma0)
    products = kron_chain([0] * n, [np.where(vals > 1e-10, vals, 0.0)])
    order = np.argsort(products)
    labels = np.empty(len(products), dtype=int)
    labels[order] = np.cumsum(np.diff(products[order], prepend=-1.0) > 1e-9 * products[order])
    return labels, kron_chain([0] * n, [vecs])


def exact_eigenprojectors(sigma0, n):
    """The eigenprojectors of sigma0^(x)n, one per class of :func:`exact_classes`."""
    labels, basis = exact_classes(sigma0, n)
    return [basis[:, labels == c] @ basis[:, labels == c].conj().T for c in np.unique(labels)]


def dense_square_root_povm(words, sigma0, sigma1, a):
    """The square-root measurement on dense n-fold operators: pinched-threshold projectors Pi_c,
    sigma_c pinched by the exact eigenprojectors of sigma0^(x)n, S = sum Pi_c and
    Upsilon_c = S^{-1/2} Pi_c S^{-1/2}."""
    n = len(words[0])
    ref = kron_chain([0] * n, [sigma0])
    blocks = exact_eigenprojectors(sigma0, n)
    pinched = (sum(p @ kron_chain(w, (sigma0, sigma1)) @ p for p in blocks) for w in words)
    projectors = [threshold_projector(m, ref, sigma0, n, a) for m in pinched]
    vals, vecs = np.linalg.eigh(sum(projectors))
    inv_sqrt = np.where(vals > 1e-10, 1.0 / np.sqrt(np.where(vals > 1e-10, vals, 1.0)), 0.0)
    s_inv_half = (vecs * inv_sqrt) @ vecs.conj().T
    elements = [s_inv_half @ p @ s_inv_half for p in projectors]
    return elements, np.eye(ref.shape[0]) - sum(elements)


def dense_decoder_errors(elements, words, table):
    """1 - tr(E_c sigma_c) of each element and its word, sigma_c the :func:`kron_chain` of the word
    on ``table = (sigma0, sigma1)``, clipped to [0, 1] as the decoder clips them."""
    p_ok = [np.trace(e @ kron_chain(w, table)).real for e, w in zip(elements, words)]
    return np.clip(1.0 - np.asarray(p_ok), 0.0, 1.0)


def rank_two_qutrit_pair():
    """sigma0 of rank 2 on three levels and sigma1 inside its support, the two not commuting."""
    unitary = random_unitary(np.random.default_rng(11), 3)
    block = np.zeros((3, 3), dtype=complex)
    block[:2, :2] = [[0.5, 0.2 + 0.1j], [0.2 - 0.1j, 0.5]]
    return tuple(unitary @ m @ unitary.conj().T for m in (np.diag([0.6, 0.4, 0.0]).astype(complex), block))


@st.composite
def near_edge_pairs(draw):
    """(rho, sigma) of side d <= 4 with sigma of rank below d and rho's weight off supp sigma drawn log-uniformly
    from [1e-11, 1e-9], around the support tolerance 1e-10, and spread over one to three of rho's eigenvectors.

    rho's eigenvectors start orthonormal in supp sigma; each of the first ``spread`` gets a kernel component
    that carries its share of the weight, and QR makes them orthonormal again (which moves each weight by a
    relative 1e-10 or so).  Every eigenvalue of rho and every nonzero one of sigma is at least 1/(2d)."""
    d = draw(st.integers(2, 4))
    rank = draw(st.integers(1, d - 1))
    spread = draw(st.integers(1, min(3, rank)))
    size = draw(st.integers(spread, rank))  # rho's rank
    outside = 10.0 ** draw(st.floats(-11.0, -9.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v = random_unitary(rng, d)
    sigma = rotated(v, np.r_[0.5 / rank + 0.5 * rng.dirichlet(np.ones(rank)), np.zeros(d - rank)])
    lam = 0.5 / size + 0.5 * rng.dirichlet(np.ones(size))
    share = rng.dirichlet(np.ones(spread)) * outside / lam[:spread]  # off-support share of each tilted vector's norm
    kernel = v[:, rank:] @ (rng.normal(size=(d - rank, spread)) + 1j * rng.normal(size=(d - rank, spread)))
    vecs = v[:, :rank] @ random_unitary(rng, rank)[:, :size]
    vecs[:, :spread] += kernel / np.linalg.norm(kernel, axis=0) * np.sqrt(share / (1.0 - share))
    return rotated(np.linalg.qr(vecs)[0], lam), sigma
