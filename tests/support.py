"""Channels, random states and dense oracles shared by the unit-test modules.

Each helper had identical copies in several test files, or is an oracle that
several files check against; they live here once and the test files import
them.  The acceptance suite keeps its own copies, so that it stays
independent of the unit tests.

The dense square-root oracle (:func:`dense_square_root_povm`) builds every
n-fold operator with ``np.kron`` in the computational basis and pinches by
the exact eigenprojectors of sigma0^(x)n; of the package it calls only the
eigensolver ``operators.eigh``.  :func:`dense_decoder_errors` retraces its
elements against the kron chain ``operators.word_products``.
"""

import math

import numpy as np

from covertq import channels as chn
from covertq import operators as op


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


def excitation_quadruple(gamma=0.25):
    return chn.build_covert_channel(chn.stinespring_from_kraus(chn.excitation_channel(gamma)))


def rotated_damping_isometry(gamma=0.3, theta=0.7, phi=0.4):
    """Amplitude damping after a fixed input rotation: neither output pair commutes."""
    a0 = np.array([[1, 0], [0, math.sqrt(1 - gamma)]], dtype=complex)
    a1 = np.array([[0, math.sqrt(gamma)], [0, 0]], dtype=complex)
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    u = np.array([[c, -s * np.exp(-1j * phi)], [s * np.exp(1j * phi), c]], dtype=complex)
    return chn.stinespring_from_kraus(chn.KrausChannel((a0 @ u, a1 @ u)))


def dense_word_state(word, state0, state1):
    out = np.eye(1)
    for b in word:
        out = np.kron(out, (state0, state1)[int(b)])
    return out


def threshold_projector(pinched, ref, sigma0, n, a):
    """Pi_c of the scale-free rule: the eigenvectors v of pinched - e^a ref with eigenvalue at least
    -cluster e^a <v|ref|v>, and those at most half inside supp(sigma0)^(x)n, as Rayleigh quotients."""
    vals, vecs = op.eigh(pinched - math.exp(a) * ref)
    vals0, vecs0 = np.linalg.eigh(sigma0)
    support = vecs0[:, vals0 > op.DEFAULT_TOL.support]
    support_n = dense_word_state([0] * n, support @ support.conj().T, None)
    weight, inside = (np.einsum("ij,ik,kj->j", vecs.conj(), m, vecs).real for m in (ref, support_n))
    cols = vecs[:, (vals >= -op.DEFAULT_TOL.cluster * math.exp(a) * weight) | (inside <= 0.5)]
    return cols @ cols.conj().T


def exact_classes(sigma0, n):
    """The eigenvalue class of each of the d**n strings of sigma0's single-letter eigenbasis, whose
    n-fold product Un is returned too: strings whose products of eigenvalues agree to 1e-9 relative
    share a label, and so do all strings with an eigenvalue at or below 1e-10."""
    vals, vecs = np.linalg.eigh(sigma0)
    products = np.diag(dense_word_state([0] * n, np.diag(np.where(vals > 1e-10, vals, 0.0)), None)).real
    order = np.argsort(products)
    labels = np.empty(len(products), dtype=int)
    labels[order] = np.cumsum(np.diff(products[order], prepend=-1.0) > 1e-9 * products[order])
    return labels, dense_word_state([0] * n, vecs, None)


def exact_eigenprojectors(sigma0, n):
    """The eigenprojectors of sigma0^(x)n, one per class of :func:`exact_classes`."""
    labels, basis = exact_classes(sigma0, n)
    return [basis[:, labels == c] @ basis[:, labels == c].conj().T for c in np.unique(labels)]


def dense_square_root_povm(words, sigma0, sigma1, a):
    """The square-root measurement on dense n-fold operators: pinched-threshold projectors Pi_c,
    sigma_c pinched by the exact eigenprojectors of sigma0^(x)n, S = sum Pi_c and
    Upsilon_c = S^{-1/2} Pi_c S^{-1/2}."""
    n = len(words[0])
    ref = dense_word_state([0] * n, sigma0, None)
    blocks = exact_eigenprojectors(sigma0, n)
    pinched = (sum(p @ dense_word_state(w, sigma0, sigma1) @ p for p in blocks) for w in words)
    projectors = [threshold_projector(m, ref, sigma0, n, a) for m in pinched]
    vals, vecs = np.linalg.eigh(sum(projectors))
    inv_sqrt = np.where(vals > 1e-10, 1.0 / np.sqrt(np.where(vals > 1e-10, vals, 1.0)), 0.0)
    s_inv_half = (vecs * inv_sqrt) @ vecs.conj().T
    elements = [s_inv_half @ p @ s_inv_half for p in projectors]
    return elements, np.eye(ref.shape[0]) - sum(elements)


def dense_decoder_errors(elements, words, table):
    """1 - tr(E_c sigma_c) of each element and its word, clipped to [0, 1] as the decoder clips them."""
    p_ok = [np.trace(e @ op.word_products(w, table)).real for e, w in zip(elements, words)]
    return np.clip(1.0 - np.asarray(p_ok), 0.0, 1.0)


def rank_two_qutrit_pair():
    """sigma0 of rank 2 on three levels and sigma1 inside its support, the two not commuting."""
    unitary = random_unitary(np.random.default_rng(11), 3)
    block = np.zeros((3, 3), dtype=complex)
    block[:2, :2] = [[0.5, 0.2 + 0.1j], [0.2 - 0.1j, 0.5]]
    return tuple(unitary @ m @ unitary.conj().T for m in (np.diag([0.6, 0.4, 0.0]).astype(complex), block))
