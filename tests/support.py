"""Channels and random states shared by the unit-test modules.

Each helper had identical copies in several test files; they live here once
and the test files import them.  The acceptance suite keeps its own copies,
so that it stays independent of the unit tests.
"""

import math

import numpy as np

from covertq import channels as chn


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
