"""Quantum channels: Kraus and Stinespring forms, the excitation channel,
and the four-state quadruple describing a binary covert-communication setting.

The Stinespring convention is fixed across the package: the output factor
order is receiver (B) before environment (W), i.e. V = sum_k K_k (x) |k>_W
with B as the left tensor factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import operators as op
from .errors import (
    AssumptionViolationError,
    DimMismatchError,
    IndexOutOfRangeError,
    InvalidParameterError,
    NotTracePreservingError,
    TrivialTestError,
)
from .operators import DEFAULT_TOL, Tolerances


@dataclass(frozen=True)
class KrausChannel:
    """A completely positive trace-preserving map given by Kraus operators."""

    kraus: tuple[np.ndarray, ...]

    def __post_init__(self):
        ks = tuple(np.asarray(k, dtype=complex) for k in self.kraus)
        if not ks:
            raise InvalidParameterError("at least one Kraus operator required")
        shape = ks[0].shape
        if any(k.shape != shape for k in ks):
            raise DimMismatchError("Kraus operators must share one shape")
        total = sum(k.conj().T @ k for k in ks)
        if np.max(np.abs(total - np.eye(shape[1]))) > DEFAULT_TOL.herm:
            raise NotTracePreservingError("sum K^dag K differs from identity")
        object.__setattr__(self, "kraus", ks)

    @property
    def in_dim(self) -> int:
        return self.kraus[0].shape[1]

    @property
    def out_dim(self) -> int:
        return self.kraus[0].shape[0]

    def apply(self, rho) -> np.ndarray:
        r = np.asarray(rho, dtype=complex)
        return sum(k @ r @ k.conj().T for k in self.kraus)


@dataclass(frozen=True)
class StinespringIsometry:
    """An isometry V : A -> B (x) W with V^dag V = I on the input space."""

    V: np.ndarray
    out_dim_b: int
    out_dim_w: int

    def __post_init__(self):
        v = np.asarray(self.V, dtype=complex)
        if v.shape[0] != self.out_dim_b * self.out_dim_w:
            raise DimMismatchError("isometry rows != out_dim_b * out_dim_w")
        gram = v.conj().T @ v
        if np.max(np.abs(gram - np.eye(v.shape[1]))) > DEFAULT_TOL.herm:
            raise NotTracePreservingError("V^dag V differs from identity")
        object.__setattr__(self, "V", v)

    @property
    def in_dim(self) -> int:
        return self.V.shape[1]


@dataclass(frozen=True)
class BinaryCovertChannel:
    """The quadruple (sigma0, sigma1, omega0, omega1) of receiver and warden
    outputs for the two input symbols, with the support assumptions of the
    covert setting already validated.  Inside the package the four fields may
    also be equal-shape stacks (..., d, d) of many channels' quadruples."""

    sigma0: np.ndarray
    sigma1: np.ndarray
    omega0: np.ndarray
    omega1: np.ndarray


def excitation_channel(gamma: float) -> KrausChannel:
    """Qubit excitation channel: the time-reverse of amplitude damping.

    Kraus operators K0 = sqrt(1-gamma)|0><0| + |1><1| and
    K1 = sqrt(gamma)|1><0|, for gamma in (0, 1].
    """
    if not 0.0 < gamma <= 1.0:
        raise InvalidParameterError(f"gamma must lie in (0, 1], got {gamma}")
    k0 = np.diag([math.sqrt(1.0 - gamma), 1.0]).astype(complex)
    k1 = np.zeros((2, 2), dtype=complex)
    k1[1, 0] = math.sqrt(gamma)
    return KrausChannel((k0, k1))


def stinespring_from_kraus(ch: KrausChannel) -> StinespringIsometry:
    """Stack Kraus operators into V = sum_k K_k (x) |k>_W (B before W)."""
    dw = len(ch.kraus)
    db, da = ch.kraus[0].shape
    v = np.zeros((db * dw, da), dtype=complex)
    for k, kr in enumerate(ch.kraus):
        for b in range(db):
            v[b * dw + k, :] = kr[b, :]
    return StinespringIsometry(v, db, dw)


def apply_isometry(V: StinespringIsometry, rho) -> np.ndarray:
    """Joint receiver-environment state V rho V^dag."""
    r = np.asarray(rho, dtype=complex)
    if r.shape[0] != V.in_dim:
        raise DimMismatchError(f"input dim {r.shape[0]} != isometry dim {V.in_dim}")
    return V.V @ r @ V.V.conj().T


def _marginals(v: np.ndarray, db: int, dw: int, inputs):
    """Receiver and warden outputs of basis inputs through isometry matrices.

    ``v`` is one isometry matrix or a stack of them, shape (..., db*dw, da).
    Returns ``(sigma, omega)`` of shapes (..., len(inputs), db, db) and
    (..., len(inputs), dw, dw): the partial traces of V|x><x|V^dag over W and
    over B for every x in ``inputs``.
    """
    cols = np.swapaxes(v[..., list(inputs)], -1, -2).reshape(v.shape[:-2] + (len(inputs), db, dw))
    # products then sums rather than einsum: the roundings of the dense
    # partial traces of |V x><V x|, which the EG decoupler is sensitive to
    sigma = np.sum(cols[..., :, None, :] * cols.conj()[..., None, :, :], axis=-1)
    omega = np.sum(cols[..., :, :, None] * cols.conj()[..., :, None, :], axis=-3)
    return sigma, omega


def marginal_outputs(V: StinespringIsometry, x: int):
    """Receiver and warden output states for the basis input |x>.

    Returns
    -------
    (sigma_x, omega_x) : tuple of ndarray
        Partial traces of V|x><x|V^dag over W and over B respectively.
    """
    if not 0 <= x < V.in_dim:
        raise IndexOutOfRangeError(f"basis index {x} outside [0, {V.in_dim})")
    sigma, omega = _marginals(V.V, V.out_dim_b, V.out_dim_w, [x])
    return sigma[0], omega[0]


def _validate_quadruple(quad: BinaryCovertChannel, tol: Tolerances) -> BinaryCovertChannel:
    """Check the covert setting on a quadruple or on a stack of quadruples.

    The warden's outputs must differ (trace norm above the support tolerance),
    and supp(sigma1) in supp(sigma0), supp(omega1) in supp(omega0) must hold.
    On a stack the lowest failing element raises with its first failing check.
    """
    checks = (
        (TrivialTestError, "warden outputs coincide; detection test is vacuous"),
        (AssumptionViolationError, "supp(sigma1) not contained in supp(sigma0)"),
        (AssumptionViolationError, "supp(omega1) not contained in supp(omega0)"),
    )
    failing = np.stack([
        op.trace_norm(quad.omega1 - quad.omega0) <= tol.support,
        np.logical_not(op.support_contained(quad.sigma1, quad.sigma0, tol)),
        np.logical_not(op.support_contained(quad.omega1, quad.omega0, tol)),
    ])
    failed = op.first_failure(failing.any(axis=0))
    if failed:
        index, where = failed
        error, message = checks[int(np.argmax(failing[(slice(None),) + index]))]
        raise error(where + message)
    return quad


def _covert_quadruple(v: np.ndarray, db: int, dw: int, tol: Tolerances) -> BinaryCovertChannel:
    """Validated quadruple of inputs 0 and 1 for one isometry matrix or a
    stack of them, shape (..., db*dw, da); the fields are stacked alike."""
    if v.shape[-1] < 2:
        raise DimMismatchError("covert setting needs at least two input symbols")
    sigma, omega = _marginals(v, db, dw, (0, 1))
    quad = BinaryCovertChannel(sigma[..., 0, :, :], sigma[..., 1, :, :], omega[..., 0, :, :], omega[..., 1, :, :])
    return _validate_quadruple(quad, tol)


def build_covert_channel(V: StinespringIsometry, tol: Tolerances = DEFAULT_TOL) -> BinaryCovertChannel:
    """Form the binary covert quadruple from input symbols 0 and 1.

    Validates the two support inclusions supp(sigma1) in supp(sigma0) and
    supp(omega1) in supp(omega0), and that the warden's two outputs differ.
    """
    return _covert_quadruple(V.V, V.out_dim_b, V.out_dim_w, tol)


def mixed_output(ch: BinaryCovertChannel, alpha: float) -> np.ndarray:
    """Warden's mixed output (1 - alpha) omega0 + alpha omega1."""
    if not 0.0 <= alpha <= 1.0:
        raise InvalidParameterError(f"alpha must lie in [0, 1], got {alpha}")
    return (1.0 - alpha) * ch.omega0 + alpha * ch.omega1


def channel_spec_to_stinespring(spec: dict) -> StinespringIsometry:
    """Build a Stinespring isometry from a channel-spec dictionary.

    Recognized kinds: ``excitation`` (field ``gamma``), ``kraus`` (field
    ``kraus``: list of matrices in nested [re, im] form), and ``cq-pair``
    is handled separately via :func:`channel_spec_to_quadruple`.
    """
    kind = spec.get("kind")
    if kind == "excitation":
        return stinespring_from_kraus(excitation_channel(float(spec["gamma"])))
    if kind == "kraus":
        ks = tuple(op.matrix_from_json(k) for k in spec["kraus"])
        return stinespring_from_kraus(KrausChannel(ks))
    raise InvalidParameterError(f"unsupported channel kind for isometry: {kind!r}")


def channel_spec_to_quadruple(spec: dict, tol: Tolerances = DEFAULT_TOL) -> BinaryCovertChannel:
    """Build a BinaryCovertChannel from a channel-spec dictionary."""
    kind = spec.get("kind")
    if kind == "cq-pair":
        return _validate_quadruple(BinaryCovertChannel(*(
            op.check_density(op.matrix_from_json(spec[name]), tol)
            for name in ("sigma0", "sigma1", "omega0", "omega1")
        )), tol)
    return build_covert_channel(channel_spec_to_stinespring(spec), tol)
