"""Quantum channels: Kraus and Stinespring forms, the excitation channel,
and the four-state quadruple describing a binary covert-communication setting.

The Stinespring convention is fixed across the package: the output factor
order is receiver (B) before environment (W), i.e. V = sum_k K_k (x) |k>_W
with B as the left tensor factor.

Stack contract: a channel may also be a stack of channels of one shape.
Kraus operators are then ``(..., dB, dA)`` arrays and the isometry matrix is
``(..., dB*dW, dA)``; the trace-preservation and isometry checks run on every
element at once and a failure names the lowest failing element.
:func:`excitation_channel` builds such a stack from a 1-D array of gammas.
A :class:`BinaryCovertChannel` checks the covert setting in its constructor,
so every quadruple, however made, is checked once, on every stack element.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import operators as op
from .errors import (
    AssumptionViolationError, DimMismatchError, IndexOutOfRangeError, InvalidParameterError,
    NotTracePreservingError, TrivialTestError,
)
from .operators import DEFAULT_TOL


@dataclass(frozen=True)
class KrausChannel:
    """A completely positive trace-preserving map given by Kraus operators."""

    kraus: tuple[np.ndarray, ...]
    _isometry: StinespringIsometry = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ks = tuple(np.asarray(k, dtype=complex) for k in self.kraus)
        if not ks:
            raise InvalidParameterError("at least one Kraus operator required")
        shape = ks[0].shape
        if any(k.shape != shape for k in ks):
            raise DimMismatchError("Kraus operators must share one shape")
        # sum_k K_k^dag K_k is V^dag V of the stacked Kraus operators, so the
        # Stinespring isometry's own check is the trace-preservation check
        try:
            isometry = StinespringIsometry(_stack_kraus(ks), shape[-2], len(ks))
        except NotTracePreservingError as exc:
            raise NotTracePreservingError(str(exc).replace("V^dag V", "sum K^dag K")) from None
        object.__setattr__(self, "kraus", ks)
        object.__setattr__(self, "_isometry", isometry)

    @property
    def in_dim(self) -> int:
        return self.kraus[0].shape[-1]

    @property
    def out_dim(self) -> int:
        return self.kraus[0].shape[-2]

    def apply(self, rho) -> np.ndarray:
        r = np.asarray(rho, dtype=complex)
        return sum(k @ r @ op.dagger(k) for k in self.kraus)


def _stack_kraus(ks) -> np.ndarray:
    """V = sum_k K_k (x) |k>_W from Kraus operators of shape (..., dB, dA)."""
    db, da = ks[0].shape[-2:]
    return np.stack(ks, axis=-2).reshape(ks[0].shape[:-2] + (db * len(ks), da))


def _check_isometry(v: np.ndarray, message: str) -> None:
    """Raise ``NotTracePreservingError`` unless V^dag V = I for every matrix
    of the stack ``v``, naming the lowest failing element."""
    dev = np.abs(op.dagger(v) @ v - np.eye(v.shape[-1])).max(axis=(-2, -1))
    failed = op.first_failure(dev > DEFAULT_TOL.herm)
    if failed:
        raise NotTracePreservingError(failed[1] + message)


@dataclass(frozen=True)
class StinespringIsometry:
    """An isometry V : A -> B (x) W with V^dag V = I on the input space."""

    V: np.ndarray
    out_dim_b: int
    out_dim_w: int

    def __post_init__(self):
        v = np.asarray(self.V, dtype=complex)
        if v.shape[-2] != self.out_dim_b * self.out_dim_w:
            raise DimMismatchError("isometry rows != out_dim_b * out_dim_w")
        _check_isometry(v, "V^dag V differs from identity")
        object.__setattr__(self, "V", v)

    @property
    def in_dim(self) -> int:
        return self.V.shape[-1]


@dataclass(frozen=True)
class BinaryCovertChannel:
    """The quadruple (sigma0, sigma1, omega0, omega1) of receiver and warden
    outputs for the two input symbols.  Inside the package the four fields may
    also be equal-shape stacks (..., d, d) of many channels' quadruples.
    Each pair passes the one rule for a pair, ``operators._checked_pair``, and
    the receiver's and warden's stacks share one shape, else ``DimMismatchError``.
    The constructor checks the covert setting, so every quadruple lies in it:
    the warden's outputs differ (trace norm above the support tolerance, else
    ``TrivialTestError``), and supp(sigma1) in supp(sigma0) and supp(omega1)
    in supp(omega0) (else ``AssumptionViolationError``).  On a stack the
    lowest failing element raises with its first failing check.

    The fields are read-only copies of the arrays passed in, so what
    :meth:`cached` keeps (the pairs' routes and the bound's K-free terms)
    cannot be made stale by writing to either; ``dataclasses.replace`` gives
    a new channel, checked again, with an empty cache."""

    sigma0: np.ndarray
    sigma1: np.ndarray
    omega0: np.ndarray
    omega1: np.ndarray
    _cache: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        for name in ("sigma0", "sigma1", "omega0", "omega1"):
            own = np.array(getattr(self, name))
            own.flags.writeable = False
            object.__setattr__(self, name, own)
        checks = (
            (TrivialTestError, "warden outputs coincide; detection test is vacuous"),
            (AssumptionViolationError, "supp(sigma1) not contained in supp(sigma0)"),
            (AssumptionViolationError, "supp(omega1) not contained in supp(omega0)"),
        )
        # support_contained checks each pair by the one rule before any arithmetic on it
        inside = [op.support_contained(self.sigma1, self.sigma0), op.support_contained(self.omega1, self.omega0)]
        if self.sigma0.shape[:-2] != self.omega0.shape[:-2]:
            raise DimMismatchError(f"stack shapes {self.sigma0.shape[:-2]} vs {self.omega0.shape[:-2]}")
        failing = np.stack([op.trace_norm(self.omega1 - self.omega0) <= DEFAULT_TOL.support, *np.logical_not(inside)])
        failed = op.first_failure(failing.any(axis=0))
        if failed:
            index, where = failed
            error, message = checks[int(np.argmax(failing[(slice(None),) + index]))]
            raise error(where + message)

    def cached(self, key, make: Callable):
        """``make()``, computed on the first call with ``key`` and kept on this channel."""
        if key not in self._cache:
            self._cache[key] = make()
        return self._cache[key]


def excitation_channel(gamma) -> KrausChannel:
    """Qubit excitation channel: the time-reverse of amplitude damping.

    Kraus operators K0 = sqrt(1-gamma)|0><0| + |1><1| and
    K1 = sqrt(gamma)|1><0|, for gamma in (0, 1].  A 1-D array of gammas
    gives the stack of those channels, Kraus operators of shape (N, 2, 2).
    """
    g = np.asarray(gamma, dtype=float)
    failed = op.first_failure(~((0.0 < g) & (g <= 1.0)))
    if failed:
        index, where = failed
        raise InvalidParameterError(f"{where}gamma must lie in (0, 1], got {g[index]}")
    k0 = np.zeros(g.shape + (2, 2), dtype=complex)
    k0[..., 0, 0] = np.sqrt(1.0 - g)
    k0[..., 1, 1] = 1.0
    k1 = np.zeros(g.shape + (2, 2), dtype=complex)
    k1[..., 1, 0] = np.sqrt(g)
    return KrausChannel((k0, k1))


def stinespring_from_kraus(ch: KrausChannel) -> StinespringIsometry:
    """V = sum_k K_k (x) |k>_W (B before W), stacked and checked with the channel."""
    return ch._isometry


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


def build_covert_channel(V: StinespringIsometry) -> BinaryCovertChannel:
    """The binary covert quadruple of input symbols 0 and 1, checked as every
    :class:`BinaryCovertChannel` is; a stacked isometry gives stacked fields."""
    if V.in_dim < 2:
        raise DimMismatchError("covert setting needs at least two input symbols")
    sigma, omega = _marginals(V.V, V.out_dim_b, V.out_dim_w, (0, 1))
    return BinaryCovertChannel(sigma[..., 0, :, :], sigma[..., 1, :, :], omega[..., 0, :, :], omega[..., 1, :, :])


def mixed_output(ch: BinaryCovertChannel, alpha: float) -> np.ndarray:
    """Warden's mixed output (1 - alpha) omega0 + alpha omega1."""
    if not 0.0 <= alpha <= 1.0:
        raise InvalidParameterError(f"alpha must lie in [0, 1], got {alpha}")
    return (1.0 - alpha) * ch.omega0 + alpha * ch.omega1


def _spec_field(spec: dict, name: str, kind: str):
    """``spec[name]``, which must be a JSON ``kind``: "list" or "real number"."""
    value = spec[name]
    if isinstance(value, bool) or not isinstance(value, list if kind == "list" else (int, float)):
        raise InvalidParameterError(f"channel spec field {name!r} must be a {kind}, got {type(value).__name__}")
    return value


def channel_spec_to_stinespring(spec: dict) -> StinespringIsometry:
    """Build a Stinespring isometry from a channel-spec dictionary.

    Recognized kinds: ``excitation`` (field ``gamma``), ``kraus`` (field
    ``kraus``: list of matrices in nested [re, im] form), and ``cq-pair``
    is handled separately via :func:`channel_spec_to_quadruple`.
    """
    kind = spec.get("kind")
    if kind == "excitation":
        return stinespring_from_kraus(excitation_channel(float(_spec_field(spec, "gamma", "real number"))))
    if kind == "kraus":
        ks = tuple(op.matrix_from_json(k) for k in _spec_field(spec, "kraus", "list"))
        return stinespring_from_kraus(KrausChannel(ks))
    raise InvalidParameterError(f"unsupported channel kind for isometry: {kind!r}")


def channel_spec_to_quadruple(spec: dict) -> BinaryCovertChannel:
    """Build a BinaryCovertChannel from a channel-spec dictionary."""
    kind = spec.get("kind")
    if kind == "cq-pair":
        return BinaryCovertChannel(*(
            op.check_density(op.matrix_from_json(_spec_field(spec, name, "list")))
            for name in ("sigma0", "sigma1", "omega0", "omega1")
        ))
    return build_covert_channel(channel_spec_to_stinespring(spec))
