"""Covert-communication rate formulas evaluated from a binary covert channel.

Every rate has the form (difference of relative entropies) divided by
sqrt(chi^2(omega1||omega0)/2), where the chi-square divergence is the
curvature of the warden's detection statistic.  All values are in nats.

One kernel computes them all: it takes a quadruple whose four states are
2-D matrices or equal-shape stacks ``(..., d, d)`` and evaluates both
relative entropies and the chi-square divergence once for the whole stack.
:func:`capacity_reports` runs it on many isometries of one shape, giving one
``CapacityReport`` per isometry; :func:`capacity_report`,
:func:`capacity_report_from_quadruple` and the five single-rate functions
are its one-element case and return floats.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import divergences as dv
from . import operators as op
from .channels import BinaryCovertChannel, StinespringIsometry, _covert_quadruple
from .errors import DimMismatchError, InvalidParameterError, SingularReferenceError
from .operators import DEFAULT_TOL, Tolerances


@dataclass(frozen=True)
class CapacityReport:
    """All closed-form rates for one binary covert channel, in nats."""

    dBob: float
    dWillie: float
    chi2Willie: float
    denom: float
    cSKey: float
    cS: float
    cEG: float
    lKeyMin: float
    lKeyNoSecrecy: float
    antiDegradedFlag: bool

    def to_dict(self) -> dict:
        return asdict(self)


def _positive_gap(a, b):
    """Positive part of a - b, snapping roundoff-scale gaps to exact zero."""
    gap = a - b
    return np.where(gap <= 1e-12 * np.maximum(1.0, np.maximum(np.abs(a), np.abs(b))), 0.0, gap)


def _reports(ch: BinaryCovertChannel, tol: Tolerances) -> list[CapacityReport]:
    """Every rate of a quadruple, or of a stack of quadruples, in one pass:
    two batched ``qre`` calls and one batched ``chi_square`` call."""
    d_bob = dv.qre(ch.sigma1, ch.sigma0, tol)
    d_willie = dv.qre(ch.omega1, ch.omega0, tol)
    chi2 = dv.chi_square(ch.omega1, ch.omega0, tol)
    failed = op.first_failure(chi2 <= 0.0)
    if failed:
        raise SingularReferenceError(f"{failed[1]}chi-square of warden outputs vanished")
    denom = np.sqrt(0.5 * chi2)
    c_s = _positive_gap(d_bob, d_willie) / denom
    # in CapacityReport's field order, up to antiDegradedFlag (cS == 0)
    columns = (d_bob, d_willie, chi2, denom, d_bob / denom, c_s, c_s, d_willie / denom,
               _positive_gap(d_willie, d_bob) / denom)
    return [CapacityReport(*row, antiDegradedFlag=row[5] == 0.0)
            for row in zip(*(np.ravel(column).tolist() for column in columns))]


def capacity_reports(isometries, tol: Tolerances = DEFAULT_TOL) -> list[CapacityReport]:
    """Capacity reports for many channels of one shape, evaluated as one stack.

    Each isometry's quadruple is validated as :func:`capacity_report` does; the
    lowest failing channel raises, with its index in the message.
    """
    matrices, shapes = [], set()
    for V in isometries:
        matrices.append(V.V)
        shapes.add((V.V.shape, V.out_dim_b, V.out_dim_w))
    if not matrices:
        return []
    if len(shapes) > 1:
        raise DimMismatchError("stacked isometries must share one shape")
    ((_, db, dw),) = shapes
    return _reports(_covert_quadruple(np.stack(matrices), db, dw, tol), tol)


def covert_secrecy_capacity_keyed(ch: BinaryCovertChannel, tol: Tolerances = DEFAULT_TOL) -> float:
    """Key-assisted covert secrecy capacity D(sigma1||sigma0) / sqrt(chi^2/2)."""
    return capacity_report_from_quadruple(ch, tol).cSKey


def covert_secrecy_capacity_unassisted(ch: BinaryCovertChannel, tol: Tolerances = DEFAULT_TOL) -> float:
    """Unassisted covert secrecy capacity: positive part of the divergence gap
    [D(sigma1||sigma0) - D(omega1||omega0)]_+ over sqrt(chi^2/2)."""
    return capacity_report_from_quadruple(ch, tol).cS


def covert_eg_capacity(V: StinespringIsometry, tol: Tolerances = DEFAULT_TOL) -> float:
    """Covert entanglement-generation capacity of the channel dilated by V.

    Coincides with the unassisted covert secrecy capacity of the induced
    binary quadruple.
    """
    return capacity_report(V, tol).cEG


def minimal_key_rate(ch: BinaryCovertChannel, tol: Tolerances = DEFAULT_TOL) -> float:
    """Asymptotic key rate D(omega1||omega0) / sqrt(chi^2/2) that suffices
    for secrecy in the key-assisted scheme."""
    return capacity_report_from_quadruple(ch, tol).lKeyMin


def key_rate_without_secrecy(ch: BinaryCovertChannel, tol: Tolerances = DEFAULT_TOL) -> float:
    """Key rate needed for covertness alone:
    [D(omega1||omega0) - D(sigma1||sigma0)]_+ over sqrt(chi^2/2)."""
    return capacity_report_from_quadruple(ch, tol).lKeyNoSecrecy


def excitation_capacity_closed_form(gamma: float) -> float:
    """Closed-form covert capacity of the excitation channel.

    log((1-gamma)/gamma) * sqrt(2(1-gamma)/gamma) for gamma < 1/2, else 0.
    """
    if not 0.0 < gamma <= 1.0:
        raise InvalidParameterError(f"gamma must lie in (0, 1], got {gamma}")
    if gamma >= 0.5:
        return 0.0
    return math.log((1.0 - gamma) / gamma) * math.sqrt(2.0 * (1.0 - gamma) / gamma)


def capacity_report_from_quadruple(ch: BinaryCovertChannel, tol: Tolerances = DEFAULT_TOL) -> CapacityReport:
    """Evaluate every rate formula on one quadruple."""
    return _reports(ch, tol)[0]


def capacity_report(V: StinespringIsometry, tol: Tolerances = DEFAULT_TOL) -> CapacityReport:
    """Capacity report for the binary covert channel induced by V."""
    return capacity_reports([V], tol)[0]
