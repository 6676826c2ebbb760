"""Covert-communication rate formulas evaluated from a binary covert channel.

Every rate has the form (difference of relative entropies) divided by
sqrt(chi^2(omega1||omega0)/2), where the chi-square divergence is the
curvature of the warden's detection statistic.  All values are in nats.

One kernel computes them all: it takes a quadruple whose four states are
2-D matrices or equal-shape stacks ``(..., d, d)``, evaluates both relative
entropies and the chi-square divergence once for the whole stack, and
returns each rate as one array over the stack (``covertq sweep`` writes its
CSV from these columns).  :func:`capacity_reports` runs it on many
isometries of one shape, giving one ``CapacityReport`` per isometry;
:func:`capacity_report`, :func:`capacity_report_from_quadruple` and the five
single-rate functions are its one-element case and return floats.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import divergences as dv
from . import operators as op
from .channels import BinaryCovertChannel, StinespringIsometry, build_covert_channel
from .errors import DimMismatchError, InvalidParameterError, SingularReferenceError


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


_RATE_FIELDS = tuple(f.name for f in fields(CapacityReport))[:-1]  # all but antiDegradedFlag (cS == 0)


def _positive_gap(a, b):
    """Positive part of a - b, snapping roundoff-scale gaps to exact zero."""
    gap = a - b
    return np.where(gap <= op.DEFAULT_TOL.roundoff * np.maximum(1.0, np.maximum(np.abs(a), np.abs(b))), 0.0, gap)


def _rate_columns(ch: BinaryCovertChannel) -> dict[str, np.ndarray]:
    """Every rate of a quadruple, or of a stack of quadruples, in one pass: two
    batched ``qre`` calls and one batched ``chi_square`` call.  One flat array
    per ``CapacityReport`` field up to antiDegradedFlag, in field order."""
    d_bob = dv.qre(ch.sigma1, ch.sigma0)
    d_willie = dv.qre(ch.omega1, ch.omega0)
    chi2 = dv.chi_square(ch.omega1, ch.omega0)
    failed = op.first_failure(chi2 <= 0.0)
    if failed:
        raise SingularReferenceError(f"{failed[1]}chi-square of warden outputs vanished")
    denom = np.sqrt(0.5 * chi2)
    c_s = _positive_gap(d_bob, d_willie) / denom
    columns = (d_bob, d_willie, chi2, denom, d_bob / denom, c_s, c_s, d_willie / denom,
               _positive_gap(d_willie, d_bob) / denom)
    return {field: np.ravel(column) for field, column in zip(_RATE_FIELDS, columns)}


def _reports(ch: BinaryCovertChannel) -> list[CapacityReport]:
    """One ``CapacityReport`` per quadruple of the stack, from :func:`_rate_columns`."""
    columns = _rate_columns(ch)
    return [CapacityReport(*row, antiDegradedFlag=row[5] == 0.0)
            for row in zip(*(column.tolist() for column in columns.values()))]


def capacity_reports(isometries) -> list[CapacityReport]:
    """Capacity reports for many channels of one shape, evaluated as one stack.

    Each isometry is one channel or a stack of channels; their leading axes
    are concatenated in order into one stack, giving one report per channel.
    The stack's quadruple is checked as every :class:`BinaryCovertChannel`
    is, and the lowest failing channel raises with its index in the message.
    """
    matrices, shapes = [], set()
    for V in isometries:
        rows, da = V.V.shape[-2:]
        matrices.append(V.V.reshape(math.prod(V.V.shape[:-2]), rows, da))
        shapes.add((rows, da, V.out_dim_b, V.out_dim_w))
    if not matrices:
        return []
    if len(shapes) > 1:
        raise DimMismatchError("stacked isometries must share one shape")
    ((*_, db, dw),) = shapes
    return _reports(build_covert_channel(StinespringIsometry(np.concatenate(matrices), db, dw)))


def covert_secrecy_capacity_keyed(ch: BinaryCovertChannel) -> float:
    """Key-assisted covert secrecy capacity D(sigma1||sigma0) / sqrt(chi^2/2)."""
    return capacity_report_from_quadruple(ch).cSKey


def covert_secrecy_capacity_unassisted(ch: BinaryCovertChannel) -> float:
    """Unassisted covert secrecy capacity: positive part of the divergence gap
    [D(sigma1||sigma0) - D(omega1||omega0)]_+ over sqrt(chi^2/2)."""
    return capacity_report_from_quadruple(ch).cS


def covert_eg_capacity(V: StinespringIsometry) -> float:
    """Covert entanglement-generation capacity of the channel dilated by V.

    Coincides with the unassisted covert secrecy capacity of the induced
    binary quadruple.
    """
    return capacity_report(V).cEG


def minimal_key_rate(ch: BinaryCovertChannel) -> float:
    """Asymptotic key rate D(omega1||omega0) / sqrt(chi^2/2) that suffices
    for secrecy in the key-assisted scheme."""
    return capacity_report_from_quadruple(ch).lKeyMin


def key_rate_without_secrecy(ch: BinaryCovertChannel) -> float:
    """Key rate needed for covertness alone:
    [D(omega1||omega0) - D(sigma1||sigma0)]_+ over sqrt(chi^2/2)."""
    return capacity_report_from_quadruple(ch).lKeyNoSecrecy


def excitation_capacity_closed_form(gamma: float) -> float:
    """Closed-form covert capacity of the excitation channel.

    log((1-gamma)/gamma) * sqrt(2(1-gamma)/gamma) for gamma < 1/2, else 0.
    """
    if not 0.0 < gamma <= 1.0:
        raise InvalidParameterError(f"gamma must lie in (0, 1], got {gamma}")
    if gamma >= 0.5:
        return 0.0
    return math.log((1.0 - gamma) / gamma) * math.sqrt(2.0 * (1.0 - gamma) / gamma)


def capacity_report_from_quadruple(ch: BinaryCovertChannel) -> CapacityReport:
    """Evaluate every rate formula on one quadruple."""
    return _reports(ch)[0]


def capacity_report(V: StinespringIsometry) -> CapacityReport:
    """Capacity report for the binary covert channel induced by V."""
    if V.V.ndim != 2:
        raise DimMismatchError("capacity_report takes one channel; use capacity_reports for a stack")
    return capacity_reports([V])[0]
