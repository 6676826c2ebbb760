import math

import numpy as np
import pytest
from support import excitation_isometry, excitation_quadruple, past_the_check, random_unitary

from covertq import capacities as cap
from covertq import channels as chn
from covertq.errors import (
    AssumptionViolationError,
    DimMismatchError,
    InvalidParameterError,
    SingularReferenceError,
    TrivialTestError,
)


def test_keyed_capacity_gamma_quarter():
    quad = excitation_quadruple(0.25)
    # scalar oracle: D(sigma1||sigma0) = ln 4, chi2 = gamma/(1-gamma) = 1/3
    expected = math.log(4.0) / math.sqrt(0.5 / 3.0)
    assert cap.covert_secrecy_capacity_keyed(quad) == pytest.approx(expected, abs=1e-9)


def test_keyed_capacity_gamma_half():
    quad = excitation_quadruple(0.5)
    assert cap.covert_secrecy_capacity_keyed(quad) == pytest.approx(
        math.log(2.0) * math.sqrt(2.0), abs=1e-9
    )


def test_unassisted_capacity():
    quad = excitation_quadruple(0.25)
    expected = math.log(3.0) * math.sqrt(6.0)
    assert cap.covert_secrecy_capacity_unassisted(quad) == pytest.approx(expected, abs=1e-9)
    assert cap.covert_secrecy_capacity_unassisted(excitation_quadruple(0.5)) == 0.0


def test_eg_capacity():
    V = excitation_isometry(0.25)
    assert cap.covert_eg_capacity(V) == pytest.approx(math.log(3.0) * math.sqrt(6.0), abs=1e-9)
    V6 = excitation_isometry(0.6)
    assert cap.covert_eg_capacity(V6) == 0.0
    V1 = excitation_isometry(0.1)
    assert cap.covert_eg_capacity(V1) == pytest.approx(math.log(9.0) * math.sqrt(18.0), abs=1e-9)


def test_minimal_key_rate():
    quad = excitation_quadruple(0.25)
    expected = math.log(4.0 / 3.0) / math.sqrt(1.0 / 6.0)
    assert cap.minimal_key_rate(quad) == pytest.approx(expected, abs=1e-9)
    assert cap.minimal_key_rate(excitation_quadruple(0.5)) == pytest.approx(
        math.log(2.0) * math.sqrt(2.0), abs=1e-9
    )


def test_key_rate_without_secrecy():
    quad = excitation_quadruple(0.25)
    assert cap.key_rate_without_secrecy(quad) == 0.0
    # swapping Bob and Willie flips which divergence dominates
    swapped = chn.BinaryCovertChannel(
        sigma0=quad.omega0, sigma1=quad.omega1, omega0=quad.sigma0, omega1=quad.sigma1
    )
    assert cap.key_rate_without_secrecy(swapped) > 0.0
    symmetric = chn.BinaryCovertChannel(
        sigma0=quad.omega0, sigma1=quad.omega1, omega0=quad.omega0, omega1=quad.omega1
    )
    assert cap.key_rate_without_secrecy(symmetric) == 0.0


def test_closed_form():
    assert cap.excitation_capacity_closed_form(0.25) == pytest.approx(
        math.log(3.0) * math.sqrt(6.0), abs=1e-12
    )
    assert cap.excitation_capacity_closed_form(0.5) == 0.0
    assert cap.excitation_capacity_closed_form(0.1) == pytest.approx(
        math.log(9.0) * math.sqrt(18.0), abs=1e-12
    )
    with pytest.raises(InvalidParameterError):
        cap.excitation_capacity_closed_form(0.0)


def test_pipeline_matches_closed_form():
    for gamma in np.linspace(0.02, 0.98, 50):
        V = excitation_isometry(float(gamma))
        assert cap.covert_eg_capacity(V) == pytest.approx(
            cap.excitation_capacity_closed_form(float(gamma)), abs=1e-9
        )


def test_capacity_report_quarter():
    V = excitation_isometry(0.25)
    r = cap.capacity_report(V)
    assert r.dBob == pytest.approx(math.log(4.0), abs=1e-12)
    assert r.dWillie == pytest.approx(math.log(4.0 / 3.0), abs=1e-12)
    assert r.chi2Willie == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert r.cSKey == pytest.approx(3.3957138, abs=1e-6)
    assert r.cS == r.cEG
    assert r.cS == pytest.approx(2.6910395, abs=1e-6)
    assert r.lKeyMin == pytest.approx(0.7046743, abs=1e-6)
    assert r.lKeyNoSecrecy == 0.0
    assert not r.antiDegradedFlag


def test_capacity_report_anti_degraded():
    r = cap.capacity_report(excitation_isometry(0.75))
    assert r.antiDegradedFlag
    assert r.cEG == 0.0
    assert r.dBob == pytest.approx(math.log(4.0 / 3.0), abs=1e-12)
    assert r.dWillie == pytest.approx(math.log(4.0), abs=1e-12)


def test_capacity_report_half():
    r = cap.capacity_report(excitation_isometry(0.5))
    assert r.cS == 0.0 and r.cEG == 0.0
    assert r.cSKey > 0.0


def test_report_invariants_sweep():
    for gamma in np.linspace(0.05, 0.95, 19):
        r = cap.capacity_report(excitation_isometry(float(gamma)))
        assert r.cS == r.cEG
        assert r.cS <= r.cSKey + 1e-12
        assert min(r.cSKey, r.cS, r.cEG, r.lKeyMin, r.lKeyNoSecrecy) >= 0.0
        assert r.antiDegradedFlag == (r.dBob <= r.dWillie + 1e-12)
        assert r.antiDegradedFlag == (r.cEG == 0.0)


def test_report_dilation_invariance():
    rng = np.random.default_rng(4)
    V = excitation_isometry(0.3)
    r1 = cap.capacity_report(V)
    V2 = chn.StinespringIsometry(np.kron(np.eye(2), random_unitary(rng, 2)) @ V.V, 2, 2)
    r2 = cap.capacity_report(V2)
    for field in ("dBob", "dWillie", "chi2Willie", "cSKey", "cS", "cEG", "lKeyMin"):
        assert getattr(r1, field) == pytest.approx(getattr(r2, field), abs=1e-9)


def coinciding_warden_isometry():
    """Kraus operators I/sqrt(2) twice: the warden sees I/2 for both inputs."""
    half = np.eye(2) / math.sqrt(2.0)
    return chn.stinespring_from_kraus(chn.KrausChannel((half, half)))


def test_capacity_reports_match_single_reports():
    isometries = [excitation_isometry(g) for g in (0.05, 0.25, 0.5, 0.75)]
    assert cap.capacity_reports(isometries) == [cap.capacity_report(V) for V in isometries]
    assert cap.capacity_reports([]) == []
    # stacked isometries are concatenated along their leading axes
    stacked = [excitation_isometry(np.array([0.05, 0.25])), isometries[2], excitation_isometry(np.array([0.75]))]
    assert cap.capacity_reports(stacked) == cap.capacity_reports(isometries)
    assert cap.capacity_reports([excitation_isometry(np.array([]))]) == []
    with pytest.raises(DimMismatchError):
        cap.capacity_report(stacked[0])
    with pytest.raises(DimMismatchError):
        cap.capacity_reports([excitation_isometry(0.25), chn.stinespring_from_kraus(chn.KrausChannel((np.eye(2),)))])


def test_capacity_reports_raise_at_lowest_failing_element():
    with pytest.raises(TrivialTestError, match=r"^stack element 1: warden outputs coincide"):
        cap.capacity_reports([excitation_isometry(0.2), coinciding_warden_isometry(), excitation_isometry(1.0)])
    with pytest.raises(AssumptionViolationError, match=r"^stack element 1: supp\(omega1\)"):
        cap.capacity_reports([excitation_isometry(0.2), excitation_isometry(1.0), coinciding_warden_isometry()])
    with pytest.raises(AssumptionViolationError, match=r"^stack element 2: supp\(omega1\)"):
        cap.capacity_reports([excitation_isometry(np.array([0.2, 0.3])), excitation_isometry(1.0)])
    # one channel: the message is the one build_covert_channel gives
    with pytest.raises(AssumptionViolationError, match=r"^supp\(omega1\) not contained in supp\(omega0\)$"):
        cap.capacity_report(excitation_isometry(1.0))
    with pytest.raises(TrivialTestError, match=r"^warden outputs coincide"):
        chn.build_covert_channel(coinciding_warden_isometry())


def test_rates_refuse_a_vanishing_chi_square():
    # with omega1 = omega0 every rate divides by chi2 = 0: the constructor refuses such a quadruple, and the
    # rates still refuse one altered past it
    quad = excitation_quadruple(0.25)
    with pytest.raises(TrivialTestError, match="^warden outputs coincide"):
        chn.BinaryCovertChannel(quad.sigma0, quad.sigma1, quad.omega0, quad.omega0)
    with pytest.raises(SingularReferenceError, match="^chi-square of warden outputs vanished"):
        cap.capacity_report_from_quadruple(past_the_check(quad, omega1=quad.omega0))


def test_rate_functions_are_report_fields():
    for gamma in (0.1, 0.25, 0.6):
        quad = excitation_quadruple(gamma)
        r = cap.capacity_report_from_quadruple(quad)
        assert cap.covert_secrecy_capacity_keyed(quad) == r.cSKey
        assert cap.covert_secrecy_capacity_unassisted(quad) == r.cS
        assert cap.minimal_key_rate(quad) == r.lKeyMin
        assert cap.key_rate_without_secrecy(quad) == r.lKeyNoSecrecy
        assert cap.covert_eg_capacity(excitation_isometry(gamma)) == r.cEG
