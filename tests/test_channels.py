import math

import numpy as np
import pytest

from covertq import channels as chn
from covertq import divergences as dv
from covertq import operators as op
from covertq.errors import (
    AssumptionViolationError,
    IndexOutOfRangeError,
    InvalidParameterError,
    NotTracePreservingError,
    TrivialTestError,
)


def random_density(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_kraus_channel(rng, d_in, d_out, n_kraus):
    g = rng.normal(size=(d_out * n_kraus, d_in)) + 1j * rng.normal(size=(d_out * n_kraus, d_in))
    v, _ = np.linalg.qr(g)
    kraus = tuple(v[k::n_kraus][:d_out] if False else v.reshape(d_out, n_kraus, d_in)[:, k, :] for k in range(n_kraus))
    return chn.KrausChannel(kraus)


def test_excitation_kraus():
    ch = chn.excitation_channel(0.25)
    np.testing.assert_allclose(ch.kraus[0], np.diag([math.sqrt(0.75), 1.0]), atol=1e-15)
    expected = np.zeros((2, 2))
    expected[1, 0] = 0.5
    np.testing.assert_allclose(ch.kraus[1], expected, atol=1e-15)
    total = sum(k.conj().T @ k for k in ch.kraus)
    np.testing.assert_allclose(total, np.eye(2), atol=1e-15)


def test_excitation_gamma_one():
    ch = chn.excitation_channel(1.0)
    rng = np.random.default_rng(0)
    out = ch.apply(random_density(rng, 2))
    np.testing.assert_allclose(out, np.diag([0.0, 1.0]), atol=1e-12)


def test_excitation_invalid():
    for g in (0.0, -0.1, 1.5):
        with pytest.raises(InvalidParameterError):
            chn.excitation_channel(g)


def test_not_trace_preserving():
    with pytest.raises(NotTracePreservingError):
        chn.KrausChannel((np.eye(2) * 0.5,))


def test_stinespring_identity():
    V = chn.stinespring_from_kraus(chn.KrausChannel((np.eye(2),)))
    assert V.out_dim_w == 1
    np.testing.assert_allclose(V.V, np.eye(2), atol=1e-15)


def test_stinespring_excitation_isometry():
    V = chn.stinespring_from_kraus(chn.excitation_channel(0.25))
    assert V.V.shape == (4, 2)
    np.testing.assert_allclose(V.V.conj().T @ V.V, np.eye(2), atol=1e-12)


def test_stinespring_kraus_equivalence():
    rng = np.random.default_rng(1)
    for _ in range(10):
        ch = random_kraus_channel(rng, 3, 2, 3)
        V = chn.stinespring_from_kraus(ch)
        rho = random_density(rng, 3)
        joint = chn.apply_isometry(V, rho)
        reduced = op.partial_trace(joint, [V.out_dim_b, V.out_dim_w], [0])
        np.testing.assert_allclose(reduced, ch.apply(rho), atol=1e-10)


def test_apply_isometry_basic():
    V = chn.stinespring_from_kraus(chn.KrausChannel((np.eye(2),)))
    rng = np.random.default_rng(2)
    rho = random_density(rng, 2)
    np.testing.assert_allclose(chn.apply_isometry(V, rho), rho, atol=1e-12)
    # isometries preserve rank: pure input stays pure
    Ve = chn.stinespring_from_kraus(chn.excitation_channel(0.3))
    psi = np.zeros((2, 2), dtype=complex)
    psi[0, 0] = 1.0
    out = chn.apply_isometry(Ve, psi)
    vals = np.linalg.eigvalsh(out)
    assert np.sum(vals > 1e-12) == 1


def test_marginal_outputs_excitation():
    gamma = 0.25
    V = chn.stinespring_from_kraus(chn.excitation_channel(gamma))
    s0, w0 = chn.marginal_outputs(V, 0)
    s1, w1 = chn.marginal_outputs(V, 1)
    np.testing.assert_allclose(s0, np.diag([1 - gamma, gamma]), atol=1e-12)
    np.testing.assert_allclose(w0, np.diag([1 - gamma, gamma]), atol=1e-12)
    np.testing.assert_allclose(s1, np.diag([0.0, 1.0]), atol=1e-12)
    np.testing.assert_allclose(w1, np.diag([1.0, 0.0]), atol=1e-12)
    with pytest.raises(IndexOutOfRangeError):
        chn.marginal_outputs(V, 2)


def test_marginal_outputs_identity():
    V = chn.stinespring_from_kraus(chn.KrausChannel((np.eye(2),)))
    s0, w0 = chn.marginal_outputs(V, 0)
    np.testing.assert_allclose(s0, np.diag([1.0, 0.0]), atol=1e-12)
    assert w0.shape == (1, 1)
    assert w0[0, 0] == pytest.approx(1.0)


def test_build_covert_channel():
    V = chn.stinespring_from_kraus(chn.excitation_channel(0.25))
    quad = chn.build_covert_channel(V)
    assert np.linalg.eigvalsh(quad.omega0).min() > 0


def test_build_covert_channel_violation():
    V = chn.stinespring_from_kraus(chn.excitation_channel(1.0))
    with pytest.raises(AssumptionViolationError):
        chn.build_covert_channel(V)


def test_build_covert_channel_trivial():
    V = chn.stinespring_from_kraus(chn.KrausChannel((np.eye(2),)))
    with pytest.raises(TrivialTestError):
        chn.build_covert_channel(V)


def test_mixed_output():
    quad = chn.build_covert_channel(chn.stinespring_from_kraus(chn.excitation_channel(0.25)))
    np.testing.assert_allclose(chn.mixed_output(quad, 0.0), quad.omega0, atol=1e-12)
    np.testing.assert_allclose(chn.mixed_output(quad, 1.0), quad.omega1, atol=1e-12)
    np.testing.assert_allclose(chn.mixed_output(quad, 0.2), np.diag([0.8, 0.2]), atol=1e-12)
    with pytest.raises(InvalidParameterError):
        chn.mixed_output(quad, 1.5)


def test_dilation_invariance():
    rng = np.random.default_rng(3)
    V = chn.stinespring_from_kraus(chn.excitation_channel(0.25))
    quad = chn.build_covert_channel(V)
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    u, _ = np.linalg.qr(g)
    V2 = chn.StinespringIsometry(np.kron(np.eye(2), u) @ V.V, 2, 2)
    quad2 = chn.build_covert_channel(V2)
    np.testing.assert_allclose(quad2.sigma0, quad.sigma0, atol=1e-9)
    np.testing.assert_allclose(quad2.sigma1, quad.sigma1, atol=1e-9)
    assert dv.qre(quad2.omega1, quad2.omega0) == pytest.approx(
        dv.qre(quad.omega1, quad.omega0), abs=1e-9
    )
    assert dv.chi_square(quad2.omega1, quad2.omega0) == pytest.approx(
        dv.chi_square(quad.omega1, quad.omega0), abs=1e-9
    )


def test_channel_spec_excitation():
    V = chn.channel_spec_to_stinespring({"kind": "excitation", "gamma": 0.25})
    quad = chn.build_covert_channel(V)
    np.testing.assert_allclose(quad.sigma0, np.diag([0.75, 0.25]), atol=1e-12)


def test_channel_spec_kraus():
    ch = chn.excitation_channel(0.25)
    spec = {"kind": "kraus", "kraus": [op.matrix_to_json(k) for k in ch.kraus]}
    V = chn.channel_spec_to_stinespring(spec)
    np.testing.assert_allclose(
        V.V, chn.stinespring_from_kraus(ch).V, atol=1e-12
    )


def test_channel_spec_cq_pair():
    spec = {
        "kind": "cq-pair",
        "sigma0": op.matrix_to_json(np.diag([0.75, 0.25])),
        "sigma1": op.matrix_to_json(np.diag([0.0, 1.0])),
        "omega0": op.matrix_to_json(np.diag([0.75, 0.25])),
        "omega1": op.matrix_to_json(np.diag([1.0, 0.0])),
    }
    quad = chn.channel_spec_to_quadruple(spec)
    np.testing.assert_allclose(quad.omega1, np.diag([1.0, 0.0]), atol=1e-12)
    with pytest.raises(InvalidParameterError):
        chn.channel_spec_to_stinespring({"kind": "bogus"})


def test_channel_spec_cq_pair_violation():
    spec = {
        "kind": "cq-pair",
        "sigma0": op.matrix_to_json(np.diag([0.75, 0.25])),
        "sigma1": op.matrix_to_json(np.diag([0.0, 1.0])),
        "omega0": op.matrix_to_json(np.diag([1.0, 0.0])),
        "omega1": op.matrix_to_json(np.diag([0.5, 0.5])),
    }
    with pytest.raises(AssumptionViolationError, match=r"^supp\(omega1\)"):
        chn.channel_spec_to_quadruple(spec)
    spec["omega1"] = spec["omega0"]
    with pytest.raises(TrivialTestError):
        chn.channel_spec_to_quadruple(spec)
