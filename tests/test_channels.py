import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from support import excitation_isometry, excitation_quadruple, random_density, random_unitary

from covertq import capacities as cap
from covertq import channels as chn
from covertq import divergences as dv
from covertq import operators as op
from covertq.cli import main
from covertq.errors import (
    AssumptionViolationError,
    DimMismatchError,
    IndexOutOfRangeError,
    InvalidParameterError,
    NotTracePreservingError,
    TrivialTestError,
)


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
    out = ch.apply(random_density(rng, 2, full_rank=False))
    np.testing.assert_allclose(out, np.diag([0.0, 1.0]), atol=1e-12)


def test_excitation_invalid():
    for g in (0.0, -0.1, 1.5):
        with pytest.raises(InvalidParameterError):
            chn.excitation_channel(g)


def test_not_trace_preserving():
    with pytest.raises(NotTracePreservingError):
        chn.KrausChannel((np.eye(2) * 0.5,))


@pytest.mark.parametrize("call, error, match", [
    (lambda: chn.KrausChannel(()), InvalidParameterError, "at least one"),
    (lambda: chn.KrausChannel((np.eye(2), np.eye(3))), DimMismatchError, "one shape"),
    (lambda: chn.build_covert_channel(chn.StinespringIsometry(np.eye(2)[:, :1], 2, 1)), DimMismatchError, "two input symbols"),
], ids=["no-kraus", "kraus-shapes", "one-input-symbol"])
def test_channel_refusals(call, error, match):
    with pytest.raises(error, match=match):
        call()


def loop_stinespring(kraus):
    """V = sum_k K_k (x) |k>_W, row by row (B before W)."""
    dw = len(kraus)
    db, da = kraus[0].shape
    v = np.zeros((db * dw, da), dtype=complex)
    for k, kr in enumerate(kraus):
        for b in range(db):
            v[b * dw + k, :] = kr[b, :]
    return v


def test_channel_stacks_match_single_channels():
    gammas = np.linspace(0.01, 1.0, 7)
    ch = chn.excitation_channel(gammas)
    assert [k.shape for k in ch.kraus] == [(7, 2, 2)] * 2
    assert (ch.in_dim, ch.out_dim) == (2, 2)
    V = chn.stinespring_from_kraus(ch)
    assert V.V.shape == (7, 4, 2) and V.in_dim == 2
    for i, g in enumerate(gammas):
        single = chn.excitation_channel(float(g))
        for stacked, k in zip(ch.kraus, single.kraus):
            assert np.array_equal(stacked[i], k)
        assert np.array_equal(V.V[i], loop_stinespring(single.kraus))
        assert np.array_equal(V.V[i], chn.stinespring_from_kraus(single).V)
    rho = random_density(np.random.default_rng(4), 2, full_rank=False)
    np.testing.assert_allclose(ch.apply(rho)[3], chn.excitation_channel(float(gammas[3])).apply(rho), atol=1e-15)
    # a non-square channel with three Kraus operators
    kraus = random_kraus_channel(np.random.default_rng(8), 2, 3, 3).kraus
    assert np.array_equal(chn.stinespring_from_kraus(chn.KrausChannel(kraus)).V, loop_stinespring(kraus))


def test_channel_stacks_name_the_failing_element():
    with pytest.raises(InvalidParameterError, match=r"^gamma must lie in \(0, 1\], got 1.5$"):
        chn.excitation_channel(1.5)
    with pytest.raises(InvalidParameterError, match=r"^stack element 1: gamma must lie in \(0, 1\], got 1.5$"):
        chn.excitation_channel(np.array([0.2, 1.5, 0.0]))
    half = np.stack([np.eye(2), np.eye(2) * 0.5, np.eye(2) * 0.5])
    with pytest.raises(NotTracePreservingError, match=r"^sum K\^dag K differs from identity$"):
        chn.KrausChannel((half[1],))
    with pytest.raises(NotTracePreservingError, match=r"^stack element 1: sum K\^dag K"):
        chn.KrausChannel((half,))
    v = excitation_isometry(np.array([0.2, 0.3, 0.4])).V.copy()
    v[2, 0, 0] = 2.0
    with pytest.raises(NotTracePreservingError, match=r"^stack element 2: V\^dag V differs from identity$"):
        chn.StinespringIsometry(v, 2, 2)
    with pytest.raises(NotTracePreservingError, match=r"^V\^dag V differs from identity$"):
        chn.StinespringIsometry(v[2], 2, 2)
    with pytest.raises(DimMismatchError):
        chn.StinespringIsometry(v, 2, 3)


def test_kraus_built_isometry_is_checked_once(monkeypatch):
    calls = []
    check = chn._check_isometry
    monkeypatch.setattr(chn, "_check_isometry", lambda v, message: calls.append(message) or check(v, message))
    gammas = np.linspace(0.1, 0.9, 5)
    V = excitation_isometry(gammas)
    assert calls == ["V^dag V differs from identity"]
    assert V.V.shape == (5, 4, 2)


def test_stinespring_identity():
    V = chn.stinespring_from_kraus(chn.KrausChannel((np.eye(2),)))
    assert V.out_dim_w == 1
    np.testing.assert_allclose(V.V, np.eye(2), atol=1e-15)


def test_stinespring_excitation_isometry():
    V = excitation_isometry(0.25)
    assert V.V.shape == (4, 2)
    np.testing.assert_allclose(V.V.conj().T @ V.V, np.eye(2), atol=1e-12)


def test_stinespring_kraus_equivalence():
    rng = np.random.default_rng(1)
    for _ in range(10):
        ch = random_kraus_channel(rng, 3, 2, 3)
        V = chn.stinespring_from_kraus(ch)
        rho = random_density(rng, 3, full_rank=False)
        joint = V.V @ rho @ V.V.conj().T
        dB, dW = V.out_dim_b, V.out_dim_w
        reduced = np.einsum("ikjk->ij", joint.reshape(dB, dW, dB, dW))  # trace out W
        np.testing.assert_allclose(reduced, ch.apply(rho), atol=1e-10)


def test_marginal_outputs_excitation():
    gamma = 0.25
    V = excitation_isometry(gamma)
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
    V = excitation_isometry(0.25)
    quad = chn.build_covert_channel(V)
    assert np.linalg.eigvalsh(quad.omega0).min() > 0


def test_build_covert_channel_violation():
    V = excitation_isometry(1.0)
    with pytest.raises(AssumptionViolationError):
        chn.build_covert_channel(V)


def test_build_covert_channel_trivial():
    V = chn.stinespring_from_kraus(chn.KrausChannel((np.eye(2),)))
    with pytest.raises(TrivialTestError):
        chn.build_covert_channel(V)


def test_mixed_output():
    quad = excitation_quadruple(0.25)
    np.testing.assert_allclose(chn.mixed_output(quad, 0.0), quad.omega0, atol=1e-12)
    np.testing.assert_allclose(chn.mixed_output(quad, 1.0), quad.omega1, atol=1e-12)
    np.testing.assert_allclose(chn.mixed_output(quad, 0.2), np.diag([0.8, 0.2]), atol=1e-12)
    with pytest.raises(InvalidParameterError):
        chn.mixed_output(quad, 1.5)


def test_dilation_invariance():
    rng = np.random.default_rng(3)
    V = excitation_isometry(0.25)
    quad = chn.build_covert_channel(V)
    V2 = chn.StinespringIsometry(np.kron(np.eye(2), random_unitary(rng, 2)) @ V.V, 2, 2)
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


def test_quadruple_fields_read_only_and_replace_starts_empty():
    quad = excitation_quadruple(0.25)
    for name in ("sigma0", "sigma1", "omega0", "omega1"):
        with pytest.raises(ValueError):
            getattr(quad, name)[0, 0] = 0.5
    assert quad.cached("key", lambda: 1) == 1
    assert quad.cached("key", lambda: 2) == 1  # kept from the first call
    other = replace(quad, omega1=np.diag([0.9, 0.1]))
    assert other.cached("key", lambda: 2) == 2
    assert quad.cached("key", lambda: 3) == 1
    assert "_cache" not in repr(other)


# isometries outside the covert setting, one per check, each with qubits B and W; |x>_B |0>_W and |x>_B |x>_W
# also break supp(sigma1) in supp(sigma0), and the first failing check in the constructor's order is the one named
OUTSIDE_THE_SETTING = {
    "trivial-warden": (np.eye(4)[:, [0, 2]], TrivialTestError, "warden outputs coincide; detection test is vacuous"),
    "sigma-support": (np.eye(4)[:, [0, 3]], AssumptionViolationError, "supp(sigma1) not contained in supp(sigma0)"),
    "omega-support": (excitation_isometry(1.0).V, AssumptionViolationError, "supp(omega1) not contained in supp(omega0)"),
}


@pytest.mark.parametrize("case", OUTSIDE_THE_SETTING)
def test_every_construction_path_checks_the_covert_setting(case, tmp_path, capsys):
    matrix, error, message = OUTSIDE_THE_SETTING[case]
    V = chn.StinespringIsometry(matrix, 2, 2)
    sigma, omega = chn._marginals(V.V, 2, 2, (0, 1))
    states = dict(sigma0=sigma[0], sigma1=sigma[1], omega0=omega[0], omega1=omega[1])
    spec = {"kind": "cq-pair", **{name: op.matrix_to_json(m) for name, m in states.items()}}
    for make in (
        lambda: chn.BinaryCovertChannel(**states),
        lambda: replace(excitation_quadruple(0.25), **states),
        lambda: chn.build_covert_channel(V),
        lambda: chn.channel_spec_to_quadruple(spec),
        lambda: cap.capacity_report(V),
    ):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            make()
    # stacked rates name the lowest failing channel
    with pytest.raises(error, match=f"^stack element 1: {re.escape(message)}$"):
        cap.capacity_reports([excitation_isometry(0.2), V, V, excitation_isometry(0.3)])
    # the command line reads a spec through the same check: exit 4 and the check's text
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    for argv in (["validate", str(path)], ["capacity", str(path)], ["simulate", str(path), "--n", "2", "--gamma", "0.5"]):
        assert main(argv) == 4
        assert capsys.readouterr() == ("", f"assumption violation: {message}\n")
