import numpy as np
import pytest

from covertq import operators as op
from covertq.errors import DimMismatchError, NotHermitianError


def random_density(rng, d, full_rank=True):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    if full_rank:
        rho = 0.9 * rho + 0.1 * np.eye(d) / d
    return rho


def test_spectral_decompose_identity():
    sd = op.spectral_decompose(np.eye(2))
    assert len(sd.eigenvalues) == 1
    assert sd.eigenvalues[0] == pytest.approx(1.0)
    np.testing.assert_allclose(sd.projectors[0], np.eye(2), atol=1e-12)


def test_spectral_decompose_diagonal():
    sd = op.spectral_decompose(np.diag([0.75, 0.25]))
    assert sd.eigenvalues == pytest.approx((0.75, 0.25))
    np.testing.assert_allclose(sd.projectors[0], np.diag([1.0, 0.0]), atol=1e-12)
    np.testing.assert_allclose(sd.projectors[1], np.diag([0.0, 1.0]), atol=1e-12)


def test_spectral_decompose_rotated():
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    m = h @ np.diag([0.75, 0.25]) @ h.conj().T
    sd = op.spectral_decompose(m)
    assert sd.eigenvalues == pytest.approx((0.75, 0.25))
    np.testing.assert_allclose(
        sd.projectors[0], np.outer(h[:, 0], h[:, 0].conj()), atol=1e-12
    )


def test_spectral_reconstruct_random():
    rng = np.random.default_rng(3)
    for _ in range(20):
        m = random_density(rng, 4)
        sd = op.spectral_decompose(m)
        np.testing.assert_allclose(sd.reconstruct(), m, atol=1e-9)
        # projector family: orthogonal, idempotent, complete
        total = np.zeros((4, 4), dtype=complex)
        for i, p in enumerate(sd.projectors):
            total += p
            np.testing.assert_allclose(p @ p, p, atol=1e-9)
            for q in sd.projectors[i + 1:]:
                np.testing.assert_allclose(p @ q, 0.0 * p, atol=1e-9)
        np.testing.assert_allclose(total, np.eye(4), atol=1e-9)


def test_spectral_not_hermitian():
    with pytest.raises(NotHermitianError):
        op.spectral_decompose(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_tensor():
    np.testing.assert_allclose(op.tensor(np.eye(2), np.eye(2)), np.eye(4))
    np.testing.assert_allclose(
        op.tensor(np.diag([2.0, 3.0]), np.diag([5.0, 7.0])),
        np.diag([10.0, 14.0, 15.0, 21.0]),
    )
    p0 = np.diag([1.0, 0.0])
    p1 = np.diag([0.0, 1.0])
    expected = np.zeros((4, 4))
    expected[1, 1] = 1.0
    np.testing.assert_allclose(op.tensor(p0, p1), expected)


def test_partial_trace_product():
    rng = np.random.default_rng(4)
    a = random_density(rng, 2)
    b = random_density(rng, 3)
    joint = op.tensor(a, b)
    np.testing.assert_allclose(op.partial_trace(joint, [2, 3], [0]), a, atol=1e-12)
    np.testing.assert_allclose(op.partial_trace(joint, [2, 3], [1]), b, atol=1e-12)


def test_partial_trace_entangled():
    phi = np.zeros(4)
    phi[0] = phi[3] = 1 / np.sqrt(2)
    rho = np.outer(phi, phi)
    np.testing.assert_allclose(op.partial_trace(rho, [2, 2], [0]), np.eye(2) / 2, atol=1e-12)


def test_partial_trace_basis():
    v = np.zeros(4)
    v[1] = 1.0  # |01>
    rho = np.outer(v, v)
    np.testing.assert_allclose(op.partial_trace(rho, [2, 2], [1]), np.diag([0.0, 1.0]), atol=1e-12)


def test_partial_trace_dim_mismatch():
    with pytest.raises(DimMismatchError):
        op.partial_trace(np.eye(4) / 4, [2, 3], [0])


def test_trace_norm():
    assert op.trace_norm(np.diag([0.25, -0.25])) == pytest.approx(0.5)
    rng = np.random.default_rng(5)
    assert op.trace_norm(random_density(rng, 3)) == pytest.approx(1.0)
    assert op.trace_norm(np.diag([1.0, -1.0])) == pytest.approx(2.0)


def test_fidelity():
    rng = np.random.default_rng(6)
    rho = random_density(rng, 2)
    assert op.fidelity(rho, rho) == pytest.approx(1.0)
    assert op.fidelity(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])) == pytest.approx(0.0, abs=1e-12)
    assert op.fidelity(np.diag([1.0, 0.0]), np.diag([0.75, 0.25])) == pytest.approx(0.75)
    with pytest.raises(DimMismatchError):
        op.fidelity(np.eye(2) / 2, np.eye(3) / 3)


def test_fuchs_van_de_graaf():
    rng = np.random.default_rng(7)
    for _ in range(30):
        rho = random_density(rng, 3)
        sig = random_density(rng, 3)
        f = op.fidelity(rho, sig)
        half_dist = 0.5 * op.trace_norm(rho - sig)
        assert 1 - np.sqrt(f) <= half_dist + 1e-9
        assert half_dist <= np.sqrt(1 - f) + 1e-9


def test_nonneg_eigenspace_projector():
    np.testing.assert_allclose(
        op.nonneg_eigenspace_projector(np.diag([1.0, -1.0])), np.diag([1.0, 0.0]), atol=1e-12
    )
    rng = np.random.default_rng(8)
    psd = random_density(rng, 3)
    np.testing.assert_allclose(op.nonneg_eigenspace_projector(psd), np.eye(3), atol=1e-9)
    np.testing.assert_allclose(
        op.nonneg_eigenspace_projector(np.diag([0.3, 0.0, -0.3])),
        np.diag([1.0, 1.0, 0.0]),
        atol=1e-12,
    )


def test_pinching():
    # commuting input unchanged
    p = np.diag([0.75, 0.25])
    q = np.diag([0.3, 0.9])
    np.testing.assert_allclose(op.pinching(q, p), q, atol=1e-12)
    # identity reference leaves everything unchanged
    rng = np.random.default_rng(9)
    m = random_density(rng, 2)
    np.testing.assert_allclose(op.pinching(m, np.eye(2)), m, atol=1e-12)
    # nondegenerate diagonal reference kills off-diagonals
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    np.testing.assert_allclose(op.pinching(sx, p), np.zeros((2, 2)), atol=1e-12)


def test_pinching_trace_and_positivity():
    rng = np.random.default_rng(10)
    for _ in range(10):
        q = random_density(rng, 3)
        p = random_density(rng, 3)
        out = op.pinching(q, p)
        assert np.trace(out).real == pytest.approx(1.0)
        assert np.linalg.eigvalsh(out).min() > -1e-9
        ref = op.spectral_decompose(p).reconstruct()
        np.testing.assert_allclose(out @ ref, ref @ out, atol=1e-8)


def test_standard_unitaries_qubit():
    u = op.standard_unitaries(2)
    np.testing.assert_allclose(u["shift_x"], np.array([[0, 1], [1, 0]]), atol=1e-12)
    np.testing.assert_allclose(u["fourier"], np.array([[1, 1], [1, -1]]) / np.sqrt(2), atol=1e-12)
    v10 = np.zeros(4)
    v10[2] = 1.0  # |10>
    out = u["cnot"] @ v10
    expected = np.zeros(4)
    expected[3] = 1.0  # |11>
    np.testing.assert_allclose(out, expected, atol=1e-12)


def test_standard_unitaries_qudit():
    for d in (2, 3, 5):
        us = op.standard_unitaries(d)
        for name, u in us.items():
            np.testing.assert_allclose(u.conj().T @ u, np.eye(u.shape[0]), atol=1e-12, err_msg=name)
        x, z = us["shift_x"], us["phase_z"]
        for j in range(d):
            np.testing.assert_allclose(x @ op.ket(j, d), op.ket((j + 1) % d, d), atol=1e-12)
            np.testing.assert_allclose(
                z @ op.ket(j, d), np.exp(2j * np.pi * j / d) * op.ket(j, d), atol=1e-12
            )


def test_canonical_purification():
    rng = np.random.default_rng(11)
    rho = random_density(rng, 3)
    pur = op.canonical_purification(rho)
    assert np.linalg.norm(pur) == pytest.approx(1.0)
    np.testing.assert_allclose(op.partial_trace_vector(pur, [3, 3], [0]), rho, atol=1e-9)


def test_permute_operator_roundtrip():
    rng = np.random.default_rng(12)
    a, b = random_density(rng, 2), random_density(rng, 3)
    joint = op.tensor(a, b)
    swapped = op.permute_operator(joint, [2, 3], [1, 0])
    np.testing.assert_allclose(swapped, op.tensor(b, a), atol=1e-12)


def test_json_roundtrip():
    rng = np.random.default_rng(13)
    m = random_density(rng, 3)
    np.testing.assert_allclose(op.matrix_from_json(op.matrix_to_json(m)), m, atol=0)


def test_single_matrix_functions_reject_stacks():
    stack = np.array([np.eye(2), np.eye(2)]) / 2
    for fn in (op.tensor, op.sqrtm_psd, op.check_density, op.spectral_decompose, op.matrix_to_json):
        with pytest.raises(DimMismatchError):
            fn(stack)
    with pytest.raises(DimMismatchError):
        op.partial_trace(stack, [2], [0])
    # the stack-aware primitives take it
    assert op.trace_norm(stack).tolist() == [1.0, 1.0]
    assert op.support_contained(stack, stack).tolist() == [True, True]
