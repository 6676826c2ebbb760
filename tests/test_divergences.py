import math

import numpy as np
import pytest

from covertq import divergences as dv
from covertq import operators as op
from covertq.errors import InvalidGammaError, SingularReferenceError


def random_density(rng, d, full_rank=True):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    if full_rank:
        rho = 0.9 * rho + 0.1 * np.eye(d) / d
    return rho


def scalar_kl(p, q):
    return sum(pi * math.log(pi / qi) for pi, qi in zip(p, q) if pi > 0)


def test_qre_identity():
    rng = np.random.default_rng(0)
    rho = random_density(rng, 3)
    assert dv.qre(rho, rho) == pytest.approx(0.0, abs=1e-9)


def test_qre_commuting_oracle():
    # |1><1| vs diag(0.75, 0.25): classical KL of (0,1) against (0.75, 0.25)
    val = dv.qre(np.diag([0.0, 1.0]), np.diag([0.75, 0.25]))
    assert val == pytest.approx(math.log(4.0), abs=1e-12)
    assert val == pytest.approx(scalar_kl([0, 1], [0.75, 0.25]), abs=1e-12)


def test_qre_support_violation():
    assert dv.qre(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])) == math.inf


@pytest.mark.parametrize("p, q", [
    ([0.2, 0.3, 0.5], [0.5, 0.25, 0.25]),
    ([0.0, 1.0, 0.0], [0.5, 0.25, 0.25]),  # entries of p off its support drop out
    ([0.6, 0.4, 0.0], [0.6, 0.4, 0.0]),    # shared zero: finite
    ([0.6, 0.0, 0.4], [0.6, 0.4, 0.0]),    # support violation: inf
])
def test_qre_commuting_matches_qre(p, q):
    assert dv.qre_commuting(p, q) == pytest.approx(dv.qre(np.diag(p), np.diag(q)), abs=1e-12)


def test_qre_additivity():
    rng = np.random.default_rng(1)
    for _ in range(10):
        r1, s1 = random_density(rng, 2), random_density(rng, 2)
        r2, s2 = random_density(rng, 4), random_density(rng, 4)
        lhs = dv.qre(op.tensor(r1, r2), op.tensor(s1, s2))
        assert lhs == pytest.approx(dv.qre(r1, s1) + dv.qre(r2, s2), abs=1e-9)


def test_qre_data_processing():
    rng = np.random.default_rng(2)
    for _ in range(10):
        rho, sig = random_density(rng, 3), random_density(rng, 3)
        # random channel from a Haar-ish isometry with a 3-dim environment
        g = rng.normal(size=(9, 3)) + 1j * rng.normal(size=(9, 3))
        v, _ = np.linalg.qr(g)
        phi_r = op.partial_trace(v @ rho @ v.conj().T, [3, 3], [0])
        phi_s = op.partial_trace(v @ sig @ v.conj().T, [3, 3], [0])
        assert dv.qre(phi_r, phi_s) <= dv.qre(rho, sig) + 1e-9


def test_chi_square_identity():
    rng = np.random.default_rng(3)
    sig = random_density(rng, 3)
    assert dv.chi_square(sig, sig) == pytest.approx(0.0, abs=1e-9)


def test_chi_square_commuting_oracle():
    val = dv.chi_square(np.diag([1.0, 0.0]), np.diag([0.75, 0.25]))
    assert val == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert val == pytest.approx(
        dv.chi_square_commuting([1.0, 0.0], [0.75, 0.25]), abs=1e-12
    )


def test_chi_square_singular_reference():
    with pytest.raises(SingularReferenceError):
        dv.chi_square(np.eye(2) / 2, np.diag([1.0, 0.0]))


def test_chi_square_finite_difference():
    rng = np.random.default_rng(4)
    for _ in range(15):
        rho, sig = random_density(rng, 2), random_density(rng, 2)
        chi2 = dv.chi_square(rho, sig)

        def d_alpha(a):
            return dv.qre(a * rho + (1 - a) * sig, sig)

        def second(h):
            return (d_alpha(h) - 2 * d_alpha(0.0) + d_alpha(-h)) / h**2

        rich = (4 * second(5e-4) - second(1e-3)) / 3
        assert abs(rich - chi2) / chi2 < 1e-4


def test_chi_square_degenerate_reference():
    # maximally mixed reference: one eigenvalue cluster, limit quotient 1/lambda
    rng = np.random.default_rng(5)
    rho = random_density(rng, 2)
    sig = np.eye(2) / 2
    delta = rho - sig
    expected = 2.0 * np.trace(delta @ delta).real
    assert dv.chi_square(rho, sig) == pytest.approx(expected, abs=1e-10)


def test_chi_square_matches_commuting_on_diagonals():
    rng = np.random.default_rng(6)
    for _ in range(10):
        p = rng.dirichlet(np.ones(4))
        q = rng.dirichlet(np.ones(4)) * 0.9 + 0.025
        q /= q.sum()
        assert dv.chi_square(np.diag(p), np.diag(q)) == pytest.approx(
            dv.chi_square_commuting(p, q), abs=1e-10
        )


def test_chi_square_commuting_values():
    assert dv.chi_square_commuting([0.75, 0.25], [0.75, 0.25]) == 0.0
    assert dv.chi_square_commuting([1.0, 0.0], [0.75, 0.25]) == pytest.approx(1 / 3)
    assert dv.chi_square_commuting([0.9, 0.1], [0.75, 0.25]) == pytest.approx(0.12)
    with pytest.raises(SingularReferenceError):
        dv.chi_square_commuting([1.0, 0.0], [1.0, 0.0])


def test_hockey_stick():
    rng = np.random.default_rng(7)
    rho = random_density(rng, 2)
    assert dv.hockey_stick(rho, rho, 1.0) == pytest.approx(0.0, abs=1e-12)
    val = dv.hockey_stick(np.diag([1.0, 0.0]), np.diag([0.75, 0.25]), 1.0)
    assert val == pytest.approx(0.25, abs=1e-12)
    # gamma = 1 equals half trace distance
    sig = random_density(rng, 2)
    assert dv.hockey_stick(rho, sig, 1.0) == pytest.approx(
        0.5 * op.trace_norm(rho - sig), abs=1e-10
    )
    # gamma large enough: no positive eigenvalues
    assert dv.hockey_stick(rho, np.eye(2) / 2, 1e3) == 0.0
    with pytest.raises(InvalidGammaError):
        dv.hockey_stick(rho, sig, 0.5)


def test_petz_renyi():
    rng = np.random.default_rng(8)
    rho = random_density(rng, 2)
    assert dv.petz_renyi(rho, rho, 0.5) == pytest.approx(0.0, abs=1e-9)
    # commuting s=2 case: log sum p^2/q
    val = dv.petz_renyi(np.diag([1.0, 0.0]), np.diag([0.75, 0.25]), 2.0)
    assert val == pytest.approx(math.log(4.0 / 3.0), abs=1e-12)
    # s -> 1 limit approaches qre
    p, q = np.diag([0.6, 0.4]), np.diag([0.3, 0.7])
    assert dv.petz_renyi(p, q, 1.0 + 1e-5) == pytest.approx(dv.qre(p, q), abs=1e-4)
    assert dv.petz_renyi(p, q, 1.0 - 1e-5) == pytest.approx(dv.qre(p, q), abs=1e-4)


def test_phi():
    rng = np.random.default_rng(9)
    ens = dv.CqEnsemble(np.array([0.5, 0.5]), (random_density(rng, 2), random_density(rng, 2)))
    assert dv.phi(0.0, ens) == 0.0
    single = dv.CqEnsemble(np.array([1.0]), (random_density(rng, 2),))
    for s in (-0.05, -0.5, -2.0):
        assert dv.phi(s, single) == pytest.approx(0.0, abs=1e-9)
    # commuting scalar oracle
    w0 = np.diag([0.75, 0.25])
    w1 = np.diag([1.0, 0.0])
    ens = dv.CqEnsemble(np.array([0.75, 0.25]), (w0, w1))
    s = -0.5
    wp = np.diag(0.75 * np.array([0.75, 0.25]) + 0.25 * np.array([1.0, 0.0]))
    probs = [np.diag(w0).real, np.diag(w1).real]
    expected = 0.0
    for p, w in zip([0.75, 0.25], probs):
        expected += p * sum(
            (wi ** (1 - s)) * (wpi**s)
            for wi, wpi in zip(w, np.diag(wp).real)
            if wi > 0
        )
    assert dv.phi(s, ens) == pytest.approx(math.log(expected), abs=1e-10)
    with pytest.raises(ValueError):
        dv.phi(0.5, ens)


def test_helstrom_error():
    rng = np.random.default_rng(10)
    rho = random_density(rng, 2)
    assert dv.helstrom_error(rho, rho) == pytest.approx(0.5)
    assert dv.helstrom_error(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])) == pytest.approx(0.0)
    assert dv.helstrom_error(np.diag([1.0, 0.0]), np.diag([0.75, 0.25])) == pytest.approx(0.375)


def test_pinsker():
    rng = np.random.default_rng(11)
    rho = random_density(rng, 2)
    lhs, rhs, holds = dv.pinsker_check(rho, rho)
    assert lhs == pytest.approx(0.0, abs=1e-9) and holds
    lhs, rhs, holds = dv.pinsker_check(np.diag([0.0, 1.0]), np.diag([0.75, 0.25]))
    assert lhs == pytest.approx(0.75, abs=1e-12)
    assert rhs == pytest.approx(math.sqrt(0.5 * math.log(4.0)), abs=1e-12)
    assert holds
    for _ in range(100):
        a, b = random_density(rng, 2), random_density(rng, 2)
        assert dv.pinsker_check(a, b)[2]


def test_distinct_eigenvalue_count():
    assert dv.distinct_eigenvalue_count(np.eye(2) / 2, 5) == 1
    count = dv.distinct_eigenvalue_count(np.diag([0.8, 0.2]), 3)
    assert count == 4
    assert count <= (3 + 1) ** 2
