import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from covertq import divergences as dv
from covertq import operators as op
from covertq.errors import InvalidGammaError, NotHermitianError, SingularReferenceError
from covertq.operators import DEFAULT_TOL


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


# ---- stacked kernels against the per-element loop formulas they replaced


def loop_qre(rho, sigma, tol=DEFAULT_TOL):
    rvals, rvecs = np.linalg.eigh(rho)
    svals, svecs = np.linalg.eigh(sigma)
    rvals = np.clip(rvals, 0.0, None)
    overlap = np.abs(rvecs.conj().T @ svecs) ** 2
    total = 0.0
    for i, lam in enumerate(rvals):
        if lam <= tol.support:
            continue
        total += lam * math.log(lam)
        for j, mu in enumerate(svals):
            w = overlap[i, j]
            if w <= 0.0:
                continue
            if mu <= tol.support:
                if lam * w > tol.support:
                    return math.inf
                continue
            total -= lam * w * math.log(mu)
    return max(total, 0.0)


def loop_chi_square(rho, sigma, tol=DEFAULT_TOL):
    sd = op.spectral_decompose(sigma, tol)
    delta = rho - sigma
    total = 0.0
    for i, (li, pi) in enumerate(zip(sd.eigenvalues, sd.projectors)):
        for j, (lj, pj) in enumerate(zip(sd.eigenvalues, sd.projectors)):
            weight = np.trace(delta @ pi @ delta @ pj).real
            if i == j or abs(li - lj) < tol.cluster:
                total += weight / li
            else:
                total += weight * (math.log(li) - math.log(lj)) / (li - lj)
    return max(total, 0.0)


def loop_trace_norm(a):
    return float(np.sum(np.linalg.svd(a, compute_uv=False)))


def loop_support_contained(inner, outer, tol=DEFAULT_TOL):
    vals, vecs = np.linalg.eigh(outer)
    cols = vecs[:, vals > tol.support]
    proj = cols @ cols.conj().T
    vals, vecs = np.linalg.eigh(inner)
    for lam, vec in zip(vals, vecs.T):
        if lam > tol.support and np.linalg.norm(vec - proj @ vec) >= np.sqrt(tol.support):
            return False
    return True


def random_unitary(rng, d):
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def rotated(unitary, spectrum):
    return (unitary * spectrum) @ unitary.conj().T


@st.composite
def spectra(draw, d, full_rank):
    """Integer weights, so repeated eigenvalues and zeros are common."""
    w = np.array(draw(st.lists(st.integers(1 if full_rank else 0, 3), min_size=d, max_size=d)), dtype=float)
    assume(w.sum() > 0)
    return w / w.sum()


@st.composite
def stacked_states(draw):
    """(rho, sigma, sigma_full): stacks of N density matrices of side d.

    rho may be rank-deficient; sigma may be too, and shares rho's eigenbasis
    in some elements so that finite values with a singular sigma occur;
    sigma_full is full rank with repeated eigenvalues allowed.
    """
    d = draw(st.sampled_from([2, 3]))
    size = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rhos, sigmas, fulls = [], [], []
    for _ in range(size):
        u = random_unitary(rng, d)
        v = u if draw(st.booleans()) else random_unitary(rng, d)
        rhos.append(rotated(u, draw(spectra(d, False))))
        sigmas.append(rotated(v, draw(spectra(d, False))))
        fulls.append(rotated(random_unitary(rng, d), draw(spectra(d, True))))
    return np.array(rhos), np.array(sigmas), np.array(fulls)


def assert_matches(got, want):
    assert got.shape == (len(want),)
    for g, w in zip(got, want):
        if math.isinf(w):
            assert g == w
        else:
            assert abs(g - w) <= 1e-12 * max(1.0, abs(w))


@settings(max_examples=60, deadline=None)
@given(stacked_states())
def test_stacked_kernels_match_loop_formulas(states):
    rho, sigma, full = states
    assert_matches(dv.qre(rho, sigma), [loop_qre(r, s) for r, s in zip(rho, sigma)])
    assert_matches(dv.qre(rho, full), [loop_qre(r, s) for r, s in zip(rho, full)])
    assert_matches(dv.chi_square(rho, full), [loop_chi_square(r, s) for r, s in zip(rho, full)])
    assert_matches(op.trace_norm(rho - sigma), [loop_trace_norm(r - s) for r, s in zip(rho, sigma)])
    contained = op.support_contained(rho, sigma)
    assert contained.tolist() == [loop_support_contained(r, s) for r, s in zip(rho, sigma)]
    # the other two-state divergences: every stack element equals its own 2-D call
    for fn in (lambda r, s: dv.hockey_stick(r, s, 1.5), lambda r, s: dv.petz_renyi(r, s, 0.5),
               lambda r, s: dv.petz_renyi(r, s, 2.0), dv.helstrom_error):
        assert_matches(fn(rho, sigma), [fn(r, s) for r, s in zip(rho, sigma)])
    # a 2-D input is the one-element case and returns a plain scalar
    assert_matches(np.array([dv.qre(rho[0], sigma[0])]), [loop_qre(rho[0], sigma[0])])
    assert type(dv.qre(rho[0], full[0])) is float
    assert type(dv.chi_square(rho[0], full[0])) is float
    assert type(op.trace_norm(rho[0] - sigma[0])) is float
    assert type(op.support_contained(rho[0], sigma[0])) is bool


@settings(max_examples=30, deadline=None)
@given(stacked_states(), st.data())
def test_stacked_qre_isolates_support_violation(states, data):
    rho, _, full = states
    d, size = rho.shape[-1], len(rho)
    k = data.draw(st.integers(0, size - 1))
    # element k: rho is pure on a vector that sigma's support misses
    u = random_unitary(np.random.default_rng(k), d)
    full[k] = rotated(u, np.r_[np.zeros(1), np.full(d - 1, 1.0 / (d - 1))])
    rho[k] = rotated(u, np.r_[np.ones(1), np.zeros(d - 1)])
    values = dv.qre(rho, full)
    assert values[k] == math.inf
    assert all(math.isfinite(v) for i, v in enumerate(values) if i != k)
    assert_matches(values, [loop_qre(r, s) for r, s in zip(rho, full)])
    assert op.support_contained(rho, full).tolist() == [i != k for i in range(size)]


def test_stacked_errors_name_the_element():
    good = np.diag([0.75, 0.25]).astype(complex)
    with pytest.raises(SingularReferenceError, match="stack element 1"):
        dv.chi_square(np.array([good, good]), np.array([good, np.diag([1.0, 0.0])]))
    with pytest.raises(SingularReferenceError, match="^chi-square"):
        dv.chi_square(good, np.diag([1.0, 0.0]))
    with pytest.raises(NotHermitianError, match="stack element 2"):
        op.check_hermitian(np.array([good, good, [[0.5, 1.0], [0.0, 0.5]]]))
