import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from support import dense_trace_norm, excitation_quadruple, kron_chain, near_edge_pairs, random_density, random_unitary, rotated

from covertq import channels as chn
from covertq import covert_sim as cs
from covertq import divergences as dv
from covertq import operators as op
from covertq.cli import main
from covertq.errors import (
    AssumptionViolationError, DimMismatchError, InvalidGammaError, NotHermitianError, SingularReferenceError,
)
from covertq.operators import DEFAULT_TOL


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
    # a probability vector against a letter's eigenvalues, one letter long
    assert dv.qre_to_power(p, q, 1) == pytest.approx(dv.qre(np.diag(p), np.diag(q)), abs=1e-12)


@pytest.mark.parametrize("d, n", [(2, 1), (2, 3), (3, 2), (2, 5)])
def test_qre_to_power_matches_qre_against_the_dense_power(d, n):
    # any state, not only a product or a codebook average: its marginals carry the cross term
    rng = np.random.default_rng(10 * d + n)
    rho, letter = random_density(rng, d**n), random_density(rng, d)
    want = dv.qre(rho, op.tensor_power(letter, n))
    assert dv.qre_to_power(rho, letter, n) == pytest.approx(want, rel=1e-12, abs=1e-12)
    # on the vector route: rho's diagonal in the letter's (diagonal) product eigenbasis
    diag, letters = np.diag(rho).real, np.diag(letter).real
    want = dv.qre(np.diag(diag), np.diag(kron_chain([0] * n, [letters])))
    assert dv.qre_to_power(diag, letters, n) == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_qre_to_power_support_test_is_single_letter():
    letter = np.diag([0.7, 0.3, 0.0])
    inside = np.kron(np.diag([0.5, 0.5, 0.0]), np.diag([0.1, 0.9, 0.0]))
    assert dv.qre_to_power(inside, letter, 2) == pytest.approx(dv.qre(inside, np.kron(letter, letter)), abs=1e-12)
    # weight 1e-6 of the second marginal off supp(letter): inf, on either route
    outside = np.kron(np.diag([0.5, 0.5, 0.0]), np.diag([0.1, 0.9 - 1e-6, 1e-6]))
    assert dv.qre_to_power(outside, letter, 2) == math.inf
    assert dv.qre_to_power(np.diag(outside).real, np.diag(letter), 2) == math.inf
    # and an eigenvalue of letter^(x)n far below any fixed tolerance is still inside: (1e-3)^6 = 1e-18
    letter = np.diag([1.0 - 1e-3, 1e-3])
    p = kron_chain([0] * 6, [np.array([0.5, 0.5])])
    want = float(np.sum(p * np.log(p / kron_chain([0] * 6, [np.diag(letter)]))))
    assert dv.qre_to_power(p, np.diag(letter), 6) == pytest.approx(want, rel=1e-12)
    assert dv.qre_to_power(np.diag(p), letter, 6) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("rho, letter, n", [
    (np.ones(8) / 8, np.ones(2) / 2, 2),           # a vector of the wrong length
    (np.eye(4) / 4, np.ones(2) / 2, 2),            # a matrix against eigenvalues
    (np.ones(4) / 4, np.eye(2) / 2, 2),            # a vector against a matrix
    (np.ones((2, 2, 2)) / 8, np.eye(2) / 2, 1),    # a stack
])
def test_qre_to_power_refuses_mismatched_shapes(rho, letter, n):
    with pytest.raises(DimMismatchError):
        dv.qre_to_power(rho, letter, n)


def test_qre_additivity():
    rng = np.random.default_rng(1)
    for _ in range(10):
        r1, s1 = random_density(rng, 2), random_density(rng, 2)
        r2, s2 = random_density(rng, 4), random_density(rng, 4)
        lhs = dv.qre(np.kron(r1, r2), np.kron(s1, s2))
        assert lhs == pytest.approx(dv.qre(r1, s1) + dv.qre(r2, s2), abs=1e-9)


def test_qre_data_processing():
    rng = np.random.default_rng(2)
    for _ in range(10):
        rho, sig = random_density(rng, 3), random_density(rng, 3)
        # random channel from a Haar-ish isometry with a 3-dim environment
        g = rng.normal(size=(9, 3)) + 1j * rng.normal(size=(9, 3))
        v, _ = np.linalg.qr(g)
        # trace out the environment, the second factor of the 9-dim output
        phi_r = np.einsum("ikjk->ij", (v @ rho @ v.conj().T).reshape(3, 3, 3, 3))
        phi_s = np.einsum("ikjk->ij", (v @ sig @ v.conj().T).reshape(3, 3, 3, 3))
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
    # both forms refuse a reference eigenvalue at or below the support tolerance, and take one above it
    for low in (DEFAULT_TOL.support, 0.5 * DEFAULT_TOL.support):
        for chi2 in (lambda p, q: dv.chi_square(np.diag(p), np.diag(q)), dv.chi_square_commuting):
            with pytest.raises(SingularReferenceError):
                chi2([0.5, 0.5], [1.0 - low, low])
    q = [1.0 - 2 * DEFAULT_TOL.support, 2 * DEFAULT_TOL.support]
    assert dv.chi_square(np.diag([0.5, 0.5]), np.diag(q)) == pytest.approx(dv.chi_square_commuting([0.5, 0.5], q), rel=1e-12)


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


def test_petz_renyi_order_zero_is_the_support_projector():
    # rho^0 is Pi_rho, so order 0 is -log tr[Pi_rho sigma], the limit s -> 0+
    rho, sigma = np.diag([1.0, 0.0]), np.eye(2) / 2
    assert dv.petz_renyi(rho, sigma, 0.0) == pytest.approx(math.log(2.0), abs=1e-12)
    assert dv.petz_renyi(rho, sigma, 0.0) == pytest.approx(dv.petz_renyi(rho, sigma, 1e-9), abs=1e-8)
    rng = np.random.default_rng(3)
    u = random_unitary(rng, 3)
    pure = rotated(u, np.array([0.0, 0.0, 1.0]))
    full = random_density(rng, 3)
    want = -math.log(np.trace(pure @ full).real)
    assert dv.petz_renyi(pure, full, 0.0) == pytest.approx(want, abs=1e-12)
    assert dv.petz_renyi(pure, full, 0.0) == pytest.approx(dv.petz_renyi(pure, full, 1e-9), abs=1e-8)
    # a full-rank rho has Pi_rho = I
    assert dv.petz_renyi(random_density(rng, 3), full, 0.0) == pytest.approx(0.0, abs=1e-12)


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


def test_phi_array_matches_scalar_calls():
    rng = np.random.default_rng(4)
    states = (random_density(rng, 3), random_density(rng, 3, full_rank=False), np.diag([0.5, 0.5, 0.0]))
    ens = dv.CqEnsemble(np.array([0.5, 0.3, 0.2]), states)
    grid = np.array([[-2.0, -1.0, -0.5], [-0.1, -0.05, 0.0]])
    got = dv.phi(grid, ens)
    assert isinstance(got, np.ndarray) and got.shape == grid.shape
    want = np.array([[dv.phi(float(s), ens) for s in row] for row in grid])
    assert all(isinstance(dv.phi(float(s), ens), float) for s in grid.ravel())
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
    assert got[1, 2] == 0.0
    with pytest.raises(ValueError):
        dv.phi(np.array([-0.5, 0.5]), ens)


def test_petz_renyi_and_phi_decompose_each_state_once(monkeypatch):
    # petz_renyi's support test at s > 1 reads the overlap its trace formed, and phi
    # decomposes the average state once per call, not once per ensemble state
    rng = np.random.default_rng(6)
    states = (random_density(rng, 3), random_density(rng, 3, full_rank=False), random_density(rng, 3))
    eigh, calls = op._eigh, []
    monkeypatch.setattr(op, "_eigh", lambda h: calls.append(h) or eigh(h))
    for s in (0.5, 2.0):
        calls.clear()
        dv.petz_renyi(states[1], states[0], s)
        assert len(calls) == 2
    calls.clear()
    dv.phi(np.array([-1.0, -0.5]), dv.CqEnsemble(np.array([0.2, 0.5, 0.3]), states))
    assert len(calls) == 4


@pytest.mark.parametrize("call, error", [
    (lambda r, s, e: dv.hockey_stick(r, s, math.nan), InvalidGammaError),
    (lambda r, s, e: dv.hockey_stick(r, s, math.inf), InvalidGammaError),
    (lambda r, s, e: dv.petz_renyi(r, s, math.nan), ValueError),
    (lambda r, s, e: dv.petz_renyi(r, s, math.inf), ValueError),
    (lambda r, s, e: dv.petz_renyi(r, s, -math.inf), ValueError),
    (lambda r, s, e: dv.petz_renyi(r, s, -0.5), ValueError),
    (lambda r, s, e: dv.phi(math.nan, e), ValueError),
    (lambda r, s, e: dv.phi(-math.inf, e), ValueError),
    (lambda r, s, e: dv.phi(np.array([-0.5, math.nan]), e), ValueError),
], ids=["hockey-nan", "hockey-inf", "petz-nan", "petz-inf", "petz-minus-inf", "petz-negative",
        "phi-nan", "phi-minus-inf", "phi-array-nan"])
def test_non_finite_parameters_raise(call, error):
    # NaN fails every range comparison, so a check written as "x < bound" lets it through
    rho, sigma = np.diag([0.75, 0.25]), np.diag([0.5, 0.5])
    ens = dv.CqEnsemble(np.array([0.5, 0.5]), (rho, sigma))
    with pytest.raises(error):
        call(rho, sigma, ens)


@pytest.mark.parametrize("call, error, match", [
    (lambda: dv.qre(np.eye(2) / 2, np.eye(3) / 3), DimMismatchError, "dims 2 vs 3"),
    (lambda: dv.qre(np.eye(2) / 2, np.array([np.eye(2) / 2] * 2)), DimMismatchError, "stack shapes"),
    (lambda: dv.chi_square_commuting([0.5, 0.5], [1.0]), DimMismatchError, "lengths"),
    (lambda: dv.petz_renyi(np.eye(2) / 2, np.eye(2) / 2, 1.0), ValueError, "qre limit"),
    (lambda: dv.CqEnsemble(np.array([0.5, 0.6]), (np.eye(2) / 2,) * 2), ValueError, "sum to 1"),
    (lambda: dv.CqEnsemble(np.array([0.5, 0.5]), (np.eye(2) / 2,)), DimMismatchError, "one state per"),
], ids=["pair-dims", "pair-stack-shapes", "commuting-lengths", "petz-order-one", "ensemble-probs", "ensemble-states"])
def test_malformed_divergence_inputs_raise(call, error, match):
    with pytest.raises(error, match=match):
        call()


_QUADRUPLE = dict(sigma0=np.diag([0.75, 0.25]), sigma1=np.diag([0.4, 0.6]), omega0=np.diag([0.75, 0.25]), omega1=np.diag([0.5, 0.5]))
_HALF, _THIRD = np.eye(2) / 2, np.eye(3) / 3

# every entry point that takes a pair of states refuses two of different dimension or stack shape, by the one rule
# operators._checked_pair; the warden-dims, stacked-warden and ensemble cases raised numpy's ValueError before it
PAIR_REFUSALS = {
    "qre": (lambda: dv.qre(_HALF, _THIRD), "dims 2 vs 3"),
    "chi_square": (lambda: dv.chi_square(_HALF, _THIRD), "dims 2 vs 3"),
    "hockey_stick": (lambda: dv.hockey_stick(_HALF, _THIRD, 1.5), "dims 2 vs 3"),
    "petz_renyi": (lambda: dv.petz_renyi(_HALF, _THIRD, 0.5), "dims 2 vs 3"),
    "helstrom_error": (lambda: dv.helstrom_error(_HALF, _THIRD), "dims 2 vs 3"),
    "support_contained": (lambda: op.support_contained(_HALF, _THIRD), "dims 2 vs 3"),
    "fidelity": (lambda: op.fidelity(_HALF, _THIRD), "dims 2 vs 3"),
    "quadruple-warden-dims": (lambda: chn.BinaryCovertChannel(**dict(_QUADRUPLE, omega0=np.diag([0.5, 0.25, 0.25]))),
                              "dims 2 vs 3"),
    "quadruple-receiver-dims": (lambda: chn.BinaryCovertChannel(**dict(_QUADRUPLE, sigma0=_THIRD)), "dims 2 vs 3"),
    "quadruple-2d-beside-stack": (lambda: chn.BinaryCovertChannel(
        _QUADRUPLE["sigma0"], _QUADRUPLE["sigma1"], *(np.array([_QUADRUPLE[name]] * 2) for name in ("omega0", "omega1"))),
        r"stack shapes \(\) vs \(2,\)"),
    "quadruple-3-beside-2": (lambda: chn.BinaryCovertChannel(
        *(np.array([_QUADRUPLE[name]] * (3 if name[0] == "s" else 2)) for name in _QUADRUPLE)),
        r"stack shapes \(3,\) vs \(2,\)"),
    "ensemble": (lambda: dv.phi(-0.5, dv.CqEnsemble(np.array([0.5, 0.5]), (_HALF, _THIRD))), "dims 3 vs 2"),
    "validate": (None, "dims 2 vs 3"),
}


@pytest.mark.parametrize("case", PAIR_REFUSALS)
def test_every_pair_entry_point_refuses_mismatched_states(case, tmp_path, capsys):
    call, match = PAIR_REFUSALS[case]
    if call is not None:
        with pytest.raises(DimMismatchError, match=match):
            call()
        return
    # a cq-pair spec whose warden states differ in dimension: exit 2 with the rule's message
    spec = tmp_path / "pair.json"
    states = dict(_QUADRUPLE, omega0=np.diag([0.5, 0.25, 0.25]))
    spec.write_text(json.dumps({"kind": "cq-pair", **{name: op.matrix_to_json(m) for name, m in states.items()}}))
    assert main(["validate", str(spec)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {match}")


def test_helstrom_error():
    rng = np.random.default_rng(10)
    rho = random_density(rng, 2)
    assert dv.helstrom_error(rho, rho) == pytest.approx(0.5)
    assert dv.helstrom_error(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])) == pytest.approx(0.0)
    assert dv.helstrom_error(np.diag([1.0, 0.0]), np.diag([0.75, 0.25])) == pytest.approx(0.375)


def pinsker_sides(rho, sigma):
    """Both sides of the quantum Pinsker inequality ||rho - sigma||_1 / 2 <= sqrt(qre / 2)."""
    d = dv.qre(rho, sigma)
    rhs = math.sqrt(0.5 * d) if math.isfinite(d) else math.inf
    return 0.5 * op.trace_norm(np.asarray(rho) - np.asarray(sigma)), rhs


def test_pinsker():
    rng = np.random.default_rng(11)
    rho = random_density(rng, 2)
    lhs, rhs = pinsker_sides(rho, rho)
    assert lhs == pytest.approx(0.0, abs=1e-9) and lhs <= rhs + DEFAULT_TOL.roundoff
    lhs, rhs = pinsker_sides(np.diag([0.0, 1.0]), np.diag([0.75, 0.25]))
    assert lhs == pytest.approx(0.75, abs=1e-12)
    assert rhs == pytest.approx(math.sqrt(0.5 * math.log(4.0)), abs=1e-12)
    assert lhs <= rhs + DEFAULT_TOL.roundoff
    for _ in range(100):
        lhs, rhs = pinsker_sides(random_density(rng, 2), random_density(rng, 2))
        assert lhs <= rhs + DEFAULT_TOL.roundoff


_TOL = DEFAULT_TOL.cluster
_LOG_BELOW, _LOG_ABOVE = (0.3 * math.exp(-f * _TOL) for f in (0.99, 1.01))


@pytest.mark.parametrize("spectrum, n, count", [
    pytest.param([0.5, 0.5], 5, 1, id="maximally-mixed"),
    pytest.param([0.8, 0.2], 3, 4, id="qubit"),
    # absolute steps of 0.99 and 1.01 tolerance below 0.5 are steps of over one tolerance in log: none merges
    pytest.param([0.45, 0.45 - 0.99 * _TOL, 0.1 + 0.99 * _TOL], 1, 3, id="below"),
    pytest.param([0.45, 0.45 - 1.01 * _TOL, 0.1 + 1.01 * _TOL], 1, 3, id="above"),
    pytest.param([0.3, 0.3 - 0.99 * _TOL, 0.3 - 2.0 * _TOL, 0.1 + 2.99 * _TOL], 1, 4, id="below-and-above"),
    # but 0.3 (0.3 - 2 tol) and (0.3 - 0.99 tol)^2 are 0.02 tolerance apart in log, and merge
    pytest.param([0.3, 0.3 - 0.99 * _TOL, 0.3 - 2.0 * _TOL, 0.1 + 2.99 * _TOL], 2, 9, id="below-and-above-n2"),
    pytest.param([0.99, 0.99 - 1.03 * _TOL, 0.01 + 1.03 * _TOL], 2, 6, id="above-n2"),
    # a log step of 0.91 tolerance, far below one tolerance for any eigensolver: the three products of
    # 0.99 and its neighbour chain into one class, as do their two products with the third letter
    pytest.param([0.99, 0.99 - 0.9 * _TOL, 0.01 + 0.9 * _TOL], 2, 3, id="below-n2"),
    pytest.param([0.6, 0.3 - 0.99 * _TOL, 0.1 + 0.99 * _TOL], 3, 10, id="below-n3"),
    pytest.param([0.6, 0.3 - 0.99 * _TOL, 0.1 + 0.99 * _TOL], 4, 15, id="below-n4"),
    pytest.param([0.5, 0.5 - 1.01 * _TOL, 0.0 + 1.01 * _TOL], 2, 6, id="above-near-zero-n2"),
    # a log step just below the tolerance merges two eigenvalues, and chains over their products; one
    # just above keeps them apart
    pytest.param([0.3, _LOG_BELOW, 0.7 - _LOG_BELOW], 1, 2, id="log-below"),
    pytest.param([0.3, _LOG_ABOVE, 0.7 - _LOG_ABOVE], 1, 3, id="log-above"),
    pytest.param([0.3, _LOG_BELOW, 0.7 - _LOG_BELOW], 2, 3, id="log-below-n2"),
    pytest.param([0.3, _LOG_ABOVE, 0.7 - _LOG_ABOVE], 2, 6, id="log-above-n2"),
])
def test_distinct_eigenvalue_count(spectrum, n, count):
    # against the n-fold spectrum itself, the kron chain of omega's eigenvalues with those at or below the
    # support tolerance zeroed: the logs of its positive values clustered as a chain of ascending steps
    # below the tolerance, and its zeros one more class
    omega = rotated(random_unitary(np.random.default_rng(n), len(spectrum)), np.asarray(spectrum))
    letters = np.linalg.eigvalsh(omega)
    values = kron_chain([0] * n, [np.where(letters > DEFAULT_TOL.support, letters, 0.0)])
    logs = np.sort(np.log(values[values > 0.0]))
    brute_force = 1 + int(np.sum(np.diff(logs) >= _TOL)) + int(np.any(values == 0.0))
    got = dv.distinct_eigenvalue_count(omega, n)
    assert got == brute_force == count
    assert got <= (n + 1) ** len(spectrum)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_distinct_eigenvalue_count_is_the_pinching_block_count(data):
    # nu in the resolvability bound counts the classes the decoder's pinching has as blocks
    d, n = data.draw(st.sampled_from([2, 3, 4])), data.draw(st.integers(0, 6))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    spectrum = data.draw(spectra(d, False)) if data.draw(st.booleans()) else rng.dirichlet(np.ones(d))
    omega = rotated(random_unitary(rng, d), spectrum)
    assert dv.distinct_eigenvalue_count(omega, n) == len(op._pinching_blocks(op.eigvalsh(omega), n))


@pytest.mark.parametrize("n", [16, 20])
def test_distinct_eigenvalue_count_is_scale_free(n):
    # the absolute rule merged every n-fold product below the tolerance: (0.9, 0.1) counted 11 at n = 20,
    # and the bound's omega_alpha of excitation(0.25) at gamma = 0.6 counted 16 at n = 16 and 15 at n = 20
    mixed = chn.mixed_output(excitation_quadruple(), cs.SimConfig(n=n, gamma=0.6, m_size=4, l_size=4).alpha)
    assert dv.distinct_eigenvalue_count(mixed, n) == len(op._pinching_blocks(op.eigvalsh(mixed), n)) == n + 1
    assert dv.distinct_eigenvalue_count(np.diag([0.9, 0.1]), n) == n + 1


# ---- stacked kernels against the per-element loop formulas they replaced


def loop_qre(rho, sigma, tol=DEFAULT_TOL):
    """The per-element relative entropy over rho's eigenvalues above the support tolerance; inf unless
    :func:`loop_support_contained`."""
    if not loop_support_contained(rho, sigma, tol):
        return math.inf
    rvals, rvecs = np.linalg.eigh(rho)
    svals, svecs = np.linalg.eigh(sigma)
    overlap = np.abs(rvecs.conj().T @ svecs) ** 2
    total = 0.0
    for i, lam in enumerate(rvals):
        if lam <= tol.support:
            continue
        total += lam * math.log(lam)
        for j, mu in enumerate(svals):
            if mu > tol.support:
                total -= lam * overlap[i, j] * math.log(mu)
    return max(total, 0.0)


def loop_eigenprojectors(h, tol=DEFAULT_TOL):
    """h's eigenvalues and eigenprojectors from numpy's eigh, with ascending neighbours
    closer than ``tol.cluster`` merged into one projector at their mean: the package's
    clustering rule, restated here so that the oracle calls no package code."""
    vals, vecs = np.linalg.eigh(h)
    clusters = []
    for k in range(len(vals)):
        if clusters and vals[k] - vals[k - 1] < tol.cluster:
            clusters[-1].append(k)
        else:
            clusters.append([k])
    return [(float(np.mean(vals[idx])), vecs[:, idx] @ vecs[:, idx].conj().T) for idx in clusters]


def loop_chi_square(rho, sigma, tol=DEFAULT_TOL):
    spectrum = loop_eigenprojectors(sigma, tol)
    delta = rho - sigma
    total = 0.0
    for i, (li, pi) in enumerate(spectrum):
        for j, (lj, pj) in enumerate(spectrum):
            weight = np.trace(delta @ pi @ delta @ pj).real
            if i == j or abs(li - lj) < tol.cluster:
                total += weight / li
            else:
                total += weight * (math.log(li) - math.log(lj)) / (li - lj)
    return max(total, 0.0)


def loop_weight_outside(inner, outer, tol=DEFAULT_TOL):
    """tr[P inner P], P the projector on outer's eigenvectors whose eigenvalues are at or below the support tolerance."""
    vals, vecs = np.linalg.eigh(outer)
    kernel = vecs[:, vals <= tol.support]
    return np.trace(kernel.conj().T @ inner @ kernel).real


def loop_support_contained(inner, outer, tol=DEFAULT_TOL):
    """The support rule: inner's weight off supp(outer) is at most the support tolerance."""
    return loop_weight_outside(inner, outer, tol) <= tol.support


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
    assert_matches(op.trace_norm(rho - sigma), [dense_trace_norm(r - s) for r, s in zip(rho, sigma)])
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


def test_read_off_eigenbases_are_gathered_exactly(monkeypatch):
    # on the 2000-step sweep stack every state is exactly diagonal and op.eigh reads a
    # permutation eigenbasis off it; the kernels gather by its order instead of
    # multiplying by it, and must give the arrays the products give, bit for bit:
    # on the stack, with a rotated (LAPACK) partner on either side, and in 2-D
    quad = excitation_quadruple(np.linspace(0.01, 0.99, 2000))
    assert all(op._eigh(m)[2] is not None for m in (quad.sigma0, quad.sigma1, quad.omega0, quad.omega1))
    rng = np.random.default_rng(8)
    rotated = np.stack([random_density(rng, 2, full_rank=False) for _ in range(2000)])

    def kernels():
        pairs = [(quad.sigma1, quad.sigma0), (quad.omega1, quad.omega0), (rotated, quad.omega0), (quad.omega1, rotated)]
        pairs += [(a[i], b[i]) for a, b in pairs[:3] for i in (0, 999)]
        out = [dv.qre(a, b) for a, b in pairs] + [op.support_contained(a, b) for a, b in pairs]
        out += [dv.chi_square(a, b) for a, b in pairs if b is not rotated]
        out += [dv.petz_renyi(a, b, order) for a, b in pairs for order in (0.5, 2.0)]
        ensembles = [(quad.omega0[i], quad.omega1[i]) for i in (0, 999)] + [(quad.omega1[i], rotated[i]) for i in (0, 999)]
        grid = np.array([-1.0, -0.5, -0.25, -0.1, -0.05])[:, None]  # the shape of the resolvability bound's s grid
        return out + [dv.phi(grid, dv.CqEnsemble(np.array([0.25, 0.75]), states)) for states in ensembles]

    got = kernels()
    eigh = op._eigh
    monkeypatch.setattr(op, "_eigh", lambda h: (*eigh(h)[:2], None))
    for g, w in zip(got, kernels(), strict=True):
        assert np.array_equal(g, w)


# ---- one support rule at its edge


def edge_state(p, tilt1, tilt2):
    """p |u1><u1| + (1 - p) |u2><u2|, u1 proportional to (1, 0, sqrt(tilt1)) and u2 the unit part of (0, 1, sqrt(tilt2))
    orthogonal to u1: a state whose weight off the support of diag(1, 1, 0) is about p tilt1 + (1 - p) tilt2."""
    u1 = np.array([1.0, 0.0, math.sqrt(tilt1)])
    u1 /= np.linalg.norm(u1)
    u2 = np.array([0.0, 1.0, math.sqrt(tilt2)])
    u2 -= (u1 @ u2) * u1
    u2 /= np.linalg.norm(u2)
    return p * np.outer(u1, u1) + (1.0 - p) * np.outer(u2, u2)


EDGE_SIGMA = np.diag([0.5, 0.5, 0.0])
WARDEN_PAIR = (np.diag([0.7, 0.3]), np.diag([0.5, 0.5]))


@settings(max_examples=200, deadline=None)
@given(near_edge_pairs(), near_edge_pairs())
# 1.25e-10 off the support, 0.6 of it on each eigenvector: qre read 0.0201 where qre_to_power and petz_renyi read inf
@example((edge_state(0.6, 1.25e-10, 1.25e-10), EDGE_SIGMA), WARDEN_PAIR)
# 6.75e-11 off it, all on one eigenvector: qre(sigma1, sigma0) read 0.0050 and the quadruple check refused
@example((edge_state(0.45, 1.5e-10, 0.0), EDGE_SIGMA), WARDEN_PAIR)
def test_support_decisions_follow_one_rule_at_the_edge(pair, warden_pair):
    # each pair's weight off the support lies around the support tolerance, so every decision turns on the rule.
    # qre, qre_to_power at n = 1, petz_renyi and support_contained read the weights from rho's eigenpairs alike.
    # The oracle forms <v_j|rho|v_j> from rho itself, which parts from them by up to 4e-5 of the weight (3,000
    # draws), so it is held to the rule only where the weight lies farther than 1e-3 of the tolerance from it
    for rho, sigma in (pair, warden_pair):
        outside = not op.support_contained(rho, sigma)
        assert math.isinf(dv.qre(rho, sigma)) == math.isinf(dv.petz_renyi(rho, sigma, 2.0)) == outside
        assert math.isinf(dv.qre_to_power(rho, sigma, 1)) == outside
        weight = loop_weight_outside(rho, sigma)
        if abs(weight / DEFAULT_TOL.support - 1.0) > 1e-3:
            assert (weight > DEFAULT_TOL.support) == outside
    assume(op.trace_norm(warden_pair[0] - warden_pair[1]) > 1e-6)
    fields = (pair[1], pair[0], warden_pair[1], warden_pair[0])
    if math.isinf(dv.qre(*pair)) or math.isinf(dv.qre(*warden_pair)):
        with pytest.raises(AssumptionViolationError):
            chn.BinaryCovertChannel(*fields)
    else:
        chn.BinaryCovertChannel(*fields)
