import importlib
import inspect
import math
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from support import kron_chain, kron_chain_mean, random_density

import covertq
from covertq import divergences as dv
from covertq import operators as op
from covertq.errors import DimMismatchError, InvalidParameterError, NotHermitianError


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


def test_tensor_power():
    m = np.array([[0.6, 0.2j], [-0.2j, 0.4]])
    empty = op.tensor_power(m, 0)
    assert empty.shape == (1, 1) and empty.dtype == complex and empty[0, 0] == 1.0
    assert np.array_equal(op.tensor_power(m, 1), m)
    assert np.array_equal(op.tensor_power(m, 3), np.kron(np.kron(m, m), m))
    with pytest.raises(InvalidParameterError):
        op.tensor_power(m, -1)


def test_trace_norm():
    assert op.trace_norm(np.diag([0.25, -0.25])) == pytest.approx(0.5)
    rng = np.random.default_rng(5)
    assert op.trace_norm(random_density(rng, 3)) == pytest.approx(1.0)
    assert op.trace_norm(np.diag([1.0, -1.0])) == pytest.approx(2.0)


@pytest.mark.parametrize("d", [2, 3, 8])
def test_trace_norm_matches_svd_on_hermitian_stacks(d):
    rng = np.random.default_rng(d)
    g = rng.normal(size=(5, d, d)) + 1j * rng.normal(size=(5, d, d))
    h = g + op.dagger(g)
    h[0] = h[0] @ h[0]  # positive semidefinite
    h[1, :, 0] = h[1, 0, :] = 0.0  # singular
    want = np.sum(np.linalg.svd(h, compute_uv=False), axis=-1)
    np.testing.assert_allclose(op.trace_norm(h), want, rtol=0, atol=1e-12)
    assert op.trace_norm(h[2]) == pytest.approx(want[2], abs=1e-12)


def test_trace_norm_rejects_non_hermitian():
    # eigvalsh would read one triangle of this and return 0
    with pytest.raises(NotHermitianError):
        op.trace_norm(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(NotHermitianError, match="stack element 1"):
        op.trace_norm(np.array([np.eye(2), [[0.0, 1.0], [0.0, 0.0]]]))


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


def test_canonical_purification():
    rng = np.random.default_rng(11)
    rho = random_density(rng, 3)
    pur = op.canonical_purification(rho)
    assert np.linalg.norm(pur) == pytest.approx(1.0)
    np.testing.assert_allclose(op.partial_trace_vector(pur, [3, 3], [0]), rho, atol=1e-9)


def test_json_roundtrip():
    rng = np.random.default_rng(13)
    m = random_density(rng, 3)
    np.testing.assert_allclose(op.matrix_from_json(op.matrix_to_json(m)), m, atol=0)


def test_single_matrix_functions_reject_stacks():
    stack = np.array([np.eye(2), np.eye(2)]) / 2
    for fn in (op.sqrtm_psd, op.check_density, op.spectral_decompose, op.matrix_to_json):
        with pytest.raises(DimMismatchError):
            fn(stack)
    # the stack-aware primitives take it
    assert op.trace_norm(stack).tolist() == [1.0, 1.0]
    assert op.support_contained(stack, stack).tolist() == [True, True]


@pytest.mark.parametrize("call, match", [
    (lambda: op.as_operator(np.ones((2, 3))), "square"),
    (lambda: op.as_operator([[1.0, math.nan], [0.0, 1.0]]), "non-finite"),
    (lambda: op.check_density(np.diag([0.6, 0.6])), "trace"),
    (lambda: op.check_density(np.diag([1.1, -0.1])), "negative eigenvalue"),
    (lambda: op.eigenvalue_clusters(np.eye(2)), "one matrix"),
    (lambda: op.pinching(np.eye(3), np.eye(2) / 2), "dim"),
    (lambda: op.matrix_from_json([[1.0, 0.0]]), "pairs"),
], ids=["non-square", "non-finite", "trace", "negative", "clusters-of-a-matrix", "pinching-dims", "json-shape"])
def test_malformed_operators_raise(call, match):
    with pytest.raises(DimMismatchError, match=match):
        call()


def test_check_density_returns_a_roundoff_negative_eigenvalue_unchanged():
    # -1e-12 lies within the psd tolerance: it is accepted and kept, not clipped to 0 and renormalized
    state = np.diag([1.0 + 1e-12, -1e-12])
    np.testing.assert_array_equal(op.check_density(state), state)


def test_support_contained_refuses_a_stack_against_a_single_state():
    # a single read-off reference's 1-D order gathered the stack's first axis, not each matrix's rows: against
    # diag(0.5, 0.5, 0) the answer was wrong for 99 of 200 random (2, 3, 3) stacks
    rng = np.random.default_rng(21)
    stack = np.array([random_density(rng, 3, full_rank=False) for _ in range(2)])
    diagonal = np.array([np.diag([0.5, 0.5, 0.0]), np.diag([0.2, 0.0, 0.8])])
    for inner, outer in ((stack, np.diag([0.5, 0.5, 0.0])), (diagonal, random_density(rng, 3)), (stack[:1], stack)):
        with pytest.raises(DimMismatchError, match="dims"):
            op.support_contained(inner, outer)


def test_non_contiguous_views_equal_their_contiguous_copies():
    # a complex view whose last axis is not contiguous has no float view: op.trace_norm(rho.T) raised
    # numpy's "last axis must be contiguous" on a valid state
    rng = np.random.default_rng(22)
    rho = random_density(rng, 3)
    stack = np.array([random_density(rng, 3) for _ in range(4)])
    for view in (rho.T, rho.conj().T, stack[..., ::-1, ::-1]):
        copy = np.ascontiguousarray(view)
        reference = np.broadcast_to(np.eye(3) / 3, view.shape)
        assert not view.flags.c_contiguous
        assert np.array_equal(op.check_hermitian(view), copy)
        assert np.array_equal(op.trace_norm(view), op.trace_norm(copy))
        assert np.array_equal(dv.qre(view, reference), dv.qre(copy, reference))


def test_support_contained_rejects_mismatched_dims():
    # a read-off basis is gathered by index, which must not run past the other state's side
    for inner, outer in ((np.diag([1.0, 0.0]), np.eye(3) / 3), (np.diag([1.0, 0.0, 0.0]), np.eye(2) / 2)):
        with pytest.raises(DimMismatchError, match="dims"):
            op.support_contained(inner, outer)


@st.composite
def word_product_cases(draw):
    """Word stacks with repeated words and an optional leading batch axis,
    with K on both sides of n, and a (2, d) vector or (2, d, d) matrix table."""
    d = draw(st.sampled_from([2, 3]))
    matrix = draw(st.booleans())
    n = draw(st.integers(1, 4 if matrix and d == 3 else 6))
    k = draw(st.integers(1, 40))
    batch = draw(st.sampled_from([(), (1,), (3,)]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    pool = rng.integers(0, 2, size=(draw(st.integers(1, 4)), n), dtype=np.uint8)
    words = pool[rng.integers(0, len(pool), size=batch + (k,))]
    shape = (2, d, d) if matrix else (2, d)
    table = rng.normal(size=shape) + (1j * rng.normal(size=shape) if matrix else 0.0)
    return words, table


@settings(max_examples=60, deadline=None)
@given(word_product_cases())
@example((np.array([[0, 1, 1], [1, 0, 1]], dtype=np.uint8), np.array([[0.2, 0.8], [0.6, 0.4]])))
@example((np.array([[0, 1], [1, 0], [1, 0], [0, 0]], dtype=np.uint8), np.array([[0.2, 0.8], [0.6, 0.4]])))
def test_mean_word_product_matches_kron_chain(case):
    words, table = case
    got = op.mean_word_product(words, table)
    side = table.shape[1] ** words.shape[-1]
    assert got.shape == words.shape[:-2] + (side,) * (table.ndim - 1)
    flat = words.reshape(-1, *words.shape[-2:])
    want = np.stack([kron_chain_mean(group, table) for group in flat]).reshape(got.shape)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def word_product_table(kind, rng):
    if kind == "real-vector":
        return rng.normal(size=(2, 3))
    shape = (2, 2, 2) if kind == "complex-square" else (2, 2, 3)
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


@pytest.mark.parametrize("kind", ["real-vector", "complex-square", "complex-rectangular"])
@pytest.mark.parametrize("n", [0, 1, 5])
@pytest.mark.parametrize("batch", [(), (4,), (2, 3)])
def test_word_products_equal_kron_chain(kind, n, batch):
    rng = np.random.default_rng(n + 10 * len(batch))
    table = word_product_table(kind, rng)
    words = rng.integers(0, 2, size=batch + (n,), dtype=np.uint8)
    got = op.word_products(words, table)
    want = np.stack([kron_chain(word, table) for word in words.reshape(math.prod(batch), n)])
    assert got.shape == batch + want.shape[1:]
    assert got.dtype == table.dtype
    assert np.array_equal(got.reshape(want.shape), want)


def test_word_index_first_letter_most_significant():
    words = np.array([[0, 0, 1], [1, 0, 0], [2, 1, 0]])
    assert op.word_index(words[:2]).tolist() == [1, 4]
    assert op.word_index(words, 3).tolist() == [1, 9, 21]
    assert op.word_index(np.zeros((2, 0), dtype=np.uint8)).tolist() == [0, 0]


@pytest.mark.parametrize("words, base", [([[0, 2]], 2), ([[0, 3]], 2), ([[1, 3], [0, 0]], 3), ([[0, -1]], 2)])
def test_word_index_refuses_letters_outside_the_alphabet(words, base):
    # "03" read in base 2 would alias "11": 0 * 2 + 3 == 1 * 2 + 1
    with pytest.raises(InvalidParameterError, match=rf"outside \[0, {base}\)"):
        op.word_index(np.array(words), base)


@pytest.mark.parametrize("words, rows", [([[0, -1]], 2), ([[0, 2]], 2), ([[3, 0], [0, 0]], 3), ([[-3]], 3)])
def test_word_products_refuse_letters_outside_the_table(words, rows):
    # -1 read the table's last row, so [[0, -1]] gave the "01" vector; a letter past the rows
    # raised a bare IndexError
    table = np.eye(rows)
    with pytest.raises(InvalidParameterError, match=rf"outside \[0, {rows}\)"):
        op.word_products(np.array(words), table)
    with pytest.raises(InvalidParameterError, match=rf"outside \[0, {rows}\)"):
        op.word_index(np.array(words), rows)
    assert np.array_equal(op.word_products([[0, rows - 1]], table)[0], np.kron(table[0], table[rows - 1]))


@pytest.mark.parametrize("words", [[[0.5, 1.0]], [[0.0, 1.9]], np.array([[1.0, 1e-9]]), [[math.nan, 1.0]], [[1j, 1.0]]])
def test_words_refuse_non_integral_letters(words):
    # read as its integer part, [[0.5, 1.0]] had the index of "01"
    with pytest.raises(InvalidParameterError, match="not an integer"):
        op.word_index(words)
    with pytest.raises(InvalidParameterError, match="not an integer"):
        op.word_products(words, np.eye(2))
    # integral letters of any dtype are read as they are
    assert op.word_index([[0.0, 1.0]]).tolist() == op.word_index(np.array([[False, True]])).tolist() == [1]


def kron_loop_purification(rho):
    """canonical_purification as one np.kron per eigenvector."""
    vals, vecs = np.linalg.eigh(rho)
    vals = np.clip(vals, 0.0, None)
    out = np.zeros(rho.shape[0] ** 2, dtype=complex)
    for lam, vec in zip(vals, vecs.T):
        if lam > 0.0:
            out += np.sqrt(lam) * np.kron(vec, vec.conj())
    return out / np.linalg.norm(out)


@pytest.mark.parametrize("d", [2, 3, 8])
@pytest.mark.parametrize("kind", ["full-rank", "rank-deficient", "degenerate"])
def test_canonical_purification_matches_kron_loop(d, kind):
    rng = np.random.default_rng(100 + d)
    if kind == "full-rank":
        rho = random_density(rng, d)
    elif kind == "rank-deficient":
        g = rng.normal(size=(d, 1)) + 1j * rng.normal(size=(d, 1))
        rho = g @ g.conj().T + (d > 2) * np.diag(np.r_[1.0, np.zeros(d - 1)])
        rho /= np.trace(rho).real
    else:
        q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        spectrum = np.r_[np.full(d - d // 2, 2.0), np.full(d // 2, 1.0)]
        rho = (q * spectrum) @ q.conj().T
        rho /= np.trace(rho).real
    assert np.array_equal(op.canonical_purification(rho), kron_loop_purification(rho))


def test_no_function_takes_a_tolerance():
    # the tolerances are fixed in op.DEFAULT_TOL; no caller can pass others
    functions = []
    for info in pkgutil.iter_modules(covertq.__path__):
        module = importlib.import_module(f"covertq.{info.name}")
        for obj in vars(module).values():
            members = [obj] + ([getattr(obj, name) for name in vars(obj)] if isinstance(obj, type) else [])
            functions += [f for f in members if inspect.isfunction(f) and f.__module__ == module.__name__]
    assert len(functions) > 100
    assert [f"{f.__module__}.{f.__qualname__}" for f in functions if "tol" in inspect.signature(f).parameters] == []


@st.composite
def diagonal_stacks(draw):
    """Exactly diagonal (..., d, d) stacks, real or complex, empty stacks included,
    with repeated, zero and negative diagonal entries and optional -0.0 off the diagonal."""
    d = draw(st.integers(1, 4))
    batch = draw(st.sampled_from([(), (0,), (1,), (3,), (2, 2)]))
    dtype = draw(st.sampled_from([float, complex]))
    # LAPACK rescales a matrix whose largest entry is below about 1e-146 (or above 1e146)
    # and rounds its eigenvalues on the way back; the diagonal read stays exact, so skip that
    entries = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 0.25, 1e-11, -1e-11]) | st.floats(-4.0, 4.0).filter(
        lambda x: x == 0.0 or abs(x) >= 1e-100)
    diag = draw(st.lists(entries, min_size=math.prod(batch) * d, max_size=math.prod(batch) * d))
    m = np.full(batch + (d, d), draw(st.sampled_from([0.0, -0.0])), dtype=dtype)
    if dtype is complex:
        m.imag = m.real
    m[..., np.arange(d), np.arange(d)] = np.reshape(diag, batch + (d,))
    return m


def lapack_spectral_functions(m):
    """sqrtm_psd and nonneg_eigenspace_projector of one matrix, from np.linalg.eigh."""
    vals, vecs = np.linalg.eigh(m)
    root = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T
    cols = vecs[:, vals >= -op.DEFAULT_TOL.cluster]
    return root, cols @ cols.conj().T


@settings(max_examples=200, deadline=None)
@given(diagonal_stacks())
@example(np.diag([0.5, -0.0, 0.5, 0.0]).astype(complex))
@example(np.zeros((0, 3, 3)))
def test_eigh_reads_exactly_diagonal_input_off_its_diagonal(m):
    vals, vecs = op.eigh(m)
    want_vals, want_vecs = np.linalg.eigh(m)
    assert vals.dtype == want_vals.dtype and vecs.dtype == want_vecs.dtype and vecs.shape == want_vecs.shape
    # the same numbers (== equates -0.0 with 0.0); the vectors may order tied eigenvalues differently
    assert np.array_equal(vals, want_vals)
    assert np.array_equal(op.eigvalsh(m), np.linalg.eigvalsh(m))
    assert np.array_equal(np.abs(vecs).sum(axis=-2), np.ones(vals.shape))
    assert np.array_equal((vecs * vals[..., None, :]) @ op.dagger(vecs), (want_vecs * want_vals[..., None, :]) @ op.dagger(want_vecs))
    for element in m.reshape(-1, *m.shape[-2:]):
        root, nonneg = lapack_spectral_functions(element)
        assert np.array_equal(op.sqrtm_psd(element), root)
        assert np.array_equal(op.nonneg_eigenspace_projector(element), nonneg)
        if np.max(element.real) > 0.0:
            assert np.array_equal(op.canonical_purification(element), kron_loop_purification(element))


@pytest.mark.parametrize("dtype", [float, complex])
def test_eigh_sends_any_off_diagonal_entry_to_lapack(dtype):
    tiny = np.diag([0.5, 0.25, 0.25]).astype(dtype)
    tiny[0, 2] = tiny[2, 0] = 1e-300
    stack = np.stack([np.diag([0.5, 0.5, 0.0]), np.diag([0.2, 0.3, 0.5]), [[0.5, 0.1, 0.0], [0.1, 0.3, 0.0], [0.0, 0.0, 0.2]]]).astype(dtype)
    for m in (tiny, stack):
        for got, want in zip(op.eigh(m), np.linalg.eigh(m)):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert np.array_equal(op.eigvalsh(m), np.linalg.eigvalsh(m))


def test_one_eigensolver_entry_point():
    # every eigendecomposition goes through op.eigh / op.eigvalsh, so none can skip the diagonal rule
    direct = re.compile(r"linalg\.eig(vals)?h\b|linalg import .*\beig(vals)?h\b")
    sources = sorted(Path(covertq.__file__).parent.glob("*.py"))
    assert len(sources) > 5
    assert [p.name for p in sources if p.name != "operators.py" and direct.search(p.read_text())] == []


def test_one_diagonal_detector():
    # op._real_diagonal alone decides that an operand is exactly diagonal
    detector = re.compile(r"count_nonzero|\bdiagonal\(")
    rule = inspect.getsource(op._real_diagonal)
    sources = {p.name: p.read_text() for p in Path(covertq.__file__).parent.glob("*.py")}
    sources["operators.py"] = sources["operators.py"].replace(rule, "")
    assert [name for name, text in sources.items() if detector.search(text)] == []
    assert len(detector.findall(rule)) == 3


def test_one_kron_chain_helper():
    # every n-fold product goes through op.word_products; the one other kron is
    # eg_toy.ghz_to_epr's two-factor phase correction
    chain = re.compile(r"np\.kron|\bkron\(|\breduce\(")
    found = {p.name: len(chain.findall(p.read_text())) for p in Path(covertq.__file__).parent.glob("*.py")}
    assert {name: count for name, count in found.items() if count} == {"eg_toy.py": 1}
    source = inspect.getsource(importlib.import_module("covertq.eg_toy").ghz_to_epr)
    assert len(chain.findall(source)) == 1
