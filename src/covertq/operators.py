"""Dense complex-matrix primitives for finite-dimensional states and operators.

All operators are plain ``numpy`` arrays of dtype complex128.  Density
operators are Hermitian, positive semidefinite up to roundoff, and have unit
trace.  Everything here is a pure function; no shared mutable state.

Eigensolver: :func:`eigh` and :func:`eigvalsh` are the package's one entry
point to LAPACK's Hermitian eigensolver; no other module calls
``np.linalg.eigh`` or ``np.linalg.eigvalsh``.  A stack whose off-diagonal
entries are all exactly zero is read off its diagonal (sorted values, a
permutation matrix of eigenvectors) and any other goes to LAPACK whole.
:func:`sqrtm_psd` and :func:`canonical_purification` write the square root
of an exactly diagonal input onto its diagonal, and products with a read-off
basis are gathers (:func:`_basis_product`, and :func:`_overlap` between two
eigenbases); ``eg_toy`` scales rows by diagonal POVM roots and theta.  Each
equals the dense product bit for bit, and
:func:`_real_diagonal` is the one test for such input.  The decoupler's SVDs
in ``eg_toy`` are not eigendecompositions and stay on ``np.linalg.svd``, in
real arithmetic when the cross-overlap is exactly real.

Stack contract: :func:`as_operator`, :func:`check_hermitian`, :func:`eigh`,
:func:`eigvalsh`, :func:`trace_norm` and :func:`support_contained` take a
stack of square matrices of shape ``(..., d, d)`` and work on every element
at once.  :func:`trace_norm` takes Hermitian input only (the trace
distance of two states): it sums the absolute eigenvalues from ``eigvalsh``
and raises ``NotHermitianError`` on anything else.  A 2-D input gives a ``float`` (``bool`` for
``support_contained``), a stacked input an array of shape ``(...)``.  A check
that fails on a stack names the lowest failing element.  Every pair of
states (:func:`support_contained`, :func:`fidelity`, the divergences, the
quadruple and the ensemble) passes one rule, :func:`_checked_pair`: two
Hermitian arrays of one dimension and one stack shape, else ``DimMismatchError``.
:func:`word_products` and :func:`word_index` take ``(..., n)`` stacks of
words and :func:`mean_word_product` ``(..., K, n)`` stacks.  Every other
function here takes single matrices only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimMismatchError, InvalidParameterError, NotHermitianError


@dataclass(frozen=True)
class Tolerances:
    """Numerical tolerances for validation, clustering and support tests, and the
    roundoff slack of comparisons between computed rates or bounds.  Its one
    instance :data:`DEFAULT_TOL` is their only source: no function takes a tolerance."""

    herm: float = 1e-9
    psd: float = 1e-9
    trace: float = 1e-9
    cluster: float = 1e-10
    support: float = 1e-10
    roundoff: float = 1e-12


DEFAULT_TOL = Tolerances()


@dataclass(frozen=True)
class SpectralDecomposition:
    """Clustered eigenvalues with orthogonal projectors, sorted decreasing.

    Eigenvalues closer than the clustering tolerance are merged into a single
    projector, so degenerate spectra yield one entry per distinct eigenvalue.
    """

    eigenvalues: tuple[float, ...]
    projectors: tuple[np.ndarray, ...]

    def reconstruct(self) -> np.ndarray:
        return sum(lam * proj for lam, proj in zip(self.eigenvalues, self.projectors))


def as_operator(a) -> np.ndarray:
    """Coerce to a complex square matrix or a stack of them, shape (..., d, d)."""
    m = np.asarray(a, dtype=complex, order="C")  # C order: a transposed view has no float view of its last axis
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise DimMismatchError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.view(float))):
        raise DimMismatchError("matrix has non-finite entries")
    return m


def _single(m: np.ndarray) -> np.ndarray:
    """``m`` itself, for the functions that take one matrix, not a stack."""
    if m.ndim != 2:
        raise DimMismatchError(f"expected a square matrix, got shape {m.shape}")
    return m


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of every matrix in a stack."""
    return a.swapaxes(-1, -2).conj()


def scalar_or_stack(values, kind=float):
    """``kind(values)`` for the result of a 2-D input, else the array as is."""
    return kind(values) if np.ndim(values) == 0 else values


def first_failure(bad):
    """Lowest flagged index of a stack of checks, or None if none is flagged.

    Returns ``(index, where)``: the index tuple into ``bad`` (empty for a
    single check) and a message prefix naming it when ``bad`` holds more than
    one element.
    """
    bad = np.asarray(bad)
    if not bad.any():
        return None
    index = tuple(int(i) for i in np.unravel_index(np.argmax(bad), bad.shape))
    if bad.size == 1:
        return index, ""
    return index, f"stack element {index[0] if len(index) == 1 else index}: "


def check_hermitian(h) -> np.ndarray:
    """Return ``h`` as an array, raising ``NotHermitianError`` if asymmetric."""
    m = as_operator(h)
    dev = np.abs(m - dagger(m)).max(axis=(-2, -1), initial=0.0)
    failed = first_failure(dev > DEFAULT_TOL.herm)
    if failed:
        index, where = failed
        raise NotHermitianError(f"{where}deviation from Hermitian symmetry: {dev[index]:.3e}")
    return m


def _checked_pair(a, b):
    """The package's one rule for a pair of states: ``a`` and ``b`` as Hermitian arrays of one dimension and one stack shape."""
    a, b = check_hermitian(a), check_hermitian(b)
    if a.shape != b.shape:
        raise DimMismatchError(f"dims {a.shape[-1]} vs {b.shape[-1]}, stack shapes {a.shape[:-2]} vs {b.shape[:-2]}")
    return a, b


def _real_diagonal(m: np.ndarray):
    """The real diagonal of a ``(..., d, d)`` stack whose off-diagonal entries are all
    exactly zero, or None for any other input (LAPACK raises its own errors)."""
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        return None
    diag = np.diagonal(m, axis1=-2, axis2=-1)
    if np.count_nonzero(m) != np.count_nonzero(diag):
        return None
    # LAPACK ignores the imaginary part of a Hermitian diagonal and solves integers in float64
    return diag.real if diag.dtype.kind in "fc" else diag.astype(float)


def _eigh(h):
    """:func:`eigh` plus the ``(..., d)`` sort order of an input read off its diagonal,
    whose eigenbasis P has P[..., order[j], j] = 1, or None when LAPACK ran."""
    m = np.asarray(h)
    real = _real_diagonal(m)
    if real is None:
        return (*np.linalg.eigh(m), None)
    order = np.argsort(real, axis=-1, kind="stable")
    basis = np.eye(m.shape[-1], dtype=np.result_type(m.dtype, real.dtype))
    return np.sort(real, axis=-1, kind="stable"), basis[order].swapaxes(-1, -2), order


def _basis_product(a, vecs, order, axis: int):
    """vecs^dag a (``axis = -2``) or a vecs (``axis = -1``) for ``vecs, order`` from :func:`_eigh`;
    a read-off basis gathers the rows or columns of ``a`` in ``order``, the product bit for bit."""
    if order is None:
        return dagger(vecs) @ a if axis == -2 else a @ vecs
    if order.ndim == 1:
        return a[order] if axis == -2 else a[:, order]
    return np.take_along_axis(a, order[..., :, None] if axis == -2 else order[..., None, :], axis=axis)


def _overlap(a, b):
    """Ascending spectra of two :func:`_eigh` results ``a``, ``b`` of one shape (a 1-D read-off order gathers a 2-D operand
    only) and the weights |<u_i|v_j>|^2 of their eigenvectors, a read-off basis gathered: the one product of two eigenbases."""
    (avals, avecs, aorder), (bvals, bvecs, border) = a, b
    product = (_basis_product(dagger(avecs), bvecs, border, -1) if aorder is None
               else _basis_product(bvecs, avecs, aorder, -2))
    # C order, as a product returns it: einsum's summation order follows the layout
    return avals, bvals, np.ascontiguousarray(np.abs(product) ** 2)


def eigh(h):
    """Eigenvalues (ascending) and eigenvectors of a Hermitian ``(..., d, d)`` stack.

    The one eigensolver of the package.  A stack whose off-diagonal entries
    are all exactly zero is read off its diagonal: the stable-sorted values,
    and the matching permutation matrix as eigenvectors, in the dtype
    ``np.linalg.eigh`` returns.  Any other input goes to ``np.linalg.eigh``
    as a whole.  On diagonal input LAPACK returns the same values and unit
    eigenvectors that differ at most in the order of tied eigenvalues, which
    no spectral function here depends on.  The one exception is a matrix
    whose largest entry lies below about 1e-146 or above about 1e146: LAPACK
    rescales it and rounds its eigenvalues, while the diagonal read is exact.
    """
    return _eigh(h)[:2]


def eigvalsh(h):
    """Ascending eigenvalues of a Hermitian ``(..., d, d)`` stack, by the rule of :func:`eigh`."""
    m = np.asarray(h)
    real = _real_diagonal(m)
    return np.linalg.eigvalsh(m) if real is None else np.sort(real, axis=-1, kind="stable")


def check_density(rho) -> np.ndarray:
    """Validate a density operator, returned unchanged: unit trace within ``trace``, no eigenvalue below ``-psd``.
    One in ``[-psd, 0)`` is roundoff and stays: every consumer reads one at or below the support tolerance as zero."""
    m = _single(check_hermitian(rho))
    tr = np.trace(m).real
    if abs(tr - 1.0) > DEFAULT_TOL.trace:
        raise DimMismatchError(f"trace {tr} differs from 1 beyond tolerance")
    low = eigvalsh(m)[0]
    if low < -DEFAULT_TOL.psd:
        raise DimMismatchError(f"negative eigenvalue {low:.3e} beyond tolerance")
    return m


def _cluster_starts(sorted_vals) -> np.ndarray:
    """The package's one clustering rule, on the last axis of sorted (ascending or descending)
    eigenvalues: a new cluster starts at the first value and wherever sorted neighbours
    differ by at least ``DEFAULT_TOL.cluster``.  True where one starts."""
    return np.abs(np.diff(sorted_vals, axis=-1, prepend=np.inf)) >= DEFAULT_TOL.cluster


def eigenvalue_clusters(vals) -> list[tuple[float, np.ndarray]]:
    """The clusters of the eigenvalues ``vals`` of one matrix, largest first, by the rule of
    :func:`_cluster_starts`.  Returns each as its mean and the indices into ``vals`` of its members."""
    vals = np.asarray(vals)
    if vals.ndim != 1:
        raise DimMismatchError(f"expected the spectrum of one matrix, got shape {vals.shape}")
    order = np.argsort(vals)[::-1]
    starts = np.flatnonzero(_cluster_starts(vals[order]))[1:]
    return [(float(np.mean(vals[idx])), idx) for idx in np.split(order, starts) if idx.size]


def spectral_decompose(h) -> SpectralDecomposition:
    """Eigendecompose a Hermitian operator into clustered eigenprojectors."""
    vals, vecs = eigh(_single(check_hermitian(h)))
    clusters = eigenvalue_clusters(vals)
    return SpectralDecomposition(
        tuple(lam for lam, _ in clusters),
        tuple(vecs[:, idx] @ vecs[:, idx].conj().T for _, idx in clusters),
    )


def tensor_power(op, n: int) -> np.ndarray:
    """n-fold Kronecker power of one operator; the 1x1 identity for n = 0."""
    if n < 0:
        raise InvalidParameterError(f"tensor power needs n >= 0, got {n}")
    m = _single(as_operator(op))
    return word_products(np.zeros(n, dtype=np.uint8), m[None])


def _letters(words, rows: int) -> np.ndarray:
    """``words`` as an array; a letter that is not an integer would be read as its integer part, and one outside [0, rows)
    would alias another word (numpy reads -1 as the last row), so either raises.  Only a float array is tested for integers."""
    words = np.asarray(words)
    if words.dtype.kind not in "biu" and not (words.dtype.kind == "f" and np.all(words == np.trunc(words))):
        raise InvalidParameterError("a letter is not an integer")
    if words.size and not 0 <= words.min() <= words.max() < rows:
        raise InvalidParameterError(f"a letter lies outside [0, {rows})")
    return words


def word_index(words, base: int = 2) -> np.ndarray:
    """Index of each ``(..., n)`` word in the product basis of ``base``-level
    letters, first letter most significant.  A letter outside [0, base) raises
    rather than alias another word's index."""
    words = _letters(words, base).astype(np.intp)
    return words @ (base ** np.arange(words.shape[-1] - 1, -1, -1, dtype=np.intp))


def word_products(words, table) -> np.ndarray:
    """Kronecker products of ``table`` rows, one per word: the n-fold kron chain.

    ``words`` is a ``(..., n)`` array of letters, each indexing the first axis
    of ``table``: a ``(2, d)`` pair of vectors (more rows for larger
    alphabets) gives a ``(..., d**n)`` result, a ``(2, r, c)`` pair of
    matrices, square or not, gives ``(..., r**n, c**n)``.  Entry ``[...]``
    is table[w_1] (x) ... (x) table[w_n], built left to right with one
    broadcast product per position, so it equals the left-to-right chain of
    Kronecker products entry for entry; for n = 0 it is the all-ones
    ``(..., 1)`` or ``(..., 1, 1)`` array.  It is the package's one kron chain; a letter outside [0, len(table)) raises.
    """
    table = np.asarray(table)
    words = _letters(words, len(table))
    rows, n = words.shape[:-1], words.shape[-1]
    if n == 0:
        return np.ones(rows + (1,) * (table.ndim - 1), dtype=table.dtype)
    out = table[words[..., 0]]
    for i in range(1, n):
        letter = table[words[..., i]]
        if table.ndim == 2:
            out = (out[..., :, None] * letter[..., None, :]).reshape(rows + (-1,))
        else:
            side = out.shape[-2] * letter.shape[-2]
            out = (out[..., :, None, :, None] * letter[..., None, :, None, :]).reshape(rows + (side, -1))
    return out


def mean_word_product(words, table) -> np.ndarray:
    """Mean over the word axis of the kron products of ``table`` rows.

    ``words`` is a ``(..., K, n)`` bit array.  ``table`` is ``(2, d)`` for
    probability vectors, giving a ``(..., d**n)`` result, or ``(2, d, d)``
    for matrices, giving ``(..., d**n, d**n)``; entry ``[...]`` is
    (1/K) sum_k table[w_k1] (x) ... (x) table[w_kn].

    The words are counted by their :func:`word_index` into 2**n
    frequencies, and that count tensor is contracted with the table one
    position at a time, one matrix product per position: about
    n max(d, 2)**n multiplies for vectors and d**(2n) for matrices whatever
    K is, with no temporary larger than the result.  The count vector holds
    2**n floats per leading index, so callers charge ``8 * max(d, 2)**n``
    bytes per vector result to their budget.
    """
    words = np.asarray(words)
    table = np.asarray(table)
    k_size, n = words.shape[-2:]
    batch = words.shape[:-2]
    flat = words.reshape(-1, k_size, n)
    groups = flat.shape[0]
    index = word_index(flat) + (np.arange(groups) << n)[:, None]
    out = np.bincount(index.ravel(), minlength=groups << n) / k_size
    # contract the leading position; its letter's factor axis goes last
    step = table.reshape(2, -1)
    for _ in range(n):
        out = out.reshape(groups, 2, -1).swapaxes(1, 2) @ step
    d = table.shape[1]
    if table.ndim == 2:
        return out.reshape(batch + (d**n,))
    # axes (row_1, col_1, ..., row_n, col_n) -> (row_1..row_n, col_1..col_n)
    out = out.reshape((groups,) + (d,) * (2 * n))
    out = out.transpose((0,) + tuple(range(1, 2 * n, 2)) + tuple(range(2, 2 * n + 1, 2)))
    return out.reshape(batch + (d**n, d**n))


def partial_trace_vector(vec, dims, keep) -> np.ndarray:
    """Reduced density operator of a pure state, keeping factors in ``keep``."""
    dims, keep = list(dims), list(keep)
    t = np.asarray(vec, dtype=complex).reshape(dims).transpose(keep + [i for i in range(len(dims)) if i not in keep])
    mat = t.reshape(math.prod(dims[i] for i in keep), -1)
    return mat @ mat.conj().T


def trace_norm(a):
    """Schatten 1-norm of a Hermitian matrix, per stack element.

    The sum of |eigenvalues|, which equals the sum of singular values for
    Hermitian input.  ``eigvalsh`` reads one triangle only, so the input is
    checked first and a non-Hermitian one raises ``NotHermitianError``.
    """
    m = check_hermitian(a)
    return scalar_or_stack(np.sum(np.abs(eigvalsh(m)), axis=-1))


def _diagonal_sqrt(real: np.ndarray) -> np.ndarray:
    """The complex diagonal matrix of the square roots of ``real``, negative entries clipped to 0."""
    return np.diag(np.sqrt(np.clip(real, 0.0, None))).astype(complex)


def _sqrtm_and_low(m: np.ndarray):
    """:func:`sqrtm_psd` of a checked Hermitian matrix and its lowest eigenvalue, from one spectrum."""
    real = _real_diagonal(m)
    if real is not None:
        return _diagonal_sqrt(real), np.min(real)
    vals, vecs = eigh(m)
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T, vals[0]


def sqrtm_psd(a) -> np.ndarray:
    """Principal square root of a PSD Hermitian matrix, spectrally; an exactly
    diagonal one is read off its diagonal without a matrix product."""
    return _sqrtm_and_low(_single(check_hermitian(a)))[0]


def fidelity(rho, sigma) -> float:
    """Uhlmann fidelity ||sqrt(rho) sqrt(sigma)||_1^2, clipped to [0, 1]."""
    r, s = map(_single, _checked_pair(rho, sigma))
    # sqrt(rho) sqrt(sigma) is not Hermitian, so its singular values are summed
    val = float(np.sum(np.linalg.svd(sqrtm_psd(r) @ sqrtm_psd(s), compute_uv=False))) ** 2
    return float(min(max(val, 0.0), 1.0))


def nonneg_eigenspace_projector(p) -> np.ndarray:
    """Projector onto the eigenspaces of ``p`` with eigenvalue >= 0.

    Eigenvalues within the clustering tolerance of zero count as nonnegative.
    """
    m = _single(check_hermitian(p))
    vals, vecs = eigh(m)
    cols = vecs[:, vals >= -DEFAULT_TOL.cluster]
    return cols @ cols.conj().T


def _threshold_kept(values, reference, scale: float) -> np.ndarray:
    """The square-root measurement's one threshold rule: Pi_c keeps an entry, or an eigenvector, of
    sigma_c - scale ref whose value is at least -cluster scale w, w its reference weight (so sigma_c >=
    scale ref (1 - cluster): ties are kept, zero-probability entries never), or that lies at most half
    in supp(ref), outside which every sigma_c vanishes; ``reference`` stacks the w and those shares."""
    weights, inside = reference
    return values >= np.where(inside > 0.5, -DEFAULT_TOL.cluster * scale * weights, -np.inf)


def _threshold_reference(letters, n: int, a: float):
    """:func:`_threshold_kept`'s reference for sigma0's single-letter eigenvalues ``letters``: the n-fold
    powers of them and of their support's indicator, stacked; and e^a, which must be a positive finite float."""
    return word_products([[0] * n, [1] * n], np.stack([letters, letters > DEFAULT_TOL.support])), _threshold_scale(a)


def _threshold_scale(a: float) -> float:
    """e^a of a decoder threshold ``a``; one whose e^a is not a positive finite float raises."""
    try:
        scale = math.exp(a)
    except OverflowError:
        scale = math.inf
    if not 0.0 < scale < math.inf:
        raise InvalidParameterError(f"decoder threshold a_threshold = {a}: e^a = {scale} is not a positive finite float")
    return scale


def _log_sums(letters, n: int) -> np.ndarray:
    """The kron-sum of the letters' logs: sum_i log letters[s_i] for every string s of n letters, in word_index
    order, -inf where a letter is at or below the support tolerance; n = 1 gives the letters' own logs."""
    logs, single = np.zeros(1), np.log(letters, out=np.full(len(letters), -np.inf), where=letters > DEFAULT_TOL.support)
    for _ in range(n):
        logs = np.add.outer(logs, single).ravel()
    return logs


def _pinching_blocks(letters, n: int) -> list:
    """sigma0^(x)n's pinching from sigma0's single-letter eigenvalues ``letters``: the sorted strings whose n-fold eigenvalues'
    logs (:func:`_log_sums`) fall in one :func:`eigenvalue_clusters` cluster, block by block, then those with a letter at or
    below the support tolerance."""
    logs = _log_sums(letters, n)
    support, outside = np.flatnonzero(logs > -np.inf), np.flatnonzero(logs == -np.inf)
    return [np.sort(support[idx]) for _, idx in eigenvalue_clusters(logs[support])] + [outside] * bool(outside.size)


def _square_root_blocks(words, table, basis, a: float):
    """The dense square-root measurement of (K, n) ``words`` on a (2, d, d) ``table`` in sigma0's product eigenbasis, ``basis =
    eigh(table[0])``, one :func:`_pinching_blocks` block at a time: yields its strings and (K, b, b) sigma_c, Pi_c and elements."""
    (letters, U), words = basis, _letters(words, len(table))
    frame, (rule, scale) = dagger(U) @ table @ U, _threshold_reference(letters, words.shape[1], a)
    for strings in _pinching_blocks(letters, words.shape[1]):
        sigs = np.ones((len(words),) + strings.shape * 2, dtype=complex)
        for w, r in zip(words.T, np.unravel_index(strings, letters.shape * words.shape[1])):  # one gather per position,
            sigs *= frame[w[:, None, None], r[:, None], r]  # multiplied left to right as in word_products
        # Pi_c keeps eigenvectors of sigma_c - e^a sigma0^(x)n; S^{-1/2} Pi_c S^{-1/2}, S = sum Pi_c inverted on its support
        vals, vecs = eigh(sigs - np.diag(scale * rule[0][strings]))
        kept = _threshold_kept(vals, np.moveaxis(rule[:, strings] @ np.abs(vecs) ** 2, 1, 0), scale)
        projectors = (vecs * kept[:, None, :]) @ dagger(vecs)
        vals, vecs = eigh(projectors.sum(axis=0))
        s_inv_half = (vecs * np.divide(1.0, np.sqrt(np.abs(vals)), out=np.zeros_like(vals), where=vals > DEFAULT_TOL.support)) @ dagger(vecs)
        yield strings, sigs, projectors, s_inv_half @ projectors @ s_inv_half


def pinching(q, p) -> np.ndarray:
    """Block-diagonal part of ``q`` with respect to the eigenspaces of ``p``: sum_P P q P over them."""
    m = _single(as_operator(q))
    sd = spectral_decompose(p)
    if sd.projectors[0].shape != m.shape:
        raise DimMismatchError("pinching reference dim mismatch")
    return sum(proj @ m @ proj for proj in sd.projectors)


def support_contained(inner, outer):
    """Test supp(inner) subseteq supp(outer), of one shape, by the rule of :func:`_outside`, on inner's weights
    <v_j|inner|v_j> = sum_i lam_i |<u_i|v_j>|^2 on outer's eigenvectors v_j, from inner's eigenpairs lam_i, u_i."""
    vals, outer_vals, weight = _overlap(*map(_eigh, _checked_pair(inner, outer)))
    return scalar_or_stack(~_outside(np.einsum("...i,...ij->...j", vals, weight), outer_vals), bool)


def _outside(weights, values) -> np.ndarray:
    """The package's one support rule: a state leaves a reference's support when its ``weights`` <v_j|rho|v_j>
    on the reference's eigenvectors v_j whose eigenvalues ``values`` are at or below the support tolerance sum to more than it."""
    return np.sum(np.where(values > DEFAULT_TOL.support, 0.0, weights), axis=-1) > DEFAULT_TOL.support


def matrix_to_json(a) -> list:
    """Serialize a complex matrix as nested lists of [re, im] pairs."""
    m = _single(as_operator(a))
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def matrix_from_json(data) -> np.ndarray:
    """Inverse of :func:`matrix_to_json`."""
    try:
        arr = np.asarray(data, dtype=float)
    except TypeError as exc:  # an entry that is not a number, such as a JSON object
        raise DimMismatchError(f"expected nested [re, im] pairs of numbers: {exc}") from None
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise DimMismatchError(f"expected nested [re, im] pairs, got shape {arr.shape}")
    return as_operator(arr[..., 0] + 1j * arr[..., 1])


def canonical_purification(rho) -> np.ndarray:
    """Eigen-purification sum_i sqrt(lambda_i) |e_i>|e_i> on a doubled space.

    An exactly diagonal ``rho`` has the standard basis as its eigenbasis, so
    the square roots of its clipped diagonal are written onto the diagonal
    without the per-eigenvalue loop.
    """
    m = _single(check_hermitian(rho))
    real = _real_diagonal(m)
    if real is not None:
        out = _diagonal_sqrt(real)
    else:
        vals, vecs = eigh(m)
        vals = np.clip(vals, 0.0, None)
        out = np.zeros(m.shape, dtype=complex)
        term = np.empty(m.shape, dtype=complex)
        # the entries of vec (x) conj(vec), scaled and summed in the same order
        for lam, vec in zip(vals, vecs.T):
            if lam > 0.0:
                np.multiply.outer(vec, vec.conj(), out=term)
                term *= np.sqrt(lam)
                out += term
    out = out.ravel()
    return out / np.linalg.norm(out)
