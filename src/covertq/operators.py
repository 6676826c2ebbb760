"""Dense complex-matrix primitives for finite-dimensional states and operators.

All operators are plain ``numpy`` arrays of dtype complex128.  Density
operators are Hermitian, positive semidefinite (up to a small clamp) and have
unit trace.  Everything here is a pure function; no shared mutable state.

Stack contract: :func:`as_operator`, :func:`check_hermitian`,
:func:`trace_norm`, :func:`support_projector` and :func:`support_contained`
take a stack of square matrices of shape ``(..., d, d)`` and work on every
element at once.  A 2-D input gives a ``float`` (``bool`` for
``support_contained``), a stacked input an array of shape ``(...)``.  A check
that fails on a stack names the lowest failing element.  Every other function
here takes single matrices only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimMismatchError, NotHermitianError


@dataclass(frozen=True)
class Tolerances:
    """Numerical tolerances for validation, clustering and support tests."""

    herm: float = 1e-9
    psd: float = 1e-9
    trace: float = 1e-9
    cluster: float = 1e-10
    support: float = 1e-10


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
        dim = self.projectors[0].shape[0]
        out = np.zeros((dim, dim), dtype=complex)
        for lam, proj in zip(self.eigenvalues, self.projectors):
            out += lam * proj
        return out


def as_operator(a) -> np.ndarray:
    """Coerce to a complex square matrix or a stack of them, shape (..., d, d)."""
    m = np.asarray(a, dtype=complex)
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


def check_hermitian(h, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Return ``h`` as an array, raising ``NotHermitianError`` if asymmetric."""
    m = as_operator(h)
    dev = np.abs(m - dagger(m)).max(axis=(-2, -1), initial=0.0)
    failed = first_failure(dev > tol.herm)
    if failed:
        index, where = failed
        raise NotHermitianError(f"{where}deviation from Hermitian symmetry: {dev[index]:.3e}")
    return m


def check_density(rho, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Validate a density operator; clamp roundoff-negative eigenvalues to 0.

    Eigenvalues in ``[-psd, 0)`` are treated as roundoff and clamped; anything
    more negative raises.  The clamped operator is renormalized to unit trace.
    """
    m = _single(check_hermitian(rho, tol))
    tr = np.trace(m).real
    if abs(tr - 1.0) > tol.trace:
        raise DimMismatchError(f"trace {tr} differs from 1 beyond tolerance")
    vals, vecs = np.linalg.eigh(m)
    if vals[0] < -tol.psd:
        raise DimMismatchError(f"negative eigenvalue {vals[0]:.3e} beyond tolerance")
    if vals[0] < 0.0:
        vals = np.clip(vals, 0.0, None)
        m = (vecs * vals) @ vecs.conj().T
        m = m / np.trace(m).real
    return m


def ket(index: int, dim: int) -> np.ndarray:
    """Computational basis column vector |index> in the given dimension."""
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return v


def projector(vec) -> np.ndarray:
    """Rank-one projector |v><v| for a (not necessarily normalized) vector."""
    v = np.asarray(vec, dtype=complex).ravel()
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


def spectral_decompose(h, tol: Tolerances = DEFAULT_TOL) -> SpectralDecomposition:
    """Eigendecompose a Hermitian operator into clustered eigenprojectors."""
    m = _single(check_hermitian(h, tol))
    vals, vecs = np.linalg.eigh(m)
    order = np.argsort(vals)[::-1]
    vals, vecs = vals[order], vecs[:, order]
    eigenvalues: list[float] = []
    projectors: list[np.ndarray] = []
    i = 0
    while i < len(vals):
        j = i + 1
        while j < len(vals) and abs(vals[j] - vals[j - 1]) < tol.cluster:
            j += 1
        block = vecs[:, i:j]
        eigenvalues.append(float(np.mean(vals[i:j])))
        projectors.append(block @ block.conj().T)
        i = j
    return SpectralDecomposition(tuple(eigenvalues), tuple(projectors))


def tensor(*ops) -> np.ndarray:
    """Kronecker product of one or more operators, left to right."""
    out = _single(as_operator(ops[0]))
    for op in ops[1:]:
        out = np.kron(out, _single(as_operator(op)))
    return out


def tensor_power(op, n: int) -> np.ndarray:
    out = _single(as_operator(op))
    for _ in range(n - 1):
        out = np.kron(out, op)
    return out


def partial_trace(rho, dims, keep) -> np.ndarray:
    """Trace out all tensor factors except those in ``keep``.

    ``dims`` lists the factor dimensions in tensor order; ``keep`` is an
    iterable of factor indices to retain (order preserved as given).
    """
    m = _single(as_operator(rho))
    dims = list(dims)
    if int(np.prod(dims)) != m.shape[0]:
        raise DimMismatchError(f"product of dims {dims} != operator dim {m.shape[0]}")
    keep = list(keep)
    n = len(dims)
    traced = [i for i in range(n) if i not in keep]
    t = m.reshape(dims + dims)
    # contract each traced factor's row index with its column index
    for k, idx in enumerate(sorted(traced, reverse=True)):
        cur = t.ndim // 2
        t = np.trace(t, axis1=idx, axis2=idx + cur)
    d_keep = int(np.prod([dims[i] for i in range(n) if i in keep]))
    out = t.reshape(d_keep, d_keep)
    if keep != sorted(keep):
        perm_dims = [dims[i] for i in sorted(keep)]
        order = [sorted(keep).index(i) for i in keep]
        out = permute_operator(out, perm_dims, order)
    return out


def permute_operator(op, dims, order) -> np.ndarray:
    """Reorder the tensor factors of an operator according to ``order``."""
    m = _single(as_operator(op))
    dims = list(dims)
    n = len(dims)
    t = m.reshape(dims + dims)
    t = np.transpose(t, list(order) + [n + i for i in order])
    d = int(np.prod(dims))
    return t.reshape(d, d)


def partial_trace_vector(vec, dims, keep) -> np.ndarray:
    """Reduced density operator of a pure state, keeping factors in ``keep``."""
    v = np.asarray(vec, dtype=complex).ravel()
    dims = list(dims)
    keep = list(keep)
    traced = [i for i in range(len(dims)) if i not in keep]
    t = v.reshape(dims)
    t = np.transpose(t, keep + traced)
    d_keep = int(np.prod([dims[i] for i in keep])) if keep else 1
    mat = t.reshape(d_keep, -1)
    return mat @ mat.conj().T


def trace_norm(a):
    """Schatten 1-norm: the sum of singular values, per stack element."""
    m = as_operator(a)
    return scalar_or_stack(np.sum(np.linalg.svd(m, compute_uv=False), axis=-1))


def sqrtm_psd(a, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Principal square root of a PSD Hermitian matrix, spectrally."""
    m = _single(check_hermitian(a, tol))
    vals, vecs = np.linalg.eigh(m)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def fidelity(rho, sigma, tol: Tolerances = DEFAULT_TOL) -> float:
    """Uhlmann fidelity ||sqrt(rho) sqrt(sigma)||_1^2, clipped to [0, 1]."""
    r = _single(as_operator(rho))
    s = _single(as_operator(sigma))
    if r.shape != s.shape:
        raise DimMismatchError(f"dims {r.shape[0]} vs {s.shape[0]}")
    val = trace_norm(sqrtm_psd(r, tol) @ sqrtm_psd(s, tol)) ** 2
    return float(min(max(val, 0.0), 1.0))


def nonneg_eigenspace_projector(p, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Projector onto the eigenspaces of ``p`` with eigenvalue >= 0.

    Eigenvalues within the clustering tolerance of zero count as nonnegative.
    """
    m = _single(check_hermitian(p, tol))
    vals, vecs = np.linalg.eigh(m)
    cols = vecs[:, vals >= -tol.cluster]
    return cols @ cols.conj().T


def pinching(q, p, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Block-diagonal part of ``q`` with respect to the eigenspaces of ``p``."""
    m = _single(as_operator(q))
    sd = spectral_decompose(p, tol)
    if sd.projectors[0].shape != m.shape:
        raise DimMismatchError("pinching reference dim mismatch")
    out = np.zeros_like(m)
    for proj in sd.projectors:
        out += proj @ m @ proj
    return out


def support_projector(a, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Projector onto the span of eigenvectors with eigenvalue > support tol."""
    vals, vecs = np.linalg.eigh(check_hermitian(a, tol))
    cols = vecs * (vals > tol.support)[..., None, :]
    return cols @ dagger(cols)


def support_contained(inner, outer, tol: Tolerances = DEFAULT_TOL):
    """Test supp(inner) subseteq supp(outer) numerically.

    Every eigenvector of ``inner`` with eigenvalue above the support tolerance
    must have residual norm below sqrt(tol) after projecting onto the support
    of ``outer``.
    """
    proj = support_projector(outer, tol)
    vals, vecs = np.linalg.eigh(check_hermitian(inner, tol))
    residual = np.linalg.norm(vecs - proj @ vecs, axis=-2)
    escapes = (vals > tol.support) & (residual >= np.sqrt(tol.support))
    return scalar_or_stack(~np.any(escapes, axis=-1), bool)


def standard_unitaries(dim: int) -> dict[str, np.ndarray]:
    """Fourier, cyclic shift, phase, and CNOT unitaries for a qudit of size ``dim``.

    The shift acts as X|j> = |j+1 mod d>, the phase as Z|j> = e^{2 pi i j/d}|j>,
    and CNOT adds the control value to the target modulo d.
    """
    if dim < 2:
        raise DimMismatchError("standard unitaries need dim >= 2")
    j = np.arange(dim)
    fourier = np.exp(2j * np.pi * np.outer(j, j) / dim) / np.sqrt(dim)
    shift_x = np.zeros((dim, dim), dtype=complex)
    shift_x[(j + 1) % dim, j] = 1.0
    phase_z = np.diag(np.exp(2j * np.pi * j / dim))
    cnot = np.zeros((dim * dim, dim * dim), dtype=complex)
    for c in range(dim):
        for t in range(dim):
            cnot[c * dim + (t + c) % dim, c * dim + t] = 1.0
    return {"fourier": fourier, "shift_x": shift_x, "phase_z": phase_z, "cnot": cnot}


def matrix_to_json(a) -> list:
    """Serialize a complex matrix as nested lists of [re, im] pairs."""
    m = _single(as_operator(a))
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def matrix_from_json(data) -> np.ndarray:
    """Inverse of :func:`matrix_to_json`."""
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise DimMismatchError(f"expected nested [re, im] pairs, got shape {arr.shape}")
    return as_operator(arr[..., 0] + 1j * arr[..., 1])


def canonical_purification(rho, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Eigen-purification sum_i sqrt(lambda_i) |e_i>|e_i> on a doubled space."""
    m = _single(check_hermitian(rho, tol))
    vals, vecs = np.linalg.eigh(m)
    vals = np.clip(vals, 0.0, None)
    dim = m.shape[0]
    out = np.zeros(dim * dim, dtype=complex)
    for lam, vec in zip(vals, vecs.T):
        if lam > 0.0:
            out += np.sqrt(lam) * np.kron(vec, vec.conj())
    return out / np.linalg.norm(out)
