"""Monte-Carlo study of the covert coding scheme at exact desk scale.

Random Bernoulli codebooks, the warden's exact n-fold average state,
covertness / secrecy / resolvability metrics, and the square-root-measurement
decoder.  When a pair of single-copy outputs commutes, the n-fold quantities
built from it are diagonal in the product of their shared eigenbasis and are
computed on probability vectors; otherwise on dense matrices.  Either way the
bytes each entry point holds at once are charged to :mod:`covertq.budget`
before anything n-fold is allocated.  A ``Codebook`` is its words, its sizes
read off their shape; a stage checks the letters where it reads them and the
shape against its ``SimConfig``.

``pair_route`` makes that choice; its ``Route`` holds the single-letter
table (eigenvalue vectors or matrices) with the matching distance, and
``divergences.qre_to_power`` reads the covert divergence on either route off
table[0], with a single-letter support test.  A channel object builds each
pair's route once and keeps it, as ``resolvability_rhs`` keeps the bound's
K-free terms.  ``simulate`` checks every stage's charge, then runs the public
stages themselves.  Every n-fold
reference is a ``operators.word_products`` kron chain of a table letter, and
every codebook average (the warden state, covertness, the secrecy bins and
the resolvability samples) goes through ``operators.mean_word_product``: the
words are counted by their 2**n binary index and the counts are contracted
with the table one position at a time, which costs O(n d**n) per codebook for
any number of words K (d**(2n) on the dense route); forming the K products
directly was timed no faster for any K at d = 2 and 3.  Resolvability samples
and secrecy bins are averaged and charged in blocks of as many codebooks as
fit in min(``_BLOCK_BYTES``, budget), at least one.  The decoder and
``square_root_povm`` keep one rule, ``op._threshold_kept``, and two algorithms, as
a non-commuting pair's pinched threshold projectors are not diagonal in any product
basis: the dense one, ``op._square_root_blocks``, solves a block of the pinching at a
time in sigma0's product eigenbasis, where the decoder sums tr(Lam_c sigma_c) over the
blocks and ``square_root_povm`` writes them into its elements, lifted back once.

Randomness uses the counter-based Philox generator keyed by
``(seed, sample_index)``, one generator per block set to each key in turn; within one
codebook the bits are drawn in a fixed row-major (message, bin-index, position) order, so
identical configurations reproduce bitwise-identical codebooks whatever the block size.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import budget
from . import divergences as dv
from . import operators as op
from .channels import BinaryCovertChannel, mixed_output
from .errors import DimMismatchError, IndexOutOfRangeError, InvalidParameterError
from .operators import DEFAULT_TOL

_BLOCK_BYTES = 1 << 20  #: bytes a block of codebooks may be charged, or the budget if smaller; fixed
_S_GRID = (-1.0, -0.5, -0.25, -0.1, -0.05)  #: the s grid of the resolvability bound


def _integer(name: str, value) -> int:
    """``value`` as an int through ``operator.index``; a bool, a float or any other non-integer raises."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise InvalidParameterError(f"{name} = {value!r} is not an integer")


@dataclass(frozen=True)
class SimConfig:
    """Parameters of one simulation campaign.

    ``n``, ``m_size``, ``l_size``, ``samples`` and ``seed`` are integers (any
    type with ``__index__`` but bool, such as ``np.int64``), stored as int.

    ``alpha`` is derived as gamma / sqrt(n) unless given explicitly; it is the
    Bernoulli weight of the non-innocent symbol.  ``a_threshold``, with e^a a
    positive finite float, is the decoder's threshold a (see ``operators._threshold_kept``)
    and defaults to alpha * n * D(sigma1||sigma0) / 2 when left as None.  The bound's grid is fixed.
    """

    n: int
    gamma: float
    m_size: int
    l_size: int
    seed: int = 0
    samples: int = 1
    alpha: float | None = None
    a_threshold: float | None = None

    def __post_init__(self):
        for name in ("n", "m_size", "l_size", "samples", "seed"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        if min(self.n, self.m_size, self.l_size, self.samples) < 1:
            raise InvalidParameterError("n, m_size, l_size and samples must be positive")
        if not 0 <= self.seed < 2**64:
            raise InvalidParameterError(f"seed = {self.seed} outside [0, 2**64)")
        if self.alpha is None:
            object.__setattr__(self, "alpha", self.gamma / math.sqrt(self.n))
        if not 0.0 <= self.alpha <= 1.0:
            raise InvalidParameterError(f"alpha = {self.alpha} outside [0, 1]")
        if self.a_threshold is not None:
            op._threshold_scale(self.a_threshold)


@dataclass(frozen=True)
class Codebook:
    """Binary codewords indexed by (message m, bin/key index l): ``words``, a 3-D array of shape (m_size,
    l_size, n) that gives the sizes.  A stage checks the letters it reads, and the shape against its config."""

    words: np.ndarray
    m_size = property(lambda self: self.words.shape[0])
    l_size = property(lambda self: self.words.shape[1])
    n = property(lambda self: self.words.shape[2])

    def __post_init__(self):
        object.__setattr__(self, "words", np.asarray(self.words))
        if self.words.ndim != 3:
            raise DimMismatchError(f"words of shape {self.words.shape}, not (m_size, l_size, n)")


def _check_shape(cb: Codebook, cfg: SimConfig) -> None:
    """Refuse a codebook whose shape is not the (m_size, l_size, n) of ``cfg``."""
    if cb.words.shape != (cfg.m_size, cfg.l_size, cfg.n):
        raise DimMismatchError(f"codebook of shape {cb.words.shape} for a config of (m_size, l_size, n) = {(cfg.m_size, cfg.l_size, cfg.n)}")


@dataclass(frozen=True)
class CovertnessReport:
    dCovert: float
    dReference: float
    traceDistToMixed: float
    helstromError: float
    pinskerLowerBound: float
    resolvabilityRhs: float


@dataclass(frozen=True)
class SecrecyReport:
    perBinDistances: tuple[float, ...]
    averageLeakage: float


@dataclass(frozen=True)
class DecoderReport:
    perMessageError: dict
    averageError: float
    maxError: float


def _draws(cfg: SimConfig, indices):
    """Yield the (M, L, n) bits of each codebook i of ``indices`` from one Philox, set before each
    to an unused Philox's state keyed (seed, i): a fresh one, without the cost of building it."""
    bitgen = np.random.Philox(key=np.zeros(2, np.uint64))
    state, rng = bitgen.state, np.random.Generator(bitgen)
    for i in indices:
        state["state"]["key"] = np.array([cfg.seed, i], dtype=np.uint64)
        bitgen.state = state
        yield (rng.random((cfg.m_size, cfg.l_size, cfg.n)) < cfg.alpha).astype(np.uint8)


def sample_codebook(cfg: SimConfig, sample_index: int = 0) -> Codebook:
    """Draw a Bernoulli(alpha) codebook, deterministically in (seed, index), an integer in [0, 2**64)."""
    index = _integer("sample_index", sample_index)
    if not 0 <= index < 2**64:
        raise InvalidParameterError(f"sample_index = {index} outside [0, 2**64)")
    return Codebook(next(_draws(cfg, [index])))


def otp_encode(m: int, m2: int, k: int, cb: Codebook) -> np.ndarray:
    """One-time-pad encoding: the word at (m, (m2 + k) mod l_size)."""
    if not 0 <= k < cb.l_size:
        raise IndexOutOfRangeError(f"key index {k} outside [0, {cb.l_size})")
    if not (0 <= m < cb.m_size and 0 <= m2 < cb.l_size):
        raise IndexOutOfRangeError("message index out of range")
    return cb.words[m, (m2 + k) % cb.l_size]


def product_state(word, state0, state1) -> np.ndarray:
    """Tensor product with the factor chosen per bit of ``word``."""
    return op.word_products(word, np.stack([state0, state1]).astype(complex))


def shared_eigenbasis(a, b):
    """Common eigenbasis of two Hermitian operators, or None if they do not commute.

    The columns of one ``op.eigh`` of ``a`` are grouped into its eigenspaces by
    ``op.eigenvalue_clusters``, largest first, and ``b`` is diagonalised inside
    each, so degenerate spectra of either operator are handled exactly.

    Returns
    -------
    (U, pa, pb) : (ndarray, ndarray, ndarray) or None
        ``a = U diag(pa) U^dag`` and ``b = U diag(pb) U^dag``.
    """
    a = op.check_hermitian(np.asarray(a, dtype=complex))
    b = op.check_hermitian(np.asarray(b, dtype=complex))
    if np.max(np.abs(a @ b - b @ a)) > DEFAULT_TOL.herm:
        return None
    vals, vecs = op.eigh(a)
    cols, pa, pb = [], [], []
    for lam, idx in op.eigenvalue_clusters(vals):
        block = vecs[:, idx]
        mu, inner = op.eigh(block.conj().T @ b @ block)
        cols.append(block @ inner)
        pa.extend([lam] * mu.size)
        pb.extend(mu)
    return np.hstack(cols), np.array(pa), np.array(pb)


def _power(letter, n: int) -> np.ndarray:
    """n-fold kron power of one single-letter table entry."""
    return op.word_products(np.zeros(n, dtype=np.uint8), letter[None])


def _mixed_reference(table, alpha: float, n: int) -> np.ndarray:
    """n-fold power of the mixed letter (1 - alpha) table[0] + alpha table[1]."""
    return _power((1.0 - alpha) * table[0] + alpha * table[1], n)


def _l1(diff) -> np.ndarray:
    return np.sum(np.abs(diff), axis=-1)


@dataclass(frozen=True)
class Route:
    """How the n-letter quantities of one pair of single-copy outputs are computed:
    ``"commuting"`` on (2, d) eigenvalue vectors in the shared eigenbasis ``basis``
    with the l1 norm, or ``"dense"`` on the (2, d, d) matrices themselves with the trace norm."""

    name: str
    table: np.ndarray
    basis: np.ndarray | None
    distance: Callable


def pair_route(state0, state1) -> Route:
    """The one choice of route for a pair of single-copy outputs, both Hermitian."""
    basis = shared_eigenbasis(state0, state1)
    if basis is None:
        table = np.stack([state0, state1]).astype(complex)
        return Route("dense", table, None, op.trace_norm)
    U, p0, p1 = basis
    return Route("commuting", np.stack([p0, p1]), U, _l1)


def _warden_route(ch: BinaryCovertChannel) -> Route:
    """``pair_route(ch.omega0, ch.omega1)``, built once per channel object."""
    return ch.cached("warden", lambda: pair_route(ch.omega0, ch.omega1))


def _bob_route(ch: BinaryCovertChannel) -> Route:
    """``pair_route(ch.sigma0, ch.sigma1)``, built once per channel object."""
    return ch.cached("bob", lambda: pair_route(ch.sigma0, ch.sigma1))


def _charge(stage: str, route: Route, n: int, k_size: int, items: int = 1) -> int:
    """Check against the budget the bytes ``stage`` holds at once on ``route`` for ``items`` codebooks
    of ``k_size`` words of n letters, counted from measured tracemalloc peaks in d**n x d**n complex matrices,
    (K, b, b) ones of a pinching block or max(d, 2)**n float vectors (2**n word counts when d = 1); return the block size."""
    d, dense = route.table.shape[1], route.basis is None
    vector, matrix = 8 * max(d, 2) ** n, 16 * d ** (2 * n)
    warden, count = (matrix if dense else vector), 24 * k_size * n  # count: the words' counting copies
    per_item = 6 * warden + count
    block = min(items, max(1, min(_BLOCK_BYTES, budget.max_bytes()) // per_item))
    nbytes = {
        # the K elements and a few n-fold matrices
        "square_root_povm": (k_size + 6) * matrix,
        # the (K, d**n) distributions, weights and their product
        "sqrt_measurement_decoder": (3 * k_size + 4) * vector,
        # on the commuting route, plus the lift: U^(x)n, its scaled copy and adjoint, the result
        "warden average state": 3 * warden + count + (0 if dense else 5 * matrix),
        "covertness_report": (9 if dense else 6) * warden + count,
        "secrecy_report": block * per_item,
        "resolvability_samples": block * per_item,
    }[stage]
    if dense and stage in ("square_root_povm", "sqrt_measurement_decoder"):
        # the pinching blocks' vectors, checked before they are formed, and the POVM's K elements and four
        # n-fold matrices (the lift and the abstain outcome); then a dozen (K, b, b) stacks of the largest block
        nbytes = 16 * vector + (stage == "square_root_povm") * (k_size + 4) * matrix
        budget.check(nbytes, f"{stage} at n = {n}")
        nbytes += 192 * k_size * max(map(len, op._pinching_blocks(op.eigvalsh(route.table[0]), n))) ** 2
    budget.check(nbytes, f"{stage} at n = {n}")
    return block


def _lift(basis, weights, n: int) -> list:
    """Un diag(w) Un^dag for each row w of (K, D) ``weights``, Un = basis^(x)n, a permutation Un moving
    w[k] to row rows[k] without a product; or Un e Un^dag in place for each matrix e of (K, D, D) ones."""
    Un = op.tensor_power(basis, n)
    if np.ndim(weights[0]) == 2:
        return [np.matmul(Un @ e, Un.conj().T, out=e) for e in weights]
    rows = np.argmax(Un.real, axis=0)
    if np.array_equal(Un, np.eye(len(Un))[:, rows]):
        return [np.diag(w) for w in weights[:, np.argsort(rows)].astype(complex)]
    return [(Un * w) @ Un.conj().T for w in weights]


def _average_state(words, ch: BinaryCovertChannel) -> np.ndarray:
    """Dense warden state averaged uniformly over the (K, n) ``words``."""
    n = words.shape[1]
    route = _warden_route(ch)
    _charge("warden average state", route, n, len(words))
    avg = op.mean_word_product(words, route.table)
    return avg if route.basis is None else _lift(route.basis, avg[None], n)[0]


def willie_average_state(cb: Codebook, ch: BinaryCovertChannel) -> np.ndarray:
    """Warden's exact average state over all (m, l) codewords.

    When the two warden outputs commute, the state is assembled from the
    classical distribution over joint eigenvalue strings in the shared
    eigenbasis; otherwise a dense tensor-product average is formed.  Either
    way its bytes, the dense result included, are charged to the budget first.
    """
    return _average_state(cb.words.reshape(-1, cb.n), ch)


def willie_bin_state(cb: Codebook, ch: BinaryCovertChannel, m: int) -> np.ndarray:
    """Warden's state conditioned on message m, averaged over the bin index."""
    if not 0 <= m < cb.m_size:
        raise IndexOutOfRangeError(f"message index {m} outside [0, {cb.m_size})")
    return _average_state(cb.words[m], ch)


def _default_beta_grid(cfg: SimConfig, ch: BinaryCovertChannel) -> np.ndarray:
    center = cfg.alpha * cfg.n * dv.qre(ch.omega1, ch.omega0)
    if center <= 0.0:
        center = 1.0
    return np.geomspace(0.1 * center, 10.0 * center, 21)


def _rhs_terms(cfg: SimConfig, ch: BinaryCovertChannel):
    """The bound's terms that do not depend on K: the (s, beta) grid of
    2 sqrt(exp(beta s + n phi(s, alpha))) and e^beta nu."""
    ensemble = dv.CqEnsemble(
        np.array([1.0 - cfg.alpha, cfg.alpha]), (ch.omega0, ch.omega1)
    )
    nu = dv.distinct_eigenvalue_count(mixed_output(ch, cfg.alpha), cfg.n)
    betas = _default_beta_grid(cfg, ch)
    s = np.asarray(_S_GRID)[:, None]
    phis = dv.phi(s, ensemble)
    with np.errstate(over="ignore"):  # an overflowing grid point is a vacuous (inf) bound
        return 2.0 * np.sqrt(np.exp(betas * s + cfg.n * phis)), np.exp(betas) * nu


def resolvability_rhs(cfg: SimConfig, ch: BinaryCovertChannel) -> float:
    """Grid-minimized soft-covering bound on the expected trace distance.

    min over (s, beta) of 2 sqrt(exp(beta s + n phi(s, alpha))) +
    sqrt(e^beta nu / K) with nu the distinct-eigenvalue count of the n-fold
    reference and K the number of codewords.  The K-free terms are computed
    once per channel object and (alpha, n).
    """
    first, scaled_nu = ch.cached(("rhs", cfg.alpha, cfg.n), lambda: _rhs_terms(cfg, ch))
    return float(np.min(first + np.sqrt(scaled_nu / (cfg.m_size * cfg.l_size))))


def _mean_distances(route: Route, alpha: float, n: int, blocks) -> np.ndarray:
    """Distance to the mixed reference of each codebook average of ``blocks``, (B, K, n) words."""
    target = _mixed_reference(route.table, alpha, n)
    return np.concatenate([route.distance(op.mean_word_product(w, route.table) - target) for w in blocks])


def resolvability_samples(cfg: SimConfig, ch: BinaryCovertChannel) -> np.ndarray:
    """Trace distance of the codebook-average state to the mixed reference,
    for ``cfg.samples`` independently seeded codebooks, a block at a time."""
    route = _warden_route(ch)
    block = _charge("resolvability_samples", route, cfg.n, cfg.m_size * cfg.l_size, cfg.samples)
    indices = range(cfg.samples)  # one block's codebooks drawn at a time
    blocks = (np.array([*_draws(cfg, indices[a : a + block])]) for a in indices[::block])
    return _mean_distances(route, cfg.alpha, cfg.n, (w.reshape(len(w), -1, cfg.n) for w in blocks))


def _resolvability(distances: np.ndarray, rhs: float) -> tuple:
    mean = float(distances.mean())
    se = float(distances.std(ddof=1) / math.sqrt(len(distances))) if len(distances) > 1 else 0.0
    return mean, rhs, mean <= rhs + 3.0 * se


def resolvability_experiment(cfg: SimConfig, ch: BinaryCovertChannel):
    """Compare the Monte-Carlo mean trace distance against the bound.

    Returns
    -------
    (empirical_mean, rhs, holds) : tuple
        ``holds`` is True when the mean does not exceed the bound by more
        than three standard errors of the mean.
    """
    return _resolvability(resolvability_samples(cfg, ch), resolvability_rhs(cfg, ch))


def covertness_report(cb: Codebook, ch: BinaryCovertChannel, cfg: SimConfig) -> CovertnessReport:
    """Covertness metrics of one codebook against the innocent reference."""
    _check_shape(cb, cfg)
    route = _warden_route(ch)
    _charge("covertness_report", route, cb.n, cb.m_size * cb.l_size)
    table = route.table
    avg = op.mean_word_product(cb.words.reshape(-1, cb.n), table)
    ref0 = _power(table[0], cb.n)
    mixed = _mixed_reference(table, cfg.alpha, cb.n)
    d_covert = dv.qre_to_power(avg, table[0], cb.n)
    trace_dist = float(route.distance(avg - mixed))
    helstrom = 0.5 * (1.0 - 0.5 * float(route.distance(avg - ref0)))
    d_reference = cb.n * dv.qre(mixed_output(ch, cfg.alpha), ch.omega0)
    pinsker_lb = max(0.0, 0.5 * (1.0 - math.sqrt(0.5 * d_covert)))  # 0 for every vacuous bound, d_covert = inf too
    return CovertnessReport(
        dCovert=d_covert,
        dReference=d_reference,
        traceDistToMixed=trace_dist,
        helstromError=helstrom,
        pinskerLowerBound=pinsker_lb,
        resolvabilityRhs=resolvability_rhs(cfg, ch),
    )


def secrecy_report(cb: Codebook, ch: BinaryCovertChannel, cfg: SimConfig) -> SecrecyReport:
    """Per-bin trace distances to the mixed reference and their mean."""
    _check_shape(cb, cfg)
    route = _warden_route(ch)
    block = _charge("secrecy_report", route, cb.n, cb.l_size, cb.m_size)
    dists = _mean_distances(route, cfg.alpha, cb.n, (cb.words[a : a + block] for a in range(0, cb.m_size, block)))
    return SecrecyReport(perBinDistances=tuple(map(float, dists)), averageLeakage=float(np.mean(dists)))


def _srm_weights(words, table, a: float):
    """The (K, D) distributions sigma_c of the (K, n) ``words`` on a commuting route's ``table``, and the
    diagonals Upsilon_c = Pi_c / S of its square-root measurement, S = sum Pi_c and 1/0 read as 0."""
    rule, scale = op._threshold_reference(table[0], len(words[0]), a)
    sigs = op.word_products(words, table)
    projectors = op._threshold_kept(sigs - scale * rule[0], rule, scale)
    counts = projectors.sum(axis=0)
    inv = np.divide(1.0, counts, out=np.zeros(counts.shape), where=counts > DEFAULT_TOL.support)
    return sigs, projectors * inv


def square_root_povm(words, sigma0, sigma1, a_threshold: float):
    """Square-root measurement from pinched-threshold codeword projectors.

    For each classical word c the projector Pi_c spans the eigenvectors of
    pinch(sigma_c; sigma0^{(x)n}) - e^a sigma0^{(x)n} that
    ``operators._threshold_kept`` keeps, the pinching's blocks being the classes
    of n-fold eigenvalues of ``operators._pinching_blocks``.  The elements are
    Upsilon_c = S^{-1/2} Pi_c S^{-1/2}, S = sum Pi_c, and I - sum Upsilon is the
    abstain outcome.  Both are built on diagonals in the n-fold shared eigenbasis
    when sigma0 and sigma1 commute, else block by block in sigma0's product
    eigenbasis.  A threshold whose e^a is not a positive finite float raises.
    Returns ``(elements, abstain)``.
    """
    return povm_on_route([np.asarray(w) for w in words], pair_route(sigma0, sigma1), a_threshold)


def povm_on_route(words, route: Route, a_threshold: float):
    """:func:`square_root_povm` on a :func:`pair_route` its caller built and reports."""
    n, table = len(words[0]), route.table
    _charge("square_root_povm", route, n, len(words))
    if route.basis is not None:
        elements = _lift(route.basis, _srm_weights(words, table, a_threshold)[1], n)
    else:  # each block written into sigma0's product eigenbasis U^(x)n, then lifted once
        basis = op.eigh(table[0])
        elements = np.zeros((len(words),) + (len(table[0]) ** n,) * 2, dtype=complex)
        for strings, _, _, block in op._square_root_blocks(words, table, basis, a_threshold):
            elements[:, strings[:, None], strings] = block
        elements = _lift(basis[1], elements, n)
    return elements, np.eye(len(elements[0])) - sum(elements)


def sqrt_measurement_decoder(cb: Codebook, ch: BinaryCovertChannel, cfg: SimConfig) -> DecoderReport:
    """Error probabilities of :func:`square_root_povm` on Bob's outputs, on
    diagonals in the shared eigenbasis when sigma0 and sigma1 commute."""
    _check_shape(cb, cfg)
    route = _bob_route(ch)
    _charge("sqrt_measurement_decoder", route, cb.n, cb.m_size * cb.l_size)
    a = 0.5 * cfg.alpha * cfg.n * dv.qre(ch.sigma1, ch.sigma0) if cfg.a_threshold is None else cfg.a_threshold
    words = cb.words.reshape(-1, cb.n)
    if route.basis is not None:
        sigs, weighted = _srm_weights(words, route.table, a)
        weighted *= sigs  # in place, the same products as sigs * weights
        p_ok = np.sum(weighted, axis=1)
    else:
        blocks = op._square_root_blocks(words, route.table, op.eigh(route.table[0]), a)
        p_ok = sum(np.einsum("kij,kji->k", e, s).real for _, s, _, e in blocks)  # tr(Lam_c sigma_c), block by block
    errors = np.clip(1.0 - p_ok, 0.0, 1.0)
    per_message = {ml: float(e) for ml, e in zip(np.ndindex(cb.m_size, cb.l_size), errors)}
    return DecoderReport(perMessageError=per_message, averageError=float(errors.mean()), maxError=float(errors.max()))


def simulate(cfg: SimConfig, ch: BinaryCovertChannel):
    """One campaign on one codebook: the public stages covertness, secrecy, resolvability
    (with the covertness stage's bound) and, for at most 64 words, the decoder, in turn.
    Every stage's charge is checked before the codebook is drawn.  Returns
    ``(covertness, secrecy, (mean, rhs, holds), decoder or None, route names)``."""
    warden, bob = _warden_route(ch), _bob_route(ch)
    k_size = cfg.m_size * cfg.l_size
    _charge("covertness_report", warden, cfg.n, k_size)
    _charge("secrecy_report", warden, cfg.n, cfg.l_size, cfg.m_size)
    _charge("resolvability_samples", warden, cfg.n, k_size, cfg.samples)
    if k_size <= 64:
        _charge("sqrt_measurement_decoder", bob, cfg.n, k_size)
    cb = sample_codebook(cfg)
    cov = covertness_report(cb, ch, cfg)
    return (
        cov, secrecy_report(cb, ch, cfg),
        _resolvability(resolvability_samples(cfg, ch), cov.resolvabilityRhs),
        sqrt_measurement_decoder(cb, ch, cfg) if k_size <= 64 else None,
        {"warden": warden.name, "decoder": bob.name},
    )


def covertness_scaling(ch: BinaryCovertChannel, gamma: float, ns):
    """Scaled single-copy divergence n * D(omega_{gamma/sqrt(n)} || omega0)
    against its quadratic limit gamma^2 chi^2(omega1||omega0) / 2.

    Returns
    -------
    (values, target) : (list of (n, value), float)
    """
    target = 0.5 * gamma**2 * dv.chi_square(ch.omega1, ch.omega0)
    return [(int(n), n * dv.qre(mixed_output(ch, gamma / math.sqrt(n)), ch.omega0)) for n in ns], target
