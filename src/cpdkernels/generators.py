"""Seeded random instances for every class the library reasons about.

Reproducibility contract: every draw comes from a PCG64 generator seeded with
``SeedSequence(entropy=cfg.seed, spawn_key=(purpose, detail...))``, where the
purpose is a module-level constant per generator and the detail indexes
elements, summands, or rejection attempts.  Identical configurations
therefore produce bit-identical output on any platform with the same
floating-point semantics, and drawing one class never shifts the stream of
another.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraDescriptor, AlgebraElement, ModuleElement
from .decomposition import decompose_cpd, majorized_kernel
from .embedding import CStarMetric, distance_matrix_from_points, scalar_metric
from .kernels import (
    IndexSet,
    Kernel,
    _assembled,
    assemble_gram,
    compressed_gram,
    kernel_norm,
    scalar_kernel,
)

__all__ = [
    "GenConfig",
    "FIXTURE_NAMES",
    "random_gram_kernel",
    "random_cpd_kernel",
    "random_hermitian_kernel",
    "random_non_cpd_kernel",
    "random_metric",
    "random_module_element",
    "random_positive_two_by_two",
    "random_majorized_pair",
    "fixture",
]

_GRAM = 1
_CPD_MIX = 2
_CPD_DIAG = 3
_HERMITIAN = 4
_METRIC_FRAME = 5
_METRIC_CORES = 6
_MODULE = 7
_LANCE = 8
_CONTRACTION = 9

_MAX_ATTEMPTS = 64

# Relative margin by which random_non_cpd_kernel fails conditional positivity.
NON_CPD_MARGIN = 1e-2


@dataclass(frozen=True)
class GenConfig:
    """Deterministic description of a random instance.

    ``rank`` steers the factor width where a class has one (module element
    rows, family count of the diagonal-zero class); ``None`` means the
    summand dimension.  ``magnitude`` scales all Gaussian draws.
    """

    seed: int
    n: int
    descriptor: AlgebraDescriptor
    rank: int | None = None
    magnitude: float = 1.0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("set size must be at least 1")
        if self.rank is not None and self.rank < 1:
            raise ValueError("rank must be at least 1 when given")
        if not 0.0 <= self.magnitude < np.inf:
            raise ValueError("magnitude must be a nonnegative finite real")


def _rng(cfg: GenConfig, *key: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(entropy=cfg.seed, spawn_key=key)
    )


def _labels(n: int) -> list[str]:
    return [f"s{i + 1}" for i in range(n)]


def _complex_matrix(rng, rows: int, cols: int, magnitude: float) -> np.ndarray:
    re = rng.standard_normal((rows, cols))
    im = rng.standard_normal((rows, cols))
    return magnitude / np.sqrt(2.0) * (re + 1j * im)


def _complex_draws(rng, count: int, shapes, magnitude: float) -> list[np.ndarray]:
    """``count`` random complex arrays of each shape in ``shapes``, as one
    ``(count, *shape)`` array per shape.  The numbers are those of ``count``
    successive rounds of one ``_complex_matrix`` draw per shape (real parts,
    then imaginary parts): one ``standard_normal`` call yields the same
    stream as the calls it replaces."""
    sizes = [int(np.prod(shape)) for shape in shapes]
    z = rng.standard_normal(count * 2 * sum(sizes)).reshape(count, -1)
    out, at = [], 0
    for shape, m in zip(shapes, sizes):
        re = z[:, at : at + m].reshape(count, *shape)
        im = z[:, at + m : at + 2 * m].reshape(count, *shape)
        out.append(magnitude / np.sqrt(2.0) * (re + 1j * im))
        at += 2 * m
    return out


def _random_elements(rng, count: int, desc: AlgebraDescriptor, magnitude: float):
    """The blocks of ``count`` random algebra elements, one ``(count, d, d)``
    array per summand."""
    return _complex_draws(rng, count, [(d, d) for d in desc.summand_dims], magnitude)


def _diag(x: np.ndarray) -> np.ndarray:
    """The diagonal matrices with the last axis of ``x`` on their diagonals."""
    d = x.shape[-1]
    D = np.zeros(x.shape + (d,), dtype=x.dtype)
    D[..., range(d), range(d)] = x
    return D


def _adj(X: np.ndarray) -> np.ndarray:
    return X.conj().swapaxes(-1, -2)


def _kernel(cfg: GenConfig, stacks) -> Kernel:
    """The kernel on the configuration's labels with one ``(n, n, d, d)``
    stack of entry blocks per summand."""
    return Kernel._of(IndexSet(_labels(cfg.n)), cfg.descriptor, [_assembled(S) for S in stacks])


def random_module_element(cfg: GenConfig, index: int = 0) -> ModuleElement:
    """The ``index``-th module point of the configuration's stream; elements
    of the same configuration share ranks and can be combined."""
    rng = _rng(cfg, _MODULE, index)
    dims = cfg.descriptor.summand_dims
    ranks = [cfg.rank if cfg.rank is not None else d for d in dims]
    blocks = [
        _complex_matrix(rng, r, d, cfg.magnitude) for r, d in zip(ranks, dims)
    ]
    return ModuleElement(cfg.descriptor, ranks, blocks)


def random_gram_kernel(cfg: GenConfig) -> Kernel:
    """Kernel ``L(s,t) = g(s)* g(t)`` from random algebra elements ``g``;
    positive definite by construction."""
    g = _random_elements(_rng(cfg, _GRAM), cfg.n, cfg.descriptor, cfg.magnitude)
    return _kernel(cfg, [_adj(X)[:, None] @ X[None, :] for X in g])


def random_cpd_kernel(cfg: GenConfig, diagonal_zero: bool = False) -> Kernel:
    """A conditionally positive definite kernel.

    Default shape is ``alpha * g(s)*g(t) + c(s) + c(t)*`` with a random
    positive weight, a Gram part, and a random affine part.  With
    ``diagonal_zero`` the output is instead ``-sum_k |a_k(s) - a_k(t)|^2``
    over ``rank`` random self-adjoint families (default 2), which has
    self-adjoint entries and an exactly zero diagonal.

    The self-adjoint families are drawn from one commuting family per
    summand (a fixed random unitary conjugating real diagonals).  This is
    essential, not a convenience: for noncommuting ``a_k`` the squared
    difference table can fail conditional positivity outright (with
    ``a in {E_11, E_12, 0}`` over ``M_2`` the base-point shift is the swap
    operator plus a rank-one term, which has a unit negative eigenvalue),
    while for a commuting self-adjoint family the table scalarizes
    coordinatewise and conditional positivity is automatic.
    """
    if diagonal_zero:
        rng = _rng(cfg, _CPD_DIAG)
        q = cfg.rank if cfg.rank is not None else 2
        dims = cfg.descriptor.summand_dims
        frames = [
            np.linalg.qr(_complex_matrix(rng, d, d, 1.0))[0] for d in dims
        ]
        # One diagonal draw per (family, label, summand), in that order.
        z = cfg.magnitude * rng.standard_normal((q, cfg.n, sum(dims)))
        stacks = []
        for d, p, at in zip(dims, frames, np.cumsum([0, *dims])):
            acc = np.zeros((cfg.n, cfg.n, d, d), dtype=np.complex128)
            for A in _adj(p) @ _diag(z[..., at : at + d]) @ p:  # (n, d, d) per family
                delta = A[:, None] - A[None, :]
                acc = acc - _adj(delta) @ delta
            stacks.append(acc)
        return _kernel(cfg, stacks)
    rng = _rng(cfg, _CPD_MIX)
    alpha = 0.5 + rng.uniform()
    drawn = _random_elements(rng, 2 * cfg.n, cfg.descriptor, cfg.magnitude)
    return _kernel(cfg, [
        alpha * (_adj(g)[:, None] @ g[None, :]) + c[:, None] + _adj(c)[None, :]
        for g, c in ((X[: cfg.n], X[cfg.n :]) for X in drawn)
    ])


def random_hermitian_kernel(cfg: GenConfig, detail: int = 0) -> Kernel:
    """A hermitian kernel with no positivity arranged; for ``n >= 2`` it is
    almost surely not conditionally positive definite."""
    n = cfg.n
    upper = np.triu_indices(n)  # row-major, the order of the draws
    diagonal = upper[0] == upper[1]
    stacks = []
    for X in _random_elements(_rng(cfg, _HERMITIAN, detail), upper[0].size,
                              cfg.descriptor, cfg.magnitude):
        S = np.empty((n, n) + X.shape[1:], dtype=np.complex128)
        S[upper[::-1]] = _adj(X)
        S[upper] = X
        D = X[diagonal]
        S[range(n), range(n)] = 0.5 * (D + _adj(D))
        stacks.append(S)
    return _kernel(cfg, stacks)


def random_non_cpd_kernel(cfg: GenConfig) -> Kernel:
    """A hermitian kernel certified to fail the conditional positivity check
    by the margin ``NON_CPD_MARGIN``.

    Every summand's compressed Gram matrix ``T* G_k T`` has its smallest
    eigenvalue at or below ``-NON_CPD_MARGIN * max(1, kernel_norm(K))``, so
    the check fails and its witness eigenvalue meets that bound.  Scaled
    copies ``alpha * K`` keep failing for every ``alpha > tol_rel /
    NON_CPD_MARGIN`` (1e-7 at the default tolerance) as long as
    ``n**2 * tol_rel < NON_CPD_MARGIN``.

    The failure is constructed, not searched for.  Draw
    ``H = random_hermitian_kernel(cfg, 0)``, set ``M = max(1, kernel_norm(H))``
    and take each summand's bottom compressed eigenpair ``(lam_k, u_k)``.
    With ``c = NON_CPD_MARGIN`` and ``mu = max(0, (max_k lam_k + c M) / (1 - c))``,
    every summand with ``mu_k = lam_k + c (M + mu) > 0`` loses the rank-one
    zero-sum term ``mu_k x x*``, where ``x = T u_k / |T u_k|``; ``H`` is
    returned unchanged when ``mu = 0``.  Since ``T* T >= I`` the subtraction
    lowers the summand's bottom eigenvalue by at least ``mu_k``, to at most
    ``-c (M + mu)``, and it raises no entry norm by more than ``mu``, so the
    bound holds for the returned kernel.  No draw is made beyond ``H``.

    ``magnitude`` scales ``H`` only.  The subtracted term is sized to the
    tolerance floor ``max(1, .)``, below which no kernel can fail the check by
    a relative margin, so at magnitude 0 the result is a pure rank-one kernel
    of norm at most ``c / (1 - c)``.
    """
    if cfg.n < 2:
        raise ValueError("a non-CPD instance needs at least 2 labels")
    H = random_hermitian_kernel(cfg, 0)
    c = NON_CPD_MARGIN
    M = max(1.0, kernel_norm(H))
    eigs = [np.linalg.eigh(0.5 * (C + C.conj().T)) for C in compressed_gram(H)]
    mu = max(0.0, (max(w[0] for w, _ in eigs) + c * M) / (1.0 - c))
    if mu == 0.0:
        return H
    n = cfg.n
    grams = assemble_gram(H)
    for k, (d, (w, u)) in enumerate(zip(cfg.descriptor.summand_dims, eigs)):
        mu_k = w[0] + c * (M + mu)
        if mu_k <= 0.0:
            continue
        tail = u[:, 0].reshape(n - 1, d)
        x = np.concatenate([tail, -tail.sum(axis=0, keepdims=True)]).ravel()
        x /= np.linalg.norm(x)
        grams[k] = grams[k] - mu_k * np.outer(x, x.conj())
    return Kernel._of(H.index_set, cfg.descriptor, grams)


def random_metric(cfg: GenConfig) -> CStarMetric:
    """A valid, embeddable metric from random module points.

    Points are conjugated diagonals ``x_s = D_s P`` with a fixed random
    unitary frame ``P`` per summand and per-label diagonal cores ``D_s``;
    pairwise differences then lie in one commuting normal family, which
    makes the triangle inequality hold in the cone order and the squared
    metric conditionally negative coordinatewise.  Core draws are rejected
    until all points are separated.
    """
    if cfg.n < 2:
        raise ValueError("a metric needs at least 2 labels")
    if cfg.magnitude <= 0.0:
        raise ValueError("a metric draw needs a positive magnitude")
    dims = cfg.descriptor.summand_dims
    frame_rng = _rng(cfg, _METRIC_FRAME)
    frames = [np.linalg.qr(_complex_matrix(frame_rng, d, d, 1.0))[0] for d in dims]
    for attempt in range(_MAX_ATTEMPTS):
        rng = _rng(cfg, _METRIC_CORES, attempt)
        cores = _complex_draws(rng, cfg.n, [(d,) for d in dims], cfg.magnitude)
        gaps = np.max([np.abs(Z[:, None] - Z[None, :]).max(axis=-1) for Z in cores], axis=0)
        if not (gaps[np.triu_indices(cfg.n, 1)] > 1e-6 * cfg.magnitude).all():
            continue
        X = [_diag(Z) @ p for Z, p in zip(cores, frames)]
        return distance_matrix_from_points({
            label: ModuleElement(cfg.descriptor, dims, [x[i] for x in X])
            for i, label in enumerate(_labels(cfg.n))
        })
    raise RuntimeError("rejection sampling failed to separate the points")


def random_positive_two_by_two(
    cfg: GenConfig, index: int = 0
) -> tuple[AlgebraElement, AlgebraElement, AlgebraElement]:
    """Blocks ``(P, T, Q)`` of a positive 2x2 block matrix ``[[P, T], [T*, Q]]``
    built as ``G* G`` from a random tall ``G`` and partitioned."""
    rng = _rng(cfg, _LANCE, index)
    dims = cfg.descriptor.summand_dims
    P, T, Q = [], [], []
    for d in dims:
        g = _complex_matrix(rng, 2 * d, 2 * d, cfg.magnitude)
        m = g.conj().T @ g
        P.append(m[:d, :d])
        T.append(m[:d, d:])
        Q.append(m[d:, d:])
    desc = cfg.descriptor
    return (
        AlgebraElement(desc, P),
        AlgebraElement(desc, T),
        AlgebraElement(desc, Q),
    )


def random_majorized_pair(cfg: GenConfig) -> tuple[Kernel, Kernel, str]:
    """A pair ``(K, Kp, s0)`` with ``Kp <= K`` by construction.

    ``K`` is a diagonal-zero kernel with self-adjoint entries, and ``Kp``
    is the image of its base-point factorization under a random strict
    contraction, evaluated through the majorization formula.
    """
    if cfg.n < 2:
        raise ValueError("a majorized pair needs at least 2 labels")
    K = random_cpd_kernel(cfg, diagonal_zero=True)
    s0 = K.index_set.labels[-1]
    fact = decompose_cpd(K, s0).factorization
    rng = _rng(cfg, _CONTRACTION)
    operator_blocks = []
    for r in fact.ranks:
        if r == 0:
            operator_blocks.append(np.zeros((0, 0), dtype=np.complex128))
            continue
        gain = rng.uniform(0.2, 0.95)
        m = _complex_matrix(rng, r, r, 1.0)
        c0 = (gain / np.linalg.norm(m, 2)) * m
        operator_blocks.append(c0.conj().T @ c0)
    return K, majorized_kernel(fact, operator_blocks), s0


FIXTURE_NAMES = ("schur-counterexample", "star-metric", "collinear-3", "two-point")


def fixture(name: str):
    """Named exact instances used across the tests and the demo command.

    ``schur-counterexample``
        The scalar kernel ``[[0, -1], [-1, 0]]``: conditionally positive
        definite, yet its entrywise square is not.
    ``star-metric``
        Four points, one center at distance 1 from three leaves that are
        pairwise 2 apart; a valid metric that is not embeddable.
    ``collinear-3``
        Three points on a line at distances (1, 1, 2); embeddable.
    ``two-point``
        Two points at distance 1; embeddable.
    """
    if name == "schur-counterexample":
        return scalar_kernel([[0.0, -1.0], [-1.0, 0.0]], ["s1", "s2"])
    if name == "star-metric":
        return scalar_metric(
            [
                [0.0, 1.0, 1.0, 1.0],
                [1.0, 0.0, 2.0, 2.0],
                [1.0, 2.0, 0.0, 2.0],
                [1.0, 2.0, 2.0, 0.0],
            ],
            ["c", "l1", "l2", "l3"],
        )
    if name == "collinear-3":
        return scalar_metric(
            [[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]],
            ["p1", "p2", "p3"],
        )
    if name == "two-point":
        return scalar_metric([[0.0, 1.0], [1.0, 0.0]], ["p1", "p2"])
    raise ValueError(
        f"unknown fixture {name!r}; available: {', '.join(FIXTURE_NAMES)}"
    )
