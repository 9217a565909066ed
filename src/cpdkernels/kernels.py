"""Operator-valued kernels on a finite labeled set and their positivity tests.

A kernel assigns an algebra element to every ordered pair of labels.  It
stores, and every decision works on, the assembled block matrix of each
summand, ``G[(i,j)] = K(s_i, s_j)``, viewed as an ``(n, d, n, d)`` array.  Positive
definiteness tests ``G`` itself; conditional positive definiteness restricts
the quadratic form to coefficient tuples summing to zero and tests the
compression ``C`` of ``G`` to them.  In the basis ``(e_a - e_n) (x) I_d``,
``a < n``, its blocks are ``C_ab = (G_ab - G_nb) - (G_an - G_nn)``: the table
shifted at the last label, restricted to the first ``n - 1`` labels.  It is
sliced out of ``G`` by array broadcasts at ``O((n d)^2)`` cost.

Reduction from algebra coefficients to vectors (why the compression decides
the algebra-level condition): if ``C`` is positive semidefinite then for
any algebra coefficients ``a_i`` with ``sum a_i = 0``, eliminating
``a_n = -(a_1 + ... + a_{n-1})`` turns ``sum a_i* G_ij a_j`` into the same
quadratic form over ``C``, which is nonnegative because a
positive block matrix ``B`` satisfies ``sum b_i* B_ij b_j >= 0`` for all
algebra coefficients.  Conversely, given column vectors ``x_i`` with
``sum x_i = 0`` and a unit vector ``xi``, the rank-one coefficients
``a_i = x_i xi*`` sum to zero and give
``sum a_i* G_ij a_j = (x* G x) xi xi*``, so nonnegativity over algebra
coefficients forces ``x* G x >= 0`` for every zero-sum vector tuple, i.e.
``C >= 0``.  The two conditions are therefore equivalent.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property
from numbers import Number

import numpy as np

from .algebra import (
    DEFAULT_TOL,
    AlgebraDescriptor,
    AlgebraElement,
    DimensionMismatch,
    ToleranceConfig,
    _require_finite,
    adjoint,
    hermitian_defects,
    leq,
    psd_margins,
    spectral_norms,
    worst_psd_defect,
)

__all__ = [
    "IndexSet",
    "Kernel",
    "Verdict",
    "Witness",
    "NotHermitian",
    "UnknownLabel",
    "scalar_kernel",
    "kernel_norm",
    "assemble_gram",
    "is_positive_definite",
    "is_conditionally_positive_definite",
    "shift_transform",
    "recover_affine_part",
    "cond_positive_matrix_check",
    "two_by_two_check",
    "schur_product",
    "cauchy_schwarz_cpd_check",
    "cauchy_schwarz_pd_check",
]


class NotHermitian(ValueError):
    """Raised when a decision procedure receives a non-hermitian kernel."""


class UnknownLabel(ValueError):
    """Raised when a label is not a member of the kernel's index set."""


@dataclass(frozen=True)
class IndexSet:
    """Ordered finite set of distinct string labels."""

    labels: tuple[str, ...]

    def __init__(self, labels):
        labels = tuple(str(s) for s in labels)
        if not labels:
            raise ValueError("index set must be nonempty")
        if len(set(labels)) != len(labels):
            raise ValueError("labels must be pairwise distinct")
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise UnknownLabel(f"label {label!r} not in index set") from None

    def __iter__(self):
        return iter(self.labels)

    def __contains__(self, label: str) -> bool:
        return label in self.labels


@dataclass(frozen=True, eq=False)
class Witness:
    """Certificate of a failed positivity test: a unit vector ``v`` with
    ``v* M v = eigenvalue`` below tolerance for the matrix ``M`` named by the
    operation (an assembled summand matrix, a compressed matrix, or a
    per-pair difference): ``M``'s bottom eigenpair by ``eigh`` or, to within
    ``64 N eps max(1, ||M||)`` at order ``N``, by inverse iteration."""

    summand: int
    eigenvalue: float
    vector: np.ndarray


@dataclass(frozen=True, eq=False)
class Verdict:
    """Outcome of a decision procedure, with a witness when it fails."""

    holds: bool
    witness: Witness | None = None
    context: str | None = None

    def __bool__(self) -> bool:
        return self.holds


@dataclass(frozen=True, eq=False)
class _Table:
    """An ``n x n`` table of algebra elements indexed by a labeled set: the
    storage shared by kernels and metrics.

    The table is stored as one read-only complex ``(n d_k, n d_k)`` array per
    summand, the assembled Gram matrix: block ``(i, j)`` of array ``k`` is
    summand ``k`` of entry ``(s_i, s_j)``.  ``values``, ``value(i, j)`` and
    ``T[s, t]`` read a table of elements built on first use, whose blocks are
    views of the stored arrays.

    Construction from elements checks the shape and that every number is
    finite (``NonFinite`` otherwise); it checks no other property.
    """

    index_set: IndexSet
    descriptor: AlgebraDescriptor
    _grams: tuple[np.ndarray, ...] = field(repr=False)
    _noun = "table"

    def __init__(self, index_set: IndexSet, descriptor: AlgebraDescriptor, values):
        n = index_set.n
        rows = tuple(tuple(row) for row in values)
        if len(rows) != n or any(len(row) != n for row in rows):
            raise DimensionMismatch(f"{self._noun} table must be {n} x {n}")
        if any(v.descriptor != descriptor for row in rows for v in row):
            raise DimensionMismatch(f"{self._noun} entry has a foreign descriptor")
        self._store(index_set, descriptor, _require_finite([
            _assembled(np.array([[v.blocks[k] for v in row] for row in rows]))
            for k in range(descriptor.num_summands)
        ], f"a {self._noun} table"))

    @classmethod
    def _of(cls, index_set: IndexSet, descriptor: AlgebraDescriptor, grams):
        """The table whose assembled summands are ``grams``.  It takes the
        arrays over and marks them read-only; the caller must not write to
        them afterwards."""
        T = object.__new__(cls)
        T._store(index_set, descriptor, grams)
        return T

    def _store(self, index_set: IndexSet, descriptor: AlgebraDescriptor, grams) -> None:
        n = index_set.n
        grams = tuple(_owned(G) for G in grams)
        if [G.shape for G in grams] != [(n * d, n * d) for d in descriptor.summand_dims]:
            raise DimensionMismatch(f"{self._noun} arrays do not match the set and the algebra")
        object.__setattr__(self, "index_set", index_set)
        object.__setattr__(self, "descriptor", descriptor)
        object.__setattr__(self, "_grams", grams)

    @property
    def n(self) -> int:
        return self.index_set.n

    @cached_property
    def _stacks(self) -> tuple[np.ndarray, ...]:
        """The table as one ``(n, n, d, d)`` view per summand."""
        return tuple(_stack(G, self.n) for G in self._grams)

    @cached_property
    def values(self) -> tuple[tuple[AlgebraElement, ...], ...]:
        return tuple(
            tuple(AlgebraElement(self.descriptor, [S[i, j] for S in self._stacks])
                  for j in range(self.n))
            for i in range(self.n)
        )

    def value(self, i: int, j: int) -> AlgebraElement:
        return self.values[i][j]

    def __getitem__(self, pair: tuple[str, str]) -> AlgebraElement:
        s, t = pair
        return self.values[self.index_set.index(s)][self.index_set.index(t)]

    def _check_compatible(self, other: _Table) -> None:
        if self.index_set != other.index_set or self.descriptor != other.descriptor:
            raise DimensionMismatch(f"{self._noun}s live on different sets or algebras")


class Kernel(_Table):
    """A kernel: an ``n x n`` table of algebra elements indexed by a labeled
    set, stored as ``_Table`` stores it.

    Construction does not enforce hermiticity; a table may be held raw (for
    instance the entrywise product of two kernels over noncommutative
    summands).  Decision procedures reject non-hermitian tables.
    """

    _noun = "kernel"

    def is_hermitian(self, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
        """Whether ``||K(s,t) - K(t,s)*|| <= tol_rel * max(1, kernel_norm)``
        for every pair; raises ``NonFinite`` on an infinite or NaN entry."""
        return _hermitian(self._grams, self.n, tol)

    @classmethod
    def zero(cls, index_set: IndexSet, descriptor: AlgebraDescriptor) -> Kernel:
        n = index_set.n
        return cls._of(index_set, descriptor, [
            np.zeros((n * d, n * d), dtype=np.complex128) for d in descriptor.summand_dims
        ])

    def __add__(self, other: Kernel) -> Kernel:
        return self._entrywise(operator.add, other)

    def __sub__(self, other: Kernel) -> Kernel:
        return self._entrywise(operator.sub, other)

    def _entrywise(self, op, other: Kernel) -> Kernel:
        self._check_compatible(other)
        return Kernel._of(self.index_set, self.descriptor,
                          [op(A, B) for A, B in zip(self._grams, other._grams)])

    def __mul__(self, scalar) -> Kernel:
        if not isinstance(scalar, Number):
            return NotImplemented
        return Kernel._of(self.index_set, self.descriptor, [scalar * G for G in self._grams])

    __rmul__ = __mul__


def _owned(G: np.ndarray) -> np.ndarray:
    """``G`` as a read-only complex array that owns its memory: a fresh one
    is taken over, anything else (a view, another dtype) is copied."""
    if not (G.dtype == np.complex128 and G.base is None and G.flags.c_contiguous):
        G = np.array(G, dtype=np.complex128, order="C")
    G.setflags(write=False)
    return G


def _assembled(S: np.ndarray) -> np.ndarray:
    """The ``(n d, n d)`` matrix of an ``(n, n, d, d)`` stack of blocks, in
    fresh memory."""
    n, d = S.shape[0], S.shape[-1]
    G = np.empty((n * d, n * d), dtype=np.complex128)
    _stack(G, n)[...] = S
    return G


def _scalar(cls, matrix, labels):
    """The table of class ``cls`` over the one-dimensional algebra from a
    plain ``n x n`` array, labeled ``s1, s2, ...`` by default."""
    mat = np.array(matrix, dtype=np.complex128)
    n = mat.shape[0]
    if mat.shape != (n, n):
        raise DimensionMismatch(f"scalar {cls._noun} needs a square matrix")
    if labels is None:
        labels = [f"s{i + 1}" for i in range(n)]
    desc = AlgebraDescriptor([1])
    return cls(IndexSet(labels), desc, [[AlgebraElement(desc, [[[x]]]) for x in row] for row in mat])


def scalar_kernel(matrix, labels=None) -> Kernel:
    """Kernel over the one-dimensional algebra from a plain ``n x n`` array."""
    return _scalar(Kernel, matrix, labels)


def kernel_norm(K: Kernel) -> float:
    """Largest entry C*-norm; the scale used by relative tolerances."""
    return _max_norm(K._stacks)


def _stack(G: np.ndarray, n: int) -> np.ndarray:
    """``(n, n, d, d)`` view of an assembled summand; ``[i, j]`` is ``K(s_i, s_j)``."""
    d = G.shape[0] // n
    return G.reshape(n, d, n, d).swapaxes(1, 2)


def _max_norm(stacks) -> float:
    """Largest C*-norm of an entry of a table given as one ``(n, n, d, d)``
    stack per summand; an infinite or NaN entry raises ``NonFinite``."""
    return max(float(spectral_norms(S).max()) for S in stacks)


def _hermitian(grams: list[np.ndarray], n: int, tol: ToleranceConfig) -> bool:
    """``Kernel.is_hermitian`` on assembled summands.  Block ``(i, j)`` of
    ``G - G*`` is ``K(s_i, s_j) - K(s_j, s_i)*``; its 2-norm is at most its
    Frobenius norm, and the scale ``max(1, kernel_norm)`` is at least ``max(1,
    max |G|)``.  So Frobenius norms below half of ``tol_rel`` times that floor
    (the half absorbs rounding) prove the table hermitian; otherwise the exact
    2-norms of the blocks with ``i <= j`` decide."""
    upper = np.triu_indices(n)
    diffs = [_stack(G - G.conj().T, n)[upper] for G in _require_finite(grams)]
    floor = max(1.0, *(float(np.abs(G).max()) for G in grams))
    if all(np.linalg.norm(D, axis=(-2, -1)).max() <= 0.5 * tol.tol_rel * floor for D in diffs):
        return True
    scale = max(1.0, _max_norm([_stack(G, n) for G in grams]))
    return all(np.linalg.norm(D, 2, axis=(-2, -1)).max() <= tol.tol_rel * scale for D in diffs)


def _require_hermitian(grams: list[np.ndarray], n: int, tol: ToleranceConfig) -> list:
    if not _hermitian(grams, n, tol):
        raise NotHermitian("kernel table is not hermitian at tolerance")
    return grams


def _shifted(G: np.ndarray, n: int, m: int, compress: bool = False) -> np.ndarray:
    """Blocks ``K_ij - K_im - K_mj + K_mm`` of an assembled summand, as an
    array in fresh memory; the one shift formula behind every CPD route.

    The shift associates as ``((K_ij - K_im) - K_mj) + K_mm``, as the
    entrywise algebra expression does.  With ``compress`` (``m = n - 1``) it
    is restricted to the first ``n - 1`` labels and associates as ``(K_ij -
    K_mj) - (K_im - K_mm)``, the order in which ``T* G T`` evaluates for the
    difference basis ``T``; each equals its defining expression bit for bit.
    """
    d = G.shape[0] // n
    B = G.reshape(n, d, n, d)
    rows = m if compress else n
    out = np.empty((rows * d, rows * d), dtype=np.complex128)
    S = out.reshape(rows, d, rows, d)
    # An overflow here is caught by the finiteness check that follows.
    with np.errstate(over="ignore", invalid="ignore"):
        if compress:
            R = B[:m] - B[m:]
            np.subtract(R[:, :, :m], R[:, :, m:], out=S)
        else:
            np.subtract(B, B[:, :, m : m + 1], out=S)
            S -= B[m : m + 1]
            S += B[m : m + 1, :, m : m + 1]
    return out


def assemble_gram(K: Kernel, tol: ToleranceConfig = DEFAULT_TOL) -> list[np.ndarray]:
    """Per-summand block matrix: entry block (i, j) is summand k of K(s_i, s_j).

    The arrays are the kernel's own storage and read-only; copy one before
    modifying it.
    """
    return _require_hermitian(list(K._grams), K.n, tol)


def _hermitian_part(M: np.ndarray) -> np.ndarray:
    # An overflow here is caught by worst_psd_defect, which raises NonFinite.
    with np.errstate(over="ignore", invalid="ignore"):
        return 0.5 * (M + M.conj().swapaxes(-1, -2))


def _psd_verdict(mats: list[np.ndarray], tol: ToleranceConfig) -> Verdict:
    """PSD test over a family of matrices, one per summand, on their hermitian
    parts: fails on ``worst_psd_defect``'s summand, with its eigenvalue and
    vector."""
    if (found := worst_psd_defect(mats, tol, _hermitian_part)) is None:
        return Verdict(True)
    k, _, lam, vec = found
    return Verdict(False, Witness(k, lam, vec))


def is_positive_definite(
    K: Kernel, tol: ToleranceConfig = DEFAULT_TOL, threads: int = 1
) -> Verdict:
    """Whether every assembled summand matrix is positive semidefinite.

    Equivalent to nonnegativity of ``sum_ij a_i* K(s_i, s_j) a_j`` over all
    algebra coefficient tuples.  ``threads`` is accepted and ignored.
    """
    return _psd_verdict(assemble_gram(K, tol), tol)


def compressed_gram(K: Kernel, tol: ToleranceConfig = DEFAULT_TOL) -> list[np.ndarray]:
    """Per-summand compression onto zero-sum coefficient tuples, blocks
    ``(G_ab - G_nb) - (G_an - G_nn)`` for ``a, b < n``."""
    return [_shifted(G, K.n, K.n - 1, compress=True) for G in assemble_gram(K, tol)]


def is_conditionally_positive_definite(
    K: Kernel, tol: ToleranceConfig = DEFAULT_TOL, threads: int = 1
) -> Verdict:
    """Whether the quadratic form is nonnegative on zero-sum coefficient tuples.

    Decided by the compression per summand; the witness vector on failure
    lives in the compressed space.  Requires at least two labels.
    ``threads`` is accepted and ignored.
    """
    if K.n < 2:
        raise ValueError("conditional positivity needs at least two labels")
    return _psd_verdict(compressed_gram(K, tol), tol)


def shift_transform(K: Kernel, s0: str, tol: ToleranceConfig = DEFAULT_TOL) -> Kernel:
    """Base-point shift ``L(s,t) = (K(s,t) - K(s,s0) - K(s0,t) + K(s0,s0)) / 2``.

    Turns conditional positivity of ``K`` into plain positivity of ``L``;
    hermitian by construction when ``K`` is hermitian.
    """
    i0 = K.index_set.index(s0)
    grams = [_shifted(G, K.n, i0) for G in K._grams]
    with np.errstate(over="ignore", invalid="ignore"):  # caught by _require_finite
        for G in grams:
            G *= 0.5
    return Kernel._of(K.index_set, K.descriptor, _require_finite(grams))


def recover_affine_part(K: Kernel, s0: str) -> dict[str, AlgebraElement]:
    """Map ``h(s) = K(s, s0) - K(s0, s0) / 2``.

    When the shift transform of ``K`` at ``s0`` vanishes, ``K(s,t)`` equals
    ``h(s) + h(t)*``.
    """
    i0 = K.index_set.index(s0)
    half_base = [0.5 * S[i0, i0] for S in K._stacks]
    return {
        s: AlgebraElement(K.descriptor, [S[i, i0] - h for S, h in zip(K._stacks, half_base)])
        for i, s in enumerate(K.index_set.labels)
    }


def cond_positive_matrix_check(
    K: Kernel, m: int, tol: ToleranceConfig = DEFAULT_TOL
) -> Verdict:
    """Conditional positivity via the shifted table at row/column ``m``.

    Builds ``[K_ij - K_im - K_mj + K_mm]`` (1-based ``m``) and tests plain
    positive definiteness; the verdict is independent of ``m``.
    """
    if not 1 <= m <= K.n:
        raise ValueError(f"m must be in 1..{K.n}, got {m}")
    shifted = [_shifted(G, K.n, m - 1) for G in K._grams]
    return _psd_verdict(_require_hermitian(shifted, K.n, tol), tol)


def two_by_two_check(
    A: AlgebraElement,
    B: AlgebraElement,
    C: AlgebraElement,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> bool:
    """Conditional positivity of the block matrix [[A, B], [B*, C]]:
    holds iff ``B + B* <= A + C``."""
    return leq(B + adjoint(B), A + C, tol)


def schur_product(K1: Kernel, K2: Kernel) -> Kernel:
    """Entrywise product kernel; each entry is the algebra product.

    The result is guaranteed hermitian only when all summands have size one
    or the entries commute, so the table may come out raw.
    """
    K1._check_compatible(K2)
    return Kernel._of(K1.index_set, K1.descriptor, [
        _assembled(np.matmul(A, B)) for A, B in zip(K1._stacks, K2._stacks)
    ])


def _pairwise_verdict(diffs: list[np.ndarray], labels, tol: ToleranceConfig) -> Verdict:
    """Positivity of per-pair differences, one ``(n, n, d, d)`` stack per
    summand.  Reports the first non-hermitian difference in ``(s, t,
    summand)`` order, else the worst relative margin, the first on a tie."""
    skew = np.stack([hermitian_defects(D, tol) for D in diffs], axis=-1)
    if skew.any():
        i, j, _ = np.unravel_index(np.argmax(skew), skew.shape)
        return Verdict(
            False, None, context=f"non-hermitian difference at ({labels[i]}, {labels[j]})"
        )
    found = [psd_margins(D) for D in diffs]
    margins = np.stack([m for _, m, _ in found], axis=-1)
    i, j, k = np.unravel_index(np.argmin(margins), margins.shape)
    if margins[i, j, k] >= -tol.tol_rel:
        return Verdict(True)
    lam, _, vector = found[k]
    return Verdict(False, Witness(int(k), float(lam[i, j]), vector((i, j))),
                   context=f"pair ({labels[i]}, {labels[j]})")


def cauchy_schwarz_cpd_check(K: Kernel, tol: ToleranceConfig = DEFAULT_TOL) -> Verdict:
    """Necessary inequality for conditional positivity:
    ``2 Re K(s,t) <= K(s,s) + K(t,t)`` for every ordered pair."""
    diffs = []
    for S in K._stacks:
        D = S[range(K.n), range(K.n)]
        with np.errstate(over="ignore", invalid="ignore"):  # caught by spectral_norms
            diffs.append((D[:, None] + D[None, :]) - 2.0 * _hermitian_part(S))
    return _pairwise_verdict(diffs, K.index_set.labels, tol)


def cauchy_schwarz_pd_check(L: Kernel, tol: ToleranceConfig = DEFAULT_TOL) -> Verdict:
    """Necessary inequality for positive definiteness:
    ``L(s,t) L(t,s) <= ||L(t,t)|| L(s,s)`` for every ordered pair."""
    stacks = L._stacks
    diag = [S[range(L.n), range(L.n)] for S in stacks]
    norms = np.max([spectral_norms(D) for D in diag], axis=0)[None, :, None, None]
    with np.errstate(over="ignore", invalid="ignore"):  # caught by spectral_norms
        diffs = [norms * D[:, None] - S @ S.swapaxes(0, 1) for S, D in zip(stacks, diag)]
    return _pairwise_verdict(diffs, L.index_set.labels, tol)
