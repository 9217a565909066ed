"""Finite-dimensional C*-algebra arithmetic.

The algebra is a direct sum of full complex matrix algebras.  An element is a
list of square complex blocks, one per summand; every operation acts blockwise.
Module elements (rectangular blocks over the same summand structure) model
elements of the column Hilbert C*-module, with the algebra-valued inner product
``<x, y> = x* y`` taken per block.

Positivity is decided by hermitian eigendecomposition with a relative
tolerance: an element passes if it is hermitian within ``tol_rel`` and every
block satisfies ``lambda_min >= -tol_rel * max(1, ||block||)``.  For the
kernel tests, ``psd_defect`` first tries Cholesky on the matrix shifted by
``tol_rel / 2 * max(1, max |diagonal|)``; by its backward error (Higham,
2002, ch. 10) success proves a pass, and only a failure is eigensolved.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Number

import numpy as np

__all__ = [
    "AlgebraDescriptor",
    "AlgebraElement",
    "ModuleElement",
    "ToleranceConfig",
    "DimensionMismatch",
    "NonFinite",
    "adjoint",
    "is_positive",
    "psd_defect",
    "leq",
    "abs_value",
    "op_norm",
    "re_part",
    "im_part",
    "module_inner",
    "module_abs",
    "module_norm",
]


class DimensionMismatch(ValueError):
    """Raised when operands have incompatible descriptors, ranks or shapes."""


class NonFinite(ValueError):
    """Raised when a decision meets an infinite or NaN value: an overflow is
    never decided as a pass."""


def _require_finite(mats: list[np.ndarray]) -> list[np.ndarray]:
    if not all(np.isfinite(M).all() for M in mats):
        raise NonFinite("a kernel matrix has an infinite or NaN value (overflow?)")
    return mats


def _freeze(a: np.ndarray) -> np.ndarray:
    """``a`` as a read-only complex array.  One that is already read-only,
    over memory that is read-only all the way down, is kept as it is: a
    kernel's entries are views of its stored arrays, not copies."""
    if isinstance(a, np.ndarray) and a.dtype == np.complex128 and not a.flags.writeable:
        base = a.base
        while isinstance(base, np.ndarray) and not base.flags.writeable:
            base = base.base
        if base is None:
            return a
    out = np.array(a, dtype=np.complex128)
    out.setflags(write=False)
    return out


def _spec_norm(a: np.ndarray) -> float:
    """Largest singular value; 0 for matrices with an empty axis."""
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


def _hermitian_part(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.conj().T)


def _psd_sqrt(a: np.ndarray) -> np.ndarray:
    """Principal square root of a hermitian matrix, clamping negative
    eigenvalues to zero so roundoff on the semidefinite boundary cannot
    produce complex output."""
    w, u = np.linalg.eigh(_hermitian_part(a))
    w = np.clip(w, 0.0, None)
    return (u * np.sqrt(w)) @ u.conj().T


def min_eig(a: np.ndarray) -> tuple[float, np.ndarray]:
    """Smallest eigenvalue of a hermitian matrix and a unit eigenvector."""
    w, u = np.linalg.eigh(a)
    return float(w[0]), u[:, 0].copy()


@dataclass(frozen=True)
class ToleranceConfig:
    """Relative tolerances for positivity verdicts and rank truncation."""

    tol_rel: float = 1e-9
    rank_tol_rel: float = 1e-10

    def __post_init__(self):
        if not (self.tol_rel > 0 and np.isfinite(self.tol_rel)):
            raise ValueError("tol_rel must be positive and finite")
        if not (self.rank_tol_rel > 0 and np.isfinite(self.rank_tol_rel)):
            raise ValueError("rank_tol_rel must be positive and finite")


DEFAULT_TOL = ToleranceConfig()


@dataclass(frozen=True)
class AlgebraDescriptor:
    """Block sizes ``[d_1, ..., d_m]`` of the summands of the algebra.

    Two descriptors are compatible for arithmetic iff their size lists are
    equal.
    """

    summand_dims: tuple[int, ...]

    def __init__(self, summand_dims):
        dims = tuple(int(d) for d in summand_dims)
        if not dims:
            raise ValueError("descriptor needs at least one summand")
        if any(d < 1 for d in dims):
            raise ValueError("summand dimensions must be >= 1")
        object.__setattr__(self, "summand_dims", dims)

    @property
    def num_summands(self) -> int:
        return len(self.summand_dims)

    @property
    def total_dim(self) -> int:
        return sum(self.summand_dims)


@dataclass(frozen=True, eq=False)
class AlgebraElement:
    """An element of the algebra: one square complex block per summand."""

    descriptor: AlgebraDescriptor
    blocks: tuple[np.ndarray, ...]

    def __init__(self, descriptor: AlgebraDescriptor, blocks):
        blocks = tuple(_freeze(b) for b in blocks)
        if len(blocks) != descriptor.num_summands:
            raise DimensionMismatch(
                f"expected {descriptor.num_summands} blocks, got {len(blocks)}"
            )
        for k, (b, d) in enumerate(zip(blocks, descriptor.summand_dims)):
            if b.shape != (d, d):
                raise DimensionMismatch(
                    f"block {k} has shape {b.shape}, expected ({d}, {d})"
                )
        object.__setattr__(self, "descriptor", descriptor)
        object.__setattr__(self, "blocks", blocks)

    @classmethod
    def zero(cls, descriptor: AlgebraDescriptor) -> AlgebraElement:
        return cls(descriptor, [np.zeros((d, d)) for d in descriptor.summand_dims])

    @classmethod
    def identity(cls, descriptor: AlgebraDescriptor) -> AlgebraElement:
        return cls(descriptor, [np.eye(d) for d in descriptor.summand_dims])

    def _check_compatible(self, other: AlgebraElement) -> None:
        if self.descriptor != other.descriptor:
            raise DimensionMismatch("descriptors differ")

    def __add__(self, other: AlgebraElement) -> AlgebraElement:
        self._check_compatible(other)
        return AlgebraElement(
            self.descriptor, [a + b for a, b in zip(self.blocks, other.blocks)]
        )

    def __sub__(self, other: AlgebraElement) -> AlgebraElement:
        self._check_compatible(other)
        return AlgebraElement(
            self.descriptor, [a - b for a, b in zip(self.blocks, other.blocks)]
        )

    def __neg__(self) -> AlgebraElement:
        return AlgebraElement(self.descriptor, [-a for a in self.blocks])

    def __mul__(self, scalar) -> AlgebraElement:
        if not isinstance(scalar, Number):
            return NotImplemented
        return AlgebraElement(self.descriptor, [scalar * a for a in self.blocks])

    __rmul__ = __mul__

    def __matmul__(self, other: AlgebraElement) -> AlgebraElement:
        """Algebra product: blockwise matrix multiplication."""
        self._check_compatible(other)
        return AlgebraElement(
            self.descriptor, [a @ b for a, b in zip(self.blocks, other.blocks)]
        )


@dataclass(frozen=True, eq=False)
class ModuleElement:
    """An element of the column module: one ``r_k x d_k`` block per summand.

    The k-th block is a point of the module ``A_k^{r_k}`` over the k-th matrix
    summand; ``module_inner`` recovers the algebra-valued inner product.
    """

    descriptor: AlgebraDescriptor
    ranks: tuple[int, ...]
    blocks: tuple[np.ndarray, ...]

    def __init__(self, descriptor: AlgebraDescriptor, ranks, blocks):
        ranks = tuple(int(r) for r in ranks)
        blocks = tuple(_freeze(b) for b in blocks)
        if len(ranks) != descriptor.num_summands or len(blocks) != len(ranks):
            raise DimensionMismatch("ranks/blocks do not match the descriptor")
        if any(r < 0 for r in ranks):
            raise DimensionMismatch("ranks must be nonnegative")
        for k, (b, r, d) in enumerate(zip(blocks, ranks, descriptor.summand_dims)):
            if b.shape != (r, d):
                raise DimensionMismatch(
                    f"module block {k} has shape {b.shape}, expected ({r}, {d})"
                )
        object.__setattr__(self, "descriptor", descriptor)
        object.__setattr__(self, "ranks", ranks)
        object.__setattr__(self, "blocks", blocks)

    @classmethod
    def zero(cls, descriptor: AlgebraDescriptor, ranks) -> ModuleElement:
        return cls(
            descriptor,
            ranks,
            [np.zeros((r, d)) for r, d in zip(ranks, descriptor.summand_dims)],
        )

    def _check_compatible(self, other: ModuleElement) -> None:
        if self.descriptor != other.descriptor or self.ranks != other.ranks:
            raise DimensionMismatch("module elements have different shapes")

    def __add__(self, other: ModuleElement) -> ModuleElement:
        self._check_compatible(other)
        return ModuleElement(
            self.descriptor,
            self.ranks,
            [a + b for a, b in zip(self.blocks, other.blocks)],
        )

    def __sub__(self, other: ModuleElement) -> ModuleElement:
        self._check_compatible(other)
        return ModuleElement(
            self.descriptor,
            self.ranks,
            [a - b for a, b in zip(self.blocks, other.blocks)],
        )

    def __neg__(self) -> ModuleElement:
        return ModuleElement(self.descriptor, self.ranks, [-a for a in self.blocks])

    def __mul__(self, scalar) -> ModuleElement:
        if not isinstance(scalar, Number):
            return NotImplemented
        return ModuleElement(
            self.descriptor, self.ranks, [scalar * a for a in self.blocks]
        )

    __rmul__ = __mul__


def adjoint(x: AlgebraElement) -> AlgebraElement:
    """Blockwise conjugate transpose."""
    return AlgebraElement(x.descriptor, [b.conj().T for b in x.blocks])


def _is_hermitian(x: AlgebraElement, tol: ToleranceConfig) -> bool:
    for b in x.blocks:
        if _spec_norm(b - b.conj().T) > tol.tol_rel * max(1.0, _spec_norm(b)):
            return False
    return True


def is_positive(x: AlgebraElement, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Whether ``x`` is a positive element of the algebra.

    True iff ``x`` is hermitian within tolerance and every block has
    ``lambda_min >= -tol_rel * max(1, ||block||)``.  Non-hermitian input is
    reported as not positive rather than rejected.
    """
    if not _is_hermitian(x, tol):
        return False
    for b in x.blocks:
        w = np.linalg.eigvalsh(_hermitian_part(b))
        scale = max(1.0, float(np.max(np.abs(w))))
        if w[0] < -tol.tol_rel * scale:
            return False
    return True


def _cholesky_passes(H: np.ndarray, tol: ToleranceConfig) -> bool:
    """Sufficient test that hermitian ``H`` of order ``N`` passes the rule
    ``lambda_min >= -tol_rel * max(1, max |lambda|)``.

    ``s_lo = max(1, max |H_ii|)`` is at most the rule's scale, since a
    hermitian diagonal lies within the spectrum.  If Cholesky runs to
    completion on ``A = H + c tol_rel s_lo I``, then ``R* R = A + E`` with
    ``|E| <= g |R*| |R|``, ``g = gamma_{N+1}`` (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2002, Thm 10.3; ``g = 4 (N+1) u`` is
    taken for complex data), and Cauchy-Schwarz on the columns of ``R`` gives
    ``||E|| <= g trace(R* R) <= g N (1 + c tol_rel) s_lo / (1 - g)``.  So
    ``lambda_min(H) >= -(c tol_rel s_lo + ||E||)``, and the rule holds when
    ``||E|| / s_lo + 2 N u <= (1 - c) tol_rel``; ``2 N u`` covers rounding of
    the shift and the eigensolver's backward error (``N u ||H||``).  At
    ``tol_rel = 1e-9`` that is ``N <= 1060``; above it the eigensolver decides.
    """
    N, c = H.shape[0], 0.5  # c: the share of tol_rel spent on the shift
    u = np.finfo(np.float64).eps / 2
    g = 4 * (N + 1) * u
    if g * N * (1 + c * tol.tol_rel) / (1 - g) + 2 * N * u > (1 - c) * tol.tol_rel:
        return False
    s_lo = max(1.0, float(np.abs(np.diagonal(H)).max()))
    try:
        np.linalg.cholesky(H + (c * tol.tol_rel * s_lo) * np.eye(N))
    except np.linalg.LinAlgError:
        return False
    return True


def psd_defect(h: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL):
    """How a hermitian matrix fails ``lambda_min >= -tol_rel * max(1, max
    |lambda|)``: ``None`` when it passes, else its relative margin, bottom
    eigenvalue and a unit eigenvector.  A pass is decided by Cholesky where
    ``_cholesky_passes`` can; a non-finite matrix or eigenvalue raises
    ``NonFinite``."""
    if _cholesky_passes(_require_finite([h])[0], tol):
        return None
    w, u = np.linalg.eigh(h)
    margin = _require_finite([w])[0][0] / max(1.0, float(np.max(np.abs(w))))
    return (margin, float(w[0]), u[:, 0].copy()) if margin < -tol.tol_rel else None


def leq(x: AlgebraElement, y: AlgebraElement, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Order relation ``x <= y`` in the positive cone: ``y - x`` positive."""
    return is_positive(y - x, tol)


def abs_value(x: AlgebraElement) -> AlgebraElement:
    """Absolute value ``|x| = (x* x)^(1/2)``, blockwise principal root."""
    return AlgebraElement(
        x.descriptor, [_psd_sqrt(b.conj().T @ b) for b in x.blocks]
    )


def op_norm(x: AlgebraElement) -> float:
    """C*-norm: the largest singular value over all blocks."""
    return max(_spec_norm(b) for b in x.blocks)


def re_part(x: AlgebraElement) -> AlgebraElement:
    """Hermitian part ``(x + x*) / 2``."""
    return AlgebraElement(x.descriptor, [_hermitian_part(b) for b in x.blocks])


def im_part(x: AlgebraElement) -> AlgebraElement:
    """Anti-hermitian part ``(x - x*) / (2i)``; ``x = re + i*im`` exactly."""
    return AlgebraElement(
        x.descriptor, [(b - b.conj().T) / 2j for b in x.blocks]
    )


def module_inner(x: ModuleElement, y: ModuleElement) -> AlgebraElement:
    """Algebra-valued inner product ``<x, y> = x* y``, blockwise."""
    x._check_compatible(y)
    return AlgebraElement(
        x.descriptor, [a.conj().T @ b for a, b in zip(x.blocks, y.blocks)]
    )


def module_abs(x: ModuleElement) -> AlgebraElement:
    """Module absolute value ``|x| = <x, x>^(1/2)``."""
    return AlgebraElement(
        x.descriptor, [_psd_sqrt(b.conj().T @ b) for b in x.blocks]
    )


def module_norm(x: ModuleElement) -> float:
    """Module norm ``||x|| = ||<x, x>||^(1/2)``: largest singular value."""
    return max(_spec_norm(b) for b in x.blocks)
