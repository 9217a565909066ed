"""Finite-dimensional C*-algebra arithmetic.

The algebra is a direct sum of full complex matrix algebras.  An element is a
list of square complex blocks, one per summand; every operation acts blockwise.
Module elements (rectangular blocks over the same summand structure) model
elements of the column Hilbert C*-module, with the algebra-valued inner product
``<x, y> = x* y`` taken per block.

Positivity is decided by hermitian eigendecomposition with a relative
tolerance: an element passes if it is hermitian within ``tol_rel`` and every
block satisfies ``lambda_min >= -tol_rel * max(1, ||block||)``.  For the
kernel tests, ``worst_psd_defect`` tries Cholesky on each summand shifted by
``tol_rel / 2 * max(1, max |diagonal|)`` (unless a diagonal entry is below
minus the shift); by its backward error (Higham, 2002, ch. 10) success
proves a pass.  Else ``eigvalsh`` decides, or ``eigh`` near the threshold; a
margin of -1 ends the pass, and only the reported summand gets a witness.
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
    "worst_psd_defect",
    "psd_margins",
    "hermitian_defects",
    "spectral_norms",
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


def _require_finite(mats: list[np.ndarray], what: str = "a kernel matrix") -> list[np.ndarray]:
    if not all(np.isfinite(M).all() for M in mats):
        raise NonFinite(f"{what} has an infinite or NaN value (overflow?)")
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
    """``(a + a*) / 2`` of a matrix, or of each matrix of a stack."""
    return 0.5 * (a + a.conj().swapaxes(-1, -2))


def _psd_sqrt(a: np.ndarray) -> np.ndarray:
    """Principal square root of a hermitian matrix, or of each matrix of a
    stack, clamping negative eigenvalues to zero so roundoff on the
    semidefinite boundary cannot produce complex output."""
    w, u = np.linalg.eigh(_hermitian_part(a))
    w = np.clip(w, 0.0, None)
    return (u * np.sqrt(w)[..., None, :]) @ u.conj().swapaxes(-1, -2)


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
    return not any(hermitian_defects(b, tol) for b in x.blocks)


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
    if np.diagonal(H).real.min() + (shift := c * tol.tol_rel * s_lo) <= 0:
        return False  # a pivot is at most its diagonal entry: it would fail
    try:
        np.linalg.cholesky(_shift_diagonal(H, shift))
    except np.linalg.LinAlgError:
        return False
    return True


def _shift_diagonal(H: np.ndarray, c: float) -> np.ndarray:
    """``H + c I`` in fresh memory, by an add on the diagonal of a copy."""
    A = H.astype(np.result_type(H, 1.0))
    A.reshape(-1)[:: A.shape[0] + 1] += c
    return A


# Times the order: how far apart LAPACK's eigensolvers may put a margin.
_BAND = 64 * np.finfo(np.float64).eps


def _eigh_defect(h: np.ndarray):
    """``_psd_margin``'s margin, eigenvalue and vector by a full ``eigh``."""
    w, u = np.linalg.eigh(h)
    margin = _require_finite([w])[0][0] / max(1.0, float(np.max(np.abs(w))))
    return margin, float(w[0]), u[:, 0].copy(), None


def _psd_margin(h: np.ndarray, tol: ToleranceConfig):
    """``None`` when finite hermitian ``h`` passes, else ``(margin, lambda, v,
    s)``: ``eigh``'s ``v`` and no ``s``, or no ``v`` and ``_witness``'s scale."""
    if _cholesky_passes(h, tol):
        return None
    w = _require_finite([np.linalg.eigvalsh(h)])[0]
    N, s = h.shape[0], max(1.0, float(np.max(np.abs(w))))
    margin, lam = w[0] / s, float(w[0])
    if abs(margin + tol.tol_rel) <= _BAND * N or (
            margin == -1.0 and -lam - max(1.0, w[-1]) <= _BAND * N * s):
        found = _eigh_defect(h)
        return found if found[0] < -tol.tol_rel else None
    return (margin, lam, None, s) if margin < -tol.tol_rel else None


def _witness(h: np.ndarray, lam: float, s: float):
    """Unit ``v``, ``||h v - lam v|| <= 64 N eps s``, by inverse iteration, or ``None``."""
    N, bound = h.shape[0], _BAND * h.shape[0] * s
    A = _shift_diagonal(h, bound / 16 - lam)  # h - sigma I, sigma = lambda - 4 N eps s
    try:
        with np.errstate(all="ignore"):  # a breakdown fails the residual test
            v = np.linalg.solve(A, np.ones(N, dtype=A.dtype))
            v = np.linalg.solve(A, v / np.linalg.norm(v))
            v = v / np.linalg.norm(v)
            converged = np.linalg.norm(h @ v - lam * v) <= bound
    except np.linalg.LinAlgError:
        converged = False
    return v if converged else None


def worst_psd_defect(mats, tol: ToleranceConfig = DEFAULT_TOL, part=lambda M: M):
    """The first summand at the lowest margin where hermitian ``h = part(M)``
    (``M`` by default) fails ``lambda_min >= -tol_rel s``, ``s = max(1, max
    |lambda|)``, its margin, eigenvalue and unit ``v``, ``||h v - lambda v||
    <= 64 N eps s``; ``None`` if none fails.  ``eigh`` decides on the band,
    ranks near-ties and backs the witness, so verdicts are its own.  A -1,
    the lowest margin, ends the pass; non-finite values raise ``NonFinite``."""
    defects = []
    for k, M in enumerate(mats):
        if (found := _psd_margin(_require_finite([part(M)])[0], tol)) is not None:
            defects.append((found, k))
            if found[0] == -1.0:
                for rest in mats[k + 1:]:  # fail closed: an eigenvalue may
                    with np.errstate(over="ignore"):  # overflow where the norm does
                        norm = np.linalg.norm(_require_finite([part(rest)])[0])
                    if not np.isfinite(norm):
                        _psd_margin(part(rest), tol)
                break
    if not defects:
        return None
    cut = min(f[0] for f, _ in defects) + 2 * _BAND * max(M.shape[0] for M in mats)
    ties = [(f, k) for f, k in defects if f[0] <= cut]
    if len(ties) > 1:
        ties = [(f if f[0] == -1.0 else _eigh_defect(part(mats[k])), k) for f, k in ties]
    (margin, lam, v, s), k = min(ties, key=lambda fk: fk[0][0])
    if v is None:
        h = part(mats[k])
        if (v := _witness(h, lam, s)) is None:
            margin, lam, v, _ = _eigh_defect(h)
    return k, margin, lam, v


def psd_defect(h: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL):
    """``worst_psd_defect``'s margin, eigenvalue and vector of the one ``h``, or ``None``."""
    found = worst_psd_defect([h], tol)
    return None if found is None else found[1:]


def spectral_norms(stack: np.ndarray) -> np.ndarray:
    """2-norm of each matrix of a ``(..., k, k)`` stack, by one batched SVD;
    an infinite or NaN entry raises ``NonFinite``."""
    return np.linalg.norm(_require_finite([stack], "a matrix")[0], 2, axis=(-2, -1))


def hermitian_defects(stack: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Per matrix ``M`` of a ``(..., k, k)`` stack, whether it is not
    hermitian at tolerance: ``||M - M*|| > tol_rel * max(1, ||M||)``."""
    with np.errstate(over="ignore", invalid="ignore"):  # caught by spectral_norms
        skew = stack - stack.conj().swapaxes(-1, -2)
    return spectral_norms(skew) > tol.tol_rel * np.maximum(1.0, spectral_norms(stack))


def psd_margins(stack: np.ndarray, scale=None):
    """Positivity margins of the hermitian parts of a ``(..., k, k)`` stack,
    by one batched ``eigh`` (the same bits as one per matrix; ``eigvalsh``
    differs): the bottom eigenvalues, the margins ``lambda_min / max(1,
    scale)``, and a function from a stack index to that matrix's bottom unit
    eigenvector, the witness.  ``scale`` broadcasts against the leading axes
    and defaults to each matrix's ``max |lambda|``.  Fails closed: a
    non-finite hermitian part or eigenvalue raises ``NonFinite``."""
    with np.errstate(over="ignore", invalid="ignore"):  # caught just below
        h = _require_finite([_hermitian_part(stack)], "a matrix")[0]
    w, u = np.linalg.eigh(h)
    w = _require_finite([w], "a matrix")[0]
    lam = w[..., 0]
    floor = np.maximum(1.0, np.abs(w).max(axis=-1) if scale is None else scale)
    return lam, lam / floor, lambda index: u[index][:, 0].copy()


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
