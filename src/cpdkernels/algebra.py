"""Finite-dimensional C*-algebra arithmetic.

The algebra is a direct sum of full complex matrix algebras.  An element is a
list of square complex blocks, one per summand; every operation acts blockwise.
Module elements (rectangular blocks over the same summand structure) model
elements of the column Hilbert C*-module, with the algebra-valued inner product
``<x, y> = x* y`` taken per block.  The algebra is a module over itself: an
``AlgebraElement`` is the ``ModuleElement`` whose ranks are the summand sizes,
and the module functions accept it.

Positivity is decided by hermitian eigendecomposition with a relative
tolerance: an element passes if it is hermitian within ``tol_rel`` and every
block satisfies ``lambda_min >= -tol_rel * max(1, ||block||)``.  For the
kernel tests, ``worst_psd_defect`` tries Cholesky on each summand shifted by
``tol_rel / 2 * max(1, max |diagonal|)`` (unless a diagonal entry is below
minus the shift); by its backward error (Higham, 2002, ch. 10) success
proves a pass.  Else ``eigvalsh`` decides, or ``eigh`` near the threshold; a
margin of -1 ends the pass, and only the reported summand gets a witness.
``psd_margins`` decides a family of stacks, one per summand, for the per-pair
and metric checks: the same Cholesky, batched, passes it, else batched ``eigh``.
"""

from __future__ import annotations

from dataclasses import dataclass
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


def _hermitian_part(a: np.ndarray) -> np.ndarray:
    """``(a + a*) / 2`` of a matrix, or of each matrix of a stack.  An
    overflow is left to the caller: decisions raise ``NonFinite`` on it."""
    with np.errstate(over="ignore", invalid="ignore"):
        h = np.add(a, a.conj().swapaxes(-1, -2))  # one temporary, halved in place
        return np.multiply(h, 0.5, out=h)


def _abs(b: np.ndarray) -> np.ndarray:
    """``|b| = (b* b)^(1/2)`` of a matrix, or of each matrix of a stack: the
    principal root, clamping negative eigenvalues of ``b* b`` to zero so
    roundoff on the semidefinite boundary cannot produce complex output.  An
    overflow raises ``NonFinite``."""
    with np.errstate(over="ignore", invalid="ignore"):  # caught by _require_finite
        h = _require_finite([_hermitian_part(b.conj().swapaxes(-1, -2) @ b)], "a matrix")[0]
    w, u = np.linalg.eigh(h)
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
class ModuleElement:
    """An element of the column module: one ``r_k x d_k`` block per summand.

    The k-th block is a point of the module ``A_k^{r_k}`` over the k-th matrix
    summand; ``module_inner`` recovers the algebra-valued inner product.  The
    blockwise ``+``, ``-``, negation and scalar ``*`` return the left
    operand's class.
    """

    descriptor: AlgebraDescriptor
    ranks: tuple[int, ...]
    blocks: tuple[np.ndarray, ...]

    _mismatch = "module elements have different shapes"

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

    def _like(self, blocks) -> ModuleElement:
        """An element of ``self``'s class, descriptor and ranks with ``blocks``."""
        if isinstance(self, AlgebraElement):
            return AlgebraElement(self.descriptor, blocks)
        return ModuleElement(self.descriptor, self.ranks, blocks)

    def _check_compatible(self, other: ModuleElement) -> None:
        if self.descriptor != other.descriptor or self.ranks != other.ranks:
            raise DimensionMismatch(self._mismatch)

    def __add__(self, other: ModuleElement) -> ModuleElement:
        self._check_compatible(other)
        return self._like([a + b for a, b in zip(self.blocks, other.blocks)])

    def __sub__(self, other: ModuleElement) -> ModuleElement:
        self._check_compatible(other)
        return self._like([a - b for a, b in zip(self.blocks, other.blocks)])

    def __neg__(self) -> ModuleElement:
        return self._like([-a for a in self.blocks])

    def __mul__(self, scalar) -> ModuleElement:
        if not isinstance(scalar, Number):
            return NotImplemented
        return self._like([scalar * a for a in self.blocks])

    __rmul__ = __mul__


@dataclass(frozen=True, eq=False)
class AlgebraElement(ModuleElement):
    """An element of the algebra: one square complex block per summand.  The
    algebra is a module over itself, ``<a, b> = a* b``, so an element is the
    module element whose ``ranks`` are the summand sizes."""

    _mismatch = "descriptors differ"

    def __init__(self, descriptor: AlgebraDescriptor, blocks):
        blocks = tuple(_freeze(b) for b in blocks)
        if len(blocks) != descriptor.num_summands:
            raise DimensionMismatch(f"expected {descriptor.num_summands} blocks, got {len(blocks)}")
        for k, (b, d) in enumerate(zip(blocks, descriptor.summand_dims)):
            if b.shape != (d, d):
                raise DimensionMismatch(f"block {k} has shape {b.shape}, expected ({d}, {d})")
        super().__init__(descriptor, descriptor.summand_dims, blocks)

    @classmethod
    def zero(cls, descriptor: AlgebraDescriptor) -> AlgebraElement:
        return cls(descriptor, [np.zeros((d, d)) for d in descriptor.summand_dims])

    @classmethod
    def identity(cls, descriptor: AlgebraDescriptor) -> AlgebraElement:
        return cls(descriptor, [np.eye(d) for d in descriptor.summand_dims])

    def __matmul__(self, other: AlgebraElement) -> AlgebraElement:
        """Algebra product: blockwise matrix multiplication."""
        self._check_compatible(other)
        return self._like([a @ b for a, b in zip(self.blocks, other.blocks)])


def adjoint(x: AlgebraElement) -> AlgebraElement:
    """Blockwise conjugate transpose."""
    return AlgebraElement(x.descriptor, [b.conj().T for b in x.blocks])


def is_positive(x: AlgebraElement, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Whether ``x`` is a positive element of the algebra.

    True iff ``x`` is hermitian within tolerance and every block has
    ``lambda_min >= -tol_rel * max(1, ||block||)``, decided by
    ``worst_psd_defect``.  Non-hermitian input is reported as not positive
    rather than rejected; a non-finite block or hermitian part raises
    ``NonFinite``.
    """
    if any(hermitian_defects(b, tol) for b in x.blocks):
        return False
    return worst_psd_defect(map(_hermitian_part, x.blocks), tol) is None


def _cholesky_passes(H: np.ndarray, tol: ToleranceConfig) -> bool:
    """Sufficient test that hermitian ``H`` of order ``N``, or each matrix of a
    ``(..., N, N)`` stack, passes ``lambda_min >= -tol_rel * max(1, max |lambda|)``.

    ``s_lo = max(1, max |H_ii|)``, per matrix, is at most the rule's scale,
    since a hermitian diagonal lies within the spectrum.  If Cholesky runs to
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
    N, c = H.shape[-1], 0.5  # c: the share of tol_rel spent on the shift
    u = np.finfo(np.float64).eps / 2
    g = 4 * (N + 1) * u
    if g * N * (1 + c * tol.tol_rel) / (1 - g) + 2 * N * u > (1 - c) * tol.tol_rel:
        return False
    s_lo = np.maximum(1.0, np.abs(diag := np.diagonal(H, axis1=-2, axis2=-1)).max(axis=-1))
    if (diag.real.min(axis=-1) + (shift := c * tol.tol_rel * s_lo) <= 0).any():
        return False  # a pivot is at most its diagonal entry: it would fail
    try:
        np.linalg.cholesky(_shift_diagonal(H, shift))
    except np.linalg.LinAlgError:
        return False
    return True


def _shift_diagonal(H: np.ndarray, c) -> np.ndarray:
    """``H + c I`` in fresh memory, ``c`` broadcast against a stack's leading axes."""
    A = H.astype(np.result_type(H, 1.0))
    np.einsum("...ii->...i", A)[...] += np.expand_dims(c, -1)
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


def worst_psd_defect(hs, tol: ToleranceConfig = DEFAULT_TOL):
    """The first summand at the lowest margin where hermitian ``h`` of ``hs``
    fails ``lambda_min >= -tol_rel s``, ``s = max(1, max |lambda|)``, its
    margin, eigenvalue and unit ``v``, ``||h v - lambda v|| <= 64 N eps s``;
    ``None`` if none fails.  ``hs`` may be an iterator: each ``h`` is checked
    finite and decided once, and only a failing one is kept.  ``eigh``
    decides on the band, ranks near-ties and backs the witness, so verdicts
    are its own.  A -1, the lowest margin, ends the pass; non-finite values
    raise ``NonFinite``."""
    defects, order, hs = [], 0, iter(hs)
    for k, h in enumerate(hs):
        order = max(order, h.shape[0])
        if (found := _psd_margin(_require_finite([h])[0], tol)) is not None:
            defects.append((found, k, h))
            if found[0] == -1.0:
                for rest in hs:  # fail closed: an eigenvalue may
                    order = max(order, rest.shape[0])
                    with np.errstate(over="ignore"):  # overflow where the norm does
                        if not np.isfinite(np.linalg.norm(_require_finite([rest])[0])):
                            _psd_margin(rest, tol)
                break
    if not defects:
        return None
    cut = min(f[0] for f, _, _ in defects) + 2 * _BAND * order
    ties = [(f, k, h) for f, k, h in defects if f[0] <= cut]
    if len(ties) > 1:
        ties = [(f if f[0] == -1.0 else _eigh_defect(h), k, h) for f, k, h in ties]
    (margin, lam, v, s), k, h = min(ties, key=lambda fkh: fkh[0][0])
    if v is None and (v := _witness(h, lam, s)) is None:
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


def psd_margins(stacks, tol: ToleranceConfig = DEFAULT_TOL, by_norm: bool = False):
    """Decide a family: the hermitian parts of one ``(..., k, k)`` stack per
    summand, all with the same leading shape.  All pass if ``_cholesky_passes``
    passes each stack; else one batched ``eigh`` per stack (the same bits as
    one per matrix) gives each matrix the margin ``lambda_min / max(1, s)``,
    ``s`` its ``max |lambda|`` or, ``by_norm``, its element's C*-norm (the
    largest 2-norm over summands).  Per leading index: whether some summand's
    margin is below ``-tol_rel``, the lowest margin (``None`` on a pass), and
    the witness ``(summand, lambda, v)``, ``v`` a bottom unit eigenvector, of
    the first summand at it, as a function of the index.  Fails closed: a
    non-finite hermitian part or eigenvalue raises ``NonFinite``."""
    parts = _require_finite([_hermitian_part(S) for S in stacks], "a matrix")
    if all(_cholesky_passes(h, tol) for h in parts):
        return np.zeros(parts[0].shape[:-2], dtype=bool), None, None
    norm = np.max([spectral_norms(S) for S in stacks], axis=0) if by_norm else None
    found = []
    for w, u in map(np.linalg.eigh, parts):
        _require_finite([w], "a matrix")
        floor = np.maximum(1.0, np.abs(w).max(axis=-1) if norm is None else norm)
        found.append((w[..., 0], w[..., 0] / floor, u))
    margins = np.stack([m for _, m, _ in found], axis=-1)
    margin = margins.min(axis=-1)

    def witness(index):
        k = int(np.argmin(margins[index]))
        lam, _, u = found[k]
        return k, float(lam[index]), u[index][:, 0].copy()

    return margin < -tol.tol_rel, margin, witness


def leq(x: AlgebraElement, y: AlgebraElement, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Order relation ``x <= y`` in the positive cone: ``y - x`` positive."""
    return is_positive(y - x, tol)


def re_part(x: AlgebraElement) -> AlgebraElement:
    """Hermitian part ``(x + x*) / 2``; an overflow raises ``NonFinite``."""
    return AlgebraElement(
        x.descriptor, _require_finite([_hermitian_part(b) for b in x.blocks], "a real part"))


def im_part(x: AlgebraElement) -> AlgebraElement:
    """Anti-hermitian part ``(x - x*) / (2i)``; ``x = re + i*im`` exactly.
    An overflow raises ``NonFinite``."""
    with np.errstate(over="ignore", invalid="ignore"):  # caught by _require_finite
        blocks = [(b - b.conj().T) / 2j for b in x.blocks]
    return AlgebraElement(x.descriptor, _require_finite(blocks, "an imaginary part"))


def module_inner(x: ModuleElement, y: ModuleElement) -> AlgebraElement:
    """Algebra-valued inner product ``<x, y> = x* y``, blockwise."""
    x._check_compatible(y)
    return AlgebraElement(
        x.descriptor, [a.conj().T @ b for a, b in zip(x.blocks, y.blocks)]
    )


def module_abs(x: ModuleElement) -> AlgebraElement:
    """Module absolute value ``|x| = <x, x>^(1/2)``, the blockwise principal
    root; an overflow raises ``NonFinite``."""
    return AlgebraElement(x.descriptor, [_abs(b) for b in x.blocks])


def module_norm(x: ModuleElement) -> float:
    """Module norm ``||x|| = ||<x, x>||^(1/2)``: the largest singular value
    over all blocks; an infinite or NaN entry raises ``NonFinite``."""
    return max(float(spectral_norms(b)) for b in x.blocks)


# The algebra is a module over itself: on an algebra element, the module
# absolute value is ``(x* x)^(1/2)`` and the module norm is the C*-norm.
abs_value, op_norm = module_abs, module_norm
