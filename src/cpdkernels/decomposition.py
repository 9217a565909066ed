"""Factorizations of positive and conditionally positive definite kernels.

A positive definite kernel factors as ``L(s,t) = V(s)* V(t)`` with module
elements ``V(s)`` obtained from a truncated eigendecomposition of the
assembled Gram matrix; a conditionally positive definite kernel is recovered
from the factorization of its base-point shift plus a pointwise affine
correction.  A conditionally positive matrix with self-adjoint entries and
zero diagonal splits into a sum of tables ``[-|e_i - e_j|^2]``, and the order
``K' <= K`` (difference conditionally positive definite) is certified by a
contraction mapping one factorization onto the other.

Factor maps are unique only up to a left unitary, so callers must compare
gauge-invariant quantities (inner products, ranks, singular values), never
raw factor entries.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .algebra import (
    DEFAULT_TOL,
    AlgebraDescriptor,
    AlgebraElement,
    DimensionMismatch,
    ModuleElement,
    ToleranceConfig,
    _hermitian_part,
    spectral_norms,
)
from .kernels import (
    IndexSet,
    Kernel,
    Verdict,
    _assembled,
    _Points,
    _cpd_input,
    _cpd_verdict,
    _shifted,
    is_conditionally_positive_definite,
    is_positive_definite,
    kernel_norm,
    shift_transform,
)

__all__ = [
    "Factorization",
    "CPDDecomposition",
    "MajorizationCertificate",
    "PreconditionFailure",
    "factor_pd",
    "factor_kernel",
    "decompose_cpd",
    "reconstruct_cpd",
    "sum_sq_diff_decomposition",
    "sum_sq_diff_reconstruct",
    "kernel_leq",
    "majorized_kernel",
    "recover_contraction",
]


class PreconditionFailure(ValueError):
    """A structural or mathematical precondition does not hold.

    When the failure is a positivity property, ``verdict`` carries the
    eigenvector witness.
    """

    def __init__(self, message: str, verdict: Verdict | None = None):
        super().__init__(message)
        self.verdict = verdict


@dataclass(frozen=True, eq=False)
class Factorization:
    """Minimal factorization ``L(s,t) = V(s)* V(t)`` of a PD kernel.

    ``ranks[k]`` is the numerical rank of the k-th assembled Gram summand.
    ``V`` may be given as any mapping from the labels to module elements of
    ``descriptor`` and ``ranks``; it is held as a read-only mapping in set
    order, stored as arrays.
    """

    index_set: IndexSet
    descriptor: AlgebraDescriptor
    ranks: tuple[int, ...]
    V: Mapping[str, ModuleElement]

    def __post_init__(self):
        V, ranks = _Points.of(self.index_set, self.V), tuple(int(r) for r in self.ranks)
        if (V.descriptor, V.ranks or V.descriptor.summand_dims) != (self.descriptor, ranks):
            raise DimensionMismatch("factor points do not match the descriptor and the ranks")
        object.__setattr__(self, "V", V)


@dataclass(frozen=True, eq=False)
class CPDDecomposition:
    """Kolmogorov-type decomposition of a CPD kernel at a base point:
    ``K(s,t) = 2 V(s)*V(t) - V(s)*V(s) - V(t)*V(t) - h(s) - h(t)*``; ``h``, of
    elements of the factorization's algebra, is held as ``Factorization.V`` is."""

    factorization: Factorization
    h: Mapping[str, AlgebraElement]
    base_point: str

    def __post_init__(self):
        self.factorization.index_set.index(self.base_point)  # UnknownLabel if absent
        h, desc = _Points.of(self.factorization.index_set, self.h), self.factorization.descriptor
        if (h.descriptor, h.ranks or h.descriptor.summand_dims) != (desc, desc.summand_dims):
            raise DimensionMismatch("affine part is not of the factorization's algebra")
        object.__setattr__(self, "h", h)


@dataclass(frozen=True, eq=False)
class MajorizationCertificate:
    """Certificate for ``K' <= K``: a per-summand contraction ``W`` with
    ``V'(s) = W V(s)``, the positive operator ``C = W* W``, the residual
    ``max_s ||V'(s) - W V(s)||`` and ``||W||``."""

    W: tuple[np.ndarray, ...]
    C: tuple[np.ndarray, ...]
    residual: float
    norm_W: float


def _top_eigenpairs(G: np.ndarray, tol: ToleranceConfig):
    """Eigenpairs of the hermitian part of ``G``, eigenvalues descending and
    cut at ``rank_tol_rel * max(1, lambda_max)``."""
    w, u = np.linalg.eigh(_hermitian_part(G))
    order = np.argsort(w)[::-1]
    w, u = w[order], u[:, order]
    keep = w > tol.rank_tol_rel * max(1.0, float(w[0]) if w.size else 0.0)
    return w[keep], u[:, keep]


def factor_pd(
    L: Kernel, tol: ToleranceConfig = DEFAULT_TOL, *, check: bool = True
) -> Factorization:
    """Factor a positive definite kernel as ``L(s,t) = V(s)* V(t)``.

    Per summand the assembled Gram matrix is eigendecomposed, eigenvalues are
    sorted descending and truncated at ``rank_tol_rel * max(1, lambda_max)``,
    and the stacked factor ``diag(sqrt(lambda)) U*`` is sliced into the
    ``V(s)`` blocks.  The output is deterministic up to the left unitary
    gauge freedom of the eigensolver.

    ``check=False`` means the caller has already established that ``L`` is
    positive and hermitian; ``L`` is then neither validated nor decided.

    Raises
    ------
    PreconditionFailure
        If ``check`` is set and ``L`` fails the positivity test.
    """
    if check:
        verdict = is_positive_definite(L, tol)
        if not verdict.holds:
            raise PreconditionFailure("kernel is not positive definite", verdict)
    n, points = L.n, []
    for S, d, G in zip(L._stacks, L.descriptor.summand_dims, L._grams):
        w, u = _top_eigenpairs(G, tol)
        X = (np.sqrt(w)[:, None] * u.conj().T).reshape(w.size, n, d).swapaxes(0, 1)
        # A label whose Gram diagonal block is exactly zero factors through
        # the origin; snap it there so eigensolver noise cannot displace it.
        points.append(np.where(S[range(n), range(n)].any(axis=(1, 2))[:, None, None], X, 0.0))
    ranks = tuple(X.shape[1] for X in points)
    return Factorization(L.index_set, L.descriptor, ranks,
                         _Points(L.index_set, L.descriptor, points, ranks))


def _cross(X: np.ndarray, P=None) -> np.ndarray:
    """``V(s_i)* P V(s_j)`` (``P = I`` when ``None``) as an ``(n, n, d, d)``
    stack, from the ``(n, r, d)`` points of one summand."""
    Y = X.conj().swapaxes(-1, -2)
    return (Y if P is None else Y @ P)[:, None] @ X[None, :]


def _kolmogorov(X: np.ndarray, P=None, H=None) -> np.ndarray:
    """``2 F(s,t) - F(s,s) - F(t,t)``, then ``- h(s) - h(t)*`` when the
    ``(n, d, d)`` affine part ``H`` is given, with ``F = _cross(X, P)``: the
    one table form behind the reconstruction and the majorized kernels."""
    F = _cross(X, P)
    D = F[range(len(X)), range(len(X))]
    S = 2.0 * F - D[:, None] - D[None, :]
    return S if H is None else S - H[:, None] - H.conj().swapaxes(-1, -2)[None, :]


def _squared_differences(families, n: int, d: int) -> np.ndarray:
    """``-sum_k |e_k(s) - e_k(t)|^2`` as an ``(n, n, d, d)`` stack, from the
    ``(n, r, d)`` points of each family in one summand.  The sum starts from
    zeros, so an entry no family moves is ``+0``, not ``-0``."""
    acc = np.zeros((n, n, d, d), dtype=np.complex128)
    for X in families:
        delta = X[:, None] - X[None, :]
        acc = acc - delta.conj().swapaxes(-1, -2) @ delta
    return acc


def factor_kernel(fact: Factorization) -> Kernel:
    """The Gram kernel ``(s,t) -> V(s)* V(t)`` of a factorization."""
    return Kernel._of(fact.index_set, fact.descriptor,
                      [_assembled(_cross(X)) for X in fact.V._arrays])


def _cpd_factor(K: Kernel, s0: str, tol: ToleranceConfig) -> Factorization:
    """Decide a kernel whose hermiticity is settled CPD, once, then factor
    its base-point shift at ``s0``, which that decision proves positive."""
    verdict = _cpd_verdict(K, tol)
    if not verdict.holds:
        raise PreconditionFailure("kernel is not conditionally positive definite", verdict)
    return factor_pd(shift_transform(K, s0, tol), tol, check=False)


def decompose_cpd(
    K: Kernel, s0: str, tol: ToleranceConfig = DEFAULT_TOL
) -> CPDDecomposition:
    """Decompose a CPD kernel at base point ``s0``.

    The base-point shift is factored, and the affine correction is
    ``h(s) = -K(s,s)/2 - i Im K(s,s0)``; together they reconstruct ``K``
    exactly for any hermitian input.
    """
    fact = _cpd_factor(_cpd_input(K, tol), s0, tol)
    i0, n = K.index_set.index(s0), K.n
    H = [(-0.5) * S[range(n), range(n)] - 1j * ((S[:, i0] - S[:, i0].conj().swapaxes(1, 2)) / 2j)
         for S in K._stacks]  # im_part's arithmetic: the same bits
    return CPDDecomposition(fact, _Points(K.index_set, K.descriptor, H), s0)


def reconstruct_cpd(dec: CPDDecomposition) -> Kernel:
    """Evaluate ``2 V(s)*V(t) - V(s)*V(s) - V(t)*V(t) - h(s) - h(t)*``."""
    fact = dec.factorization
    return Kernel._of(fact.index_set, fact.descriptor, [
        _assembled(_kolmogorov(X, H=H)) for X, H in zip(fact.V._arrays, dec.h._arrays)])


def sum_sq_diff_decomposition(
    K: Kernel, tol: ToleranceConfig = DEFAULT_TOL
) -> list[Mapping[str, AlgebraElement]]:
    """Split a self-adjoint, zero-diagonal conditionally positive table into
    families realizing ``K(s_i, s_j) = -sum_k |e_i^k - e_j^k|^2``.

    The table is shifted at the last label into a positive matrix, each
    assembled summand is expanded into rank-one terms ``v v*``, and each
    eigenvector block is lifted into the algebra through the fixed first-row
    embedding ``d_i = e_1 v_i*`` (any lifting with ``d_i* d_j = v_i v_j*``
    would do); the families are the lifted blocks scaled by ``1/sqrt(2)``.
    Families are ordered by summand, then by descending eigenvalue; each is a
    read-only mapping in set order, stored as arrays.

    Raises
    ------
    PreconditionFailure
        If an entry is not self-adjoint, a diagonal entry is nonzero, or the
        conditional positivity test fails.
    """
    n, labels = K.n, K.index_set.labels
    found = _shape_offender(K, slice(None), tol)
    if found is not None:
        i, j = found
        raise PreconditionFailure(
            f"diagonal entry at {labels[i]!r} is not zero" if j < 0 else
            f"kernel entries must be self-adjoint (offender at ({labels[i]!r}, {labels[j]!r}))")
    verdict = is_conditionally_positive_definite(K, tol)
    if not verdict.holds:
        raise PreconditionFailure("kernel is not conditionally positive definite", verdict)

    desc, families = K.descriptor, []
    for k, (d, G) in enumerate(zip(desc.summand_dims, K._grams)):
        w, u = _top_eigenpairs(_shifted(G, n, n - 1), tol)
        for alpha in range(w.size):
            arrays = [np.zeros((n, dk, dk), dtype=np.complex128) for dk in desc.summand_dims]
            arrays[k][:, 0] = (np.sqrt(w[alpha]) * u[:, alpha]).reshape(n, d).conj()
            arrays[k] /= np.sqrt(2.0)
            families.append(_Points(K.index_set, desc, arrays))
    return families


def sum_sq_diff_reconstruct(
    families, index_set: IndexSet, descriptor: AlgebraDescriptor
) -> Kernel:
    """Evaluate ``-sum_k |e_i^k - e_j^k|^2`` back into a kernel table; the
    inverse of ``sum_sq_diff_decomposition`` up to roundoff."""
    arrays = [_Points.of(index_set, fam)._arrays for fam in families]
    return Kernel._of(index_set, descriptor, [
        _assembled(_squared_differences([X[k] for X in arrays], index_set.n, d))
        for k, d in enumerate(descriptor.summand_dims)])


def kernel_leq(K1: Kernel, K2: Kernel, tol: ToleranceConfig = DEFAULT_TOL) -> Verdict:
    """Order ``K1 <= K2``: the difference ``K2 - K1`` is conditionally
    positive definite; ``K1`` and ``K2`` are validated, not the difference."""
    K1._check_compatible(K2)
    return _cpd_verdict(_cpd_input(K2, tol) - _cpd_input(K1, tol), tol)


def majorized_kernel(fact: Factorization, operator_blocks) -> Kernel:
    """Kernel ``(s,t) -> 2 V(s)*P V(t) - V(s)*P V(s) - V(t)*P V(t)`` for a
    per-summand positive operator ``P`` on the factor space.

    With ``P = C0* C0`` for a contraction ``C0`` this produces exactly the
    kernels majorized by the one ``fact`` factors.
    """
    P = [np.asarray(p, dtype=np.complex128) for p in operator_blocks]
    if len(P) != fact.descriptor.num_summands:
        raise DimensionMismatch("one operator block per summand required")
    for p, r in zip(P, fact.ranks):
        if p.shape != (r, r):
            raise DimensionMismatch("operator block does not match factor rank")
    return Kernel._of(fact.index_set, fact.descriptor,
                      [_assembled(_kolmogorov(X, p)) for X, p in zip(fact.V._arrays, P)])


def _shape_offender(K: Kernel, cols, tol: ToleranceConfig):
    """The first row ``i`` where ``K(s_i, s_i) = 0`` fails, ``(i, -1)``, or
    else ``K(s_i, s_j)`` self-adjoint for the ``j``-th column of ``cols``,
    ``(i, j)``; ``None`` if none.  Each holds up to ``tol_rel * max(1,
    kernel_norm(K))`` in the 2-norm over summands, by batched calls."""
    with np.errstate(over="ignore", invalid="ignore"):  # caught by spectral_norms
        skews = [S[:, cols] - S[:, cols].conj().swapaxes(-1, -2) for S in K._stacks]
    norms = np.column_stack([K._norms.diagonal(),
                             np.max([spectral_norms(D) for D in skews], axis=0)])
    bad = norms > tol.tol_rel * max(1.0, float(K._norms.max()))
    if not bad.any():
        return None
    i, c = divmod(int(np.argmax(bad)), bad.shape[1])
    return i, c - 1


def _check_pro1_shape(K: Kernel, s0: str, tol: ToleranceConfig, name: str) -> None:
    found = _shape_offender(K, [K.index_set.index(s0)], tol)
    if found is not None:
        raise PreconditionFailure(f"{name} must vanish on the diagonal" if found[1] < 0 else
                                  f"{name}(s, {s0!r}) must be self-adjoint for every s")


def recover_contraction(
    K: Kernel, Kp: Kernel, s0: str, tol: ToleranceConfig = DEFAULT_TOL
) -> MajorizationCertificate:
    """Recover the contraction carrying the factorization of ``K`` onto that
    of a majorized kernel ``Kp``.

    Both kernels must vanish on the diagonal and have self-adjoint values
    against the base point, which forces the affine corrections to vanish;
    ``W`` is the least-squares solution of ``W V_stack = V'_stack`` per
    summand with small singular values discarded.  The certificate is only
    returned when the residual is negligible, ``||W|| <= 1`` up to
    tolerance, and the recovered positive operator reproduces ``Kp``.

    Raises
    ------
    PreconditionFailure
        On violated hypotheses, a failed order check ``Kp <= K`` (with
        witness), or when ``Kp`` is not representable through a contraction
        of the factorization (residual above tolerance).
    """
    K._check_compatible(Kp)
    _check_pro1_shape(K, s0, tol, "K")
    _check_pro1_shape(Kp, s0, tol, "Kp")
    order = kernel_leq(Kp, K, tol)  # validates K and Kp, once each
    if not order.holds:
        raise PreconditionFailure("Kp is not majorized by K", order)

    fact, factp = _cpd_factor(K, s0, tol), _cpd_factor(Kp, s0, tol)

    W, residual, norm_W = [], 0.0, 0.0
    for X, Xp in zip(fact.V._arrays, factp.V._arrays):
        # The V(s_i) blocks side by side, as one (r, n d) matrix.
        vs, vps = (np.hstack(Y) for Y in (X, Xp))
        if vs.shape[0] == 0:
            wk = np.zeros((vps.shape[0], 0), dtype=np.complex128)
        else:
            wk = vps @ np.linalg.pinv(vs, rcond=tol.rank_tol_rel)
        W.append(wk)
        norm_W = max(norm_W, float(spectral_norms(wk)))
        residual = max(residual, float(spectral_norms(vps - wk @ vs)))

    # 1 + max_s ||V'(s)||, by one batched SVD over the points of each summand.
    scale_v = 1.0 + max(float(spectral_norms(Xp).max()) for Xp in factp.V._arrays)
    loose = np.sqrt(tol.tol_rel)
    if residual > loose * scale_v:
        raise PreconditionFailure(
            f"residual {residual:.3e} exceeds tolerance: Kp is not representable "
            "through a contraction of the factorization"
        )
    if norm_W > 1.0 + loose:
        raise PreconditionFailure(f"recovered map has norm {norm_W:.6f} > 1")

    C = tuple(wk.conj().T @ wk for wk in W)
    recon = majorized_kernel(fact, C)
    err = kernel_norm(recon - Kp)
    if err > loose * (1.0 + kernel_norm(K)):
        raise PreconditionFailure(f"reconstruction error {err:.3e} exceeds tolerance")
    return MajorizationCertificate(tuple(W), C, float(residual), float(norm_W))
