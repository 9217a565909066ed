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

from dataclasses import dataclass

import numpy as np

from .algebra import (
    DEFAULT_TOL,
    AlgebraDescriptor,
    AlgebraElement,
    DimensionMismatch,
    ModuleElement,
    ToleranceConfig,
    _spec_norm,
    module_norm,
    spectral_norms,
)
from .kernels import (
    IndexSet,
    Kernel,
    Verdict,
    _assembled,
    _require_hermitian,
    _shifted,
    assemble_gram,
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
    """

    index_set: IndexSet
    descriptor: AlgebraDescriptor
    ranks: tuple[int, ...]
    V: dict[str, ModuleElement]

    def stacked(self, k: int) -> np.ndarray:
        """Horizontal concatenation of all V(s_i) blocks of summand k."""
        return np.hstack([self.V[s].blocks[k] for s in self.index_set.labels])


@dataclass(frozen=True, eq=False)
class CPDDecomposition:
    """Kolmogorov-type decomposition of a CPD kernel at a base point:
    ``K(s,t) = 2 V(s)*V(t) - V(s)*V(s) - V(t)*V(t) - h(s) - h(t)*``."""

    factorization: Factorization
    h: dict[str, AlgebraElement]
    base_point: str


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
    w, u = np.linalg.eigh(0.5 * (G + G.conj().T))
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

    Raises
    ------
    PreconditionFailure
        If ``check`` is set and ``L`` fails the positivity test.
    """
    if check:
        verdict = is_positive_definite(L, tol)
        if not verdict.holds:
            raise PreconditionFailure("kernel is not positive definite", verdict)
    dims, ranks, factors = L.descriptor.summand_dims, [], []
    grams = assemble_gram(L, tol)
    for w, u in (_top_eigenpairs(G, tol) for G in grams):
        ranks.append(w.size)
        factors.append(np.sqrt(w)[:, None] * u.conj().T)
    # A label whose Gram diagonal block is exactly zero factors through the
    # origin; snap it there so eigensolver noise cannot displace it.
    for F, d, S in zip(factors, dims, L._stacks):
        for i in range(L.n):
            if not np.any(S[i, i]):
                F[:, i * d : (i + 1) * d] = 0.0
    V = {}
    for i, s in enumerate(L.index_set.labels):
        blocks = [F[:, i * d : (i + 1) * d] for F, d in zip(factors, dims)]
        V[s] = ModuleElement(L.descriptor, ranks, blocks)
    return Factorization(L.index_set, L.descriptor, tuple(ranks), V)


def _points(fact: Factorization) -> list[np.ndarray]:
    """Per summand, the ``V(s_i)`` blocks as one ``(n, r, d)`` array."""
    return [np.array([fact.V[s].blocks[k] for s in fact.index_set.labels])
            for k in range(fact.descriptor.num_summands)]


def _cross(X: np.ndarray, P=None) -> np.ndarray:
    """``V(s_i)* P V(s_j)`` (``P = I`` when ``None``) as an ``(n, n, d, d)``
    stack, from the ``(n, r, d)`` points of one summand."""
    Y = X.conj().swapaxes(-1, -2)
    return (Y if P is None else Y @ P)[:, None] @ X[None, :]


def factor_kernel(fact: Factorization) -> Kernel:
    """The Gram kernel ``(s,t) -> V(s)* V(t)`` of a factorization."""
    return Kernel._of(fact.index_set, fact.descriptor,
                      [_assembled(_cross(X)) for X in _points(fact)])


def decompose_cpd(
    K: Kernel, s0: str, tol: ToleranceConfig = DEFAULT_TOL
) -> CPDDecomposition:
    """Decompose a CPD kernel at base point ``s0``.

    The base-point shift is factored, and the affine correction is
    ``h(s) = -K(s,s)/2 - i Im K(s,s0)``; together they reconstruct ``K``
    exactly for any hermitian input.
    """
    verdict = is_conditionally_positive_definite(K, tol)
    if not verdict.holds:
        raise PreconditionFailure("kernel is not conditionally positive definite", verdict)
    L = shift_transform(K, s0, tol)
    # Conditional positivity of K already certifies positivity of the shift;
    # rechecking against a differently anchored matrix could only disagree on
    # inputs sitting exactly on the tolerance boundary.
    fact = factor_pd(L, tol, check=False)
    i0, n = K.index_set.index(s0), K.n
    H = [(-0.5) * S[range(n), range(n)] - 1j * ((S[:, i0] - S[:, i0].conj().swapaxes(1, 2)) / 2j)
         for S in K._stacks]  # im_part's arithmetic: the same bits
    h = {s: AlgebraElement(K.descriptor, [X[i] for X in H])
         for i, s in enumerate(K.index_set.labels)}
    return CPDDecomposition(fact, h, s0)


def reconstruct_cpd(dec: CPDDecomposition) -> Kernel:
    """Evaluate ``2 V(s)*V(t) - V(s)*V(s) - V(t)*V(t) - h(s) - h(t)*``."""
    fact = dec.factorization
    n, labels = fact.index_set.n, fact.index_set.labels
    grams = []
    for k, X in enumerate(_points(fact)):
        C = _cross(X)
        D = C[range(n), range(n)]
        H = np.array([dec.h[s].blocks[k] for s in labels])
        grams.append(_assembled(
            2.0 * C - D[:, None] - D[None, :] - H[:, None] - H.conj().swapaxes(-1, -2)[None, :]))
    return Kernel._of(fact.index_set, fact.descriptor, grams)


def sum_sq_diff_decomposition(
    K: Kernel, tol: ToleranceConfig = DEFAULT_TOL
) -> list[dict[str, AlgebraElement]]:
    """Split a self-adjoint, zero-diagonal conditionally positive table into
    families realizing ``K(s_i, s_j) = -sum_k |e_i^k - e_j^k|^2``.

    The table is shifted at the last label into a positive matrix, each
    assembled summand is expanded into rank-one terms ``v v*``, and each
    eigenvector block is lifted into the algebra through the fixed first-row
    embedding ``d_i = e_1 v_i*`` (any lifting with ``d_i* d_j = v_i v_j*``
    would do); the families are the lifted blocks scaled by ``1/sqrt(2)``.
    Families are ordered by summand, then by descending eigenvalue.

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

    shifted = [_shifted(G, n, n - 1) for G in K._grams]
    desc = K.descriptor
    families: list[dict[str, AlgebraElement]] = []
    for k, (d, B) in enumerate(zip(desc.summand_dims, _require_hermitian(shifted, n, tol))):
        w, u = _top_eigenpairs(B, tol)
        zeros = [np.zeros((dk, dk)) for dk in desc.summand_dims]
        for alpha in range(w.size):
            lifts = np.zeros((n, d, d), dtype=np.complex128)
            lifts[:, 0] = (np.sqrt(w[alpha]) * u[:, alpha]).reshape(n, d).conj()
            lifts /= np.sqrt(2.0)
            families.append({s: AlgebraElement(desc, zeros[:k] + [lifts[i]] + zeros[k + 1 :])
                             for i, s in enumerate(K.index_set.labels)})
    return families


def sum_sq_diff_reconstruct(
    families, index_set: IndexSet, descriptor: AlgebraDescriptor
) -> Kernel:
    """Evaluate ``-sum_k |e_i^k - e_j^k|^2`` back into a kernel table; the
    inverse of ``sum_sq_diff_decomposition`` up to roundoff."""
    n, labels = index_set.n, index_set.labels
    grams = []
    for k, d in enumerate(descriptor.summand_dims):
        acc = np.zeros((n, n, d, d), dtype=np.complex128)
        for fam in families:
            X = np.array([fam[s].blocks[k] for s in labels])
            delta = X[:, None] - X[None, :]
            acc = acc - delta.conj().swapaxes(-1, -2) @ delta
        grams.append(_assembled(acc))
    return Kernel._of(index_set, descriptor, grams)


def kernel_leq(K1: Kernel, K2: Kernel, tol: ToleranceConfig = DEFAULT_TOL) -> Verdict:
    """Order ``K1 <= K2``: the difference ``K2 - K1`` is conditionally
    positive definite."""
    K1._check_compatible(K2)
    return is_conditionally_positive_definite(K2 - K1, tol)


def majorized_kernel(fact: Factorization, operator_blocks) -> Kernel:
    """Kernel ``(s,t) -> 2 V(s)*P V(t) - V(s)*P V(s) - V(t)*P V(t)`` for a
    per-summand positive operator ``P`` on the factor space.

    With ``P = C0* C0`` for a contraction ``C0`` this produces exactly the
    kernels majorized by the one ``fact`` factors.
    """
    P = [np.asarray(p, dtype=np.complex128) for p in operator_blocks]
    n = fact.index_set.n
    if len(P) != fact.descriptor.num_summands:
        raise DimensionMismatch("one operator block per summand required")
    for p, r in zip(P, fact.ranks):
        if p.shape != (r, r):
            raise DimensionMismatch("operator block does not match factor rank")
    grams = []
    for X, p in zip(_points(fact), P):
        F = _cross(X, p)
        D = F[range(n), range(n)]
        grams.append(_assembled(2.0 * F - D[:, None] - D[None, :]))
    return Kernel._of(fact.index_set, fact.descriptor, grams)


def _shape_offender(K: Kernel, cols, tol: ToleranceConfig):
    """The first row ``i`` where ``K(s_i, s_i) = 0`` fails, ``(i, -1)``, or
    else ``K(s_i, s_j)`` self-adjoint for the ``j``-th column of ``cols``,
    ``(i, j)``; ``None`` if none.  Each holds up to ``tol_rel * max(1,
    kernel_norm(K))`` in the 2-norm over summands, by one batched call each."""
    n, scale, norms = K.n, 1.0, []
    for S in K._stacks:
        C, d = S[:, cols], S.shape[-1]
        with np.errstate(over="ignore", invalid="ignore"):  # caught by spectral_norms
            D = C - C.conj().swapaxes(-1, -2)
        N = spectral_norms(np.concatenate([S.reshape(-1, d, d), D.reshape(-1, d, d)]))
        scale = max(scale, float(N[: n * n].max()))
        norms.append(np.column_stack([N[: n * n].reshape(n, n).diagonal(),
                                      N[n * n :].reshape(n, -1)]))
    bad = np.max(norms, axis=0) > tol.tol_rel * scale
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
    order = kernel_leq(Kp, K, tol)
    if not order.holds:
        raise PreconditionFailure("Kp is not majorized by K", order)

    dec = decompose_cpd(K, s0, tol)
    decp = decompose_cpd(Kp, s0, tol)
    fact, factp = dec.factorization, decp.factorization

    W = []
    residual = 0.0
    norm_W = 0.0
    for k in range(K.descriptor.num_summands):
        vs = fact.stacked(k)
        vps = factp.stacked(k)
        if vs.shape[0] == 0:
            wk = np.zeros((vps.shape[0], 0), dtype=np.complex128)
        else:
            wk = vps @ np.linalg.pinv(vs, rcond=tol.rank_tol_rel)
        W.append(wk)
        norm_W = max(norm_W, _spec_norm(wk))
        residual = max(residual, _spec_norm(vps - wk @ vs))

    scale_v = 1.0 + max(
        (module_norm(factp.V[s]) for s in K.index_set.labels), default=0.0
    )
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
        raise PreconditionFailure(
            f"reconstruction error {err:.3e} exceeds tolerance"
        )
    return MajorizationCertificate(tuple(W), C, float(residual), float(norm_W))
