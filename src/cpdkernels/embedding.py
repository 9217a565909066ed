"""Algebra-valued metrics and their isometric embeddings into a module.

A metric on a finite labeled set takes values in the positive cone of the
algebra and satisfies the usual axioms with the cone order in place of the
order on the reals.  Such a metric embeds isometrically into the column
module, meaning ``|V(s) - V(t)| = d(s,t)`` for module points ``V(s)``, if and
only if the kernel ``-d^2`` is conditionally positive definite; the embedding
is read off from a factorization of the base-point shift of ``-d^2``.

Not every positive-valued candidate obeys the triangle inequality once the
summands have size two or more, so ``distance_matrix_from_points`` always
validates its output instead of trusting the construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    DEFAULT_TOL,
    ModuleElement,
    ToleranceConfig,
    _psd_sqrt,
    hermitian_defects,
    psd_margins,
    spectral_norms,
)
from .decomposition import Factorization, PreconditionFailure, factor_pd
from .kernels import (
    IndexSet,
    Kernel,
    Verdict,
    Witness,
    _Table,
    _assembled,
    _max_norm,
    _scalar,
    is_conditionally_positive_definite,
    shift_transform,
)

__all__ = [
    "CStarMetric",
    "EmbeddingResult",
    "InvalidMetric",
    "scalar_metric",
    "metric_norm",
    "validate_metric",
    "metric_to_kernel",
    "is_embeddable",
    "embed",
    "distance_matrix_from_points",
]


class InvalidMetric(ValueError):
    """A candidate distance table violates one of the metric axioms.

    ``verdict`` carries the failed axiom's context and witness when the check
    produced one.
    """

    def __init__(self, message: str, verdict: Verdict | None = None):
        super().__init__(message)
        self.verdict = verdict


class CStarMetric(_Table):
    """Algebra-valued distance table on a labeled set, stored as ``_Table``
    stores it.

    Construction checks only shapes and finiteness; axiom checks live in
    ``validate_metric`` so that a failing candidate can still be inspected.
    """

    _noun = "distance"


def scalar_metric(matrix, labels=None) -> CStarMetric:
    """Distance table over the one-dimensional algebra from a plain array."""
    return _scalar(CStarMetric, matrix, labels)


def metric_norm(dm: CStarMetric) -> float:
    """Largest entry C*-norm; the scale used by relative tolerances."""
    return _max_norm(dm._stacks)


def validate_metric(dm: CStarMetric, tol: ToleranceConfig = DEFAULT_TOL) -> Verdict:
    """Check the metric axioms, reporting the first violated one.

    Axioms, in check order: entries are positive elements; the table is
    symmetric; the diagonal vanishes; distinct labels are separated; the
    triangle inequality ``d(s,t) <= d(s,u) + d(u,t)`` holds in the cone
    order.  The verdict context names the axiom and the offending labels;
    positivity and triangle failures also carry an eigenvector witness.

    Each axiom is decided at once on one ``(n, n, d, d)`` stack per summand,
    and the failure reported is the first in this visit order: entries
    row-major, each checked for self-adjointness before positivity; pairs
    ``i < j`` and labels in order; triangles ``(i, j, u)`` in order with the
    summand innermost, the worst margin winning and the first one on a tie.
    An entry is scaled by its own C*-norm, a triangle by the C*-norm of its
    slack ``(d(i,u) + d(u,j)) - d(i,j)``, and the other axioms by the largest
    entry norm.  Fails closed: an infinite or NaN value in the table or met
    in an axiom's arithmetic (an overflow) raises ``NonFinite``.
    """
    labels, n, stacks = dm.index_set.labels, dm.n, dm._stacks
    norms = np.max([spectral_norms(S) for S in stacks], axis=0)
    entries = [psd_margins(S, norms) for S in stacks]
    margins = np.stack([m for _, m, _ in entries], axis=-1)
    skew = np.any([hermitian_defects(S, tol) for S in stacks], axis=0)
    bad = skew | (margins.min(axis=-1) < -tol.tol_rel)
    if bad.any():
        i, j = np.unravel_index(np.argmax(bad), bad.shape)
        if skew[i, j]:
            return Verdict(
                False, None, context=f"value at ({labels[i]}, {labels[j]}) is not self-adjoint"
            )
        k = int(np.argmin(margins[i, j]))
        lam, _, vector = entries[k]
        return Verdict(
            False,
            Witness(k, float(lam[i, j]), vector((i, j))),
            context=f"value at ({labels[i]}, {labels[j]}) is not positive",
        )
    cut = tol.tol_rel * max(1.0, float(norms.max()))
    upper = np.triu_indices(n, 1)
    asym = np.max([spectral_norms(S[upper] - S[upper[::-1]]) for S in stacks], axis=0)
    for failed, where, context in (
        (asym > cut, upper, "symmetry fails at ({}, {})"),
        (np.diagonal(norms) > cut, (range(n),), "diagonal is not zero at {}"),
        (norms[upper] <= cut, upper, "distinct labels ({}, {}) are at distance zero"),
    ):
        if failed.any():
            p = int(np.argmax(failed))
            return Verdict(False, None, context=context.format(*(labels[w[p]] for w in where)))
    i, j, u = np.indices((n, n, n)).reshape(3, -1)
    keep = (i != j) & (u != i) & (u != j)
    i, j, u = i[keep], j[keep], u[keep]
    with np.errstate(over="ignore", invalid="ignore"):  # caught by spectral_norms
        slacks = [(S[i, u] + S[u, j]) - S[i, j] for S in stacks]
    scale = np.max([spectral_norms(T) for T in slacks], axis=0)
    triangles = [psd_margins(T, scale) for T in slacks]
    margins = np.stack([m for _, m, _ in triangles], axis=-1)
    if margins.size:
        t, k = np.unravel_index(np.argmin(margins), margins.shape)
        if margins[t, k] < -tol.tol_rel:
            lam, _, vector = triangles[k]
            return Verdict(
                False,
                Witness(int(k), float(lam[t]), vector(t)),
                context=(f"triangle inequality fails for "
                         f"({labels[i[t]]}, {labels[u[t]]}, {labels[j[t]]})"),
            )
    return Verdict(True)


def metric_to_kernel(
    dm: CStarMetric, tol: ToleranceConfig = DEFAULT_TOL, *, validate: bool = True
) -> Kernel:
    """The kernel ``K(s,t) = -d(s,t)^2`` whose conditional positivity decides
    embeddability.

    Raises
    ------
    InvalidMetric
        If validation is on and an axiom fails.
    """
    if validate:
        verdict = validate_metric(dm, tol)
        if not verdict.holds:
            raise InvalidMetric(verdict.context or "metric axioms fail", verdict)
    return Kernel._of(dm.index_set, dm.descriptor, [_assembled(-(S @ S)) for S in dm._stacks])


def is_embeddable(
    dm: CStarMetric, tol: ToleranceConfig = DEFAULT_TOL, threads: int = 1
) -> Verdict:
    """Whether the metric embeds isometrically into the column module.

    Decided by conditional positivity of ``-d^2``; a failure witness is a
    zero-sum coefficient vector in the compressed space.

    Raises
    ------
    InvalidMetric
        If the table is not a metric in the first place.
    """
    return _embeddability(dm, tol, threads)[0]


def _embeddability(dm: CStarMetric, tol: ToleranceConfig, threads: int = 1):
    """``is_embeddable``'s verdict and the kernel ``-d^2`` it decides."""
    K = metric_to_kernel(dm, tol)
    return Verdict(True) if dm.n < 2 else is_conditionally_positive_definite(K, tol, threads), K


@dataclass(frozen=True, eq=False)
class EmbeddingResult:
    """Isometric realization of a metric: module points with
    ``|V(s) - V(t)| = d(s,t)`` and ``V(base_point) = 0``."""

    factorization: Factorization
    base_point: str

    @property
    def points(self) -> dict[str, ModuleElement]:
        return self.factorization.V

    def realized_metric(self) -> CStarMetric:
        """Distances actually achieved by the embedded points."""
        fact = self.factorization
        points = [fact.V[s] for s in fact.index_set.labels]
        return CStarMetric._of(fact.index_set, fact.descriptor,
                               [_assembled(S) for S in _abs_differences(points)])


def _abs_differences(points: list[ModuleElement]) -> list[np.ndarray]:
    """``module_abs(x_i - x_j)`` for every pair of points, one ``(n, n, d,
    d)`` stack per summand."""
    out = []
    for k in range(points[0].descriptor.num_summands):
        X = np.array([x.blocks[k] for x in points])
        D = X[:, None] - X[None, :]
        out.append(_psd_sqrt(D.conj().swapaxes(-1, -2) @ D))
    return out


def embed(
    dm: CStarMetric, s0: str, tol: ToleranceConfig = DEFAULT_TOL
) -> EmbeddingResult:
    """Embed a metric isometrically, anchoring ``V(s0) = 0``.

    The base-point shift of ``-d^2`` is positive definite exactly when the
    metric is embeddable; its factorization realizes the distances because
    ``<V(s) - V(t), V(s) - V(t)> = d(s,t)^2``.

    Raises
    ------
    InvalidMetric
        If the table is not a metric.
    PreconditionFailure
        If the metric is not embeddable; carries the compressed-space witness.
    """
    verdict, K = _embeddability(dm, tol)
    if not verdict.holds:
        raise PreconditionFailure("metric is not embeddable", verdict)
    L = shift_transform(K, s0, tol)
    fact = factor_pd(L, tol, check=False)
    return EmbeddingResult(fact, s0)


def distance_matrix_from_points(
    points: dict[str, ModuleElement], tol: ToleranceConfig = DEFAULT_TOL
) -> CStarMetric:
    """Distance table ``d(s,t) = |x_s - x_t|`` of a family of module points.

    The result is validated before it is returned: module points do not obey
    the cone-order triangle inequality in general, so a raw difference table
    is only a metric for favorable configurations (for instance points whose
    pairwise differences are normal elements of a commuting family).

    Raises
    ------
    InvalidMetric
        If two labels name coincident points or the triangle inequality
        fails.
    """
    labels = list(points)
    if not labels:
        raise ValueError("at least one labeled point is required")
    index_set = IndexSet(labels)
    first = points[labels[0]]
    for x in points.values():
        first._check_compatible(x)
    stacks = _abs_differences([points[s] for s in labels])
    n = len(labels)
    for S in stacks:
        S[range(n), range(n)] = 0.0
    norms = np.max([spectral_norms(S) for S in stacks], axis=0)
    upper = np.triu_indices(n, 1)
    coincident = norms[upper] <= tol.tol_rel * max(1.0, float(norms.max()))
    if coincident.any():
        p = int(np.argmax(coincident))
        raise InvalidMetric(
            f"labels ({labels[upper[0][p]]}, {labels[upper[1][p]]}) name coincident points"
        )
    dm = CStarMetric._of(index_set, first.descriptor, [_assembled(S) for S in stacks])
    verdict = validate_metric(dm, tol)
    if not verdict.holds:
        raise InvalidMetric(verdict.context or "metric axioms fail", verdict)
    return dm
