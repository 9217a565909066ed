"""Algebra-valued metrics and their isometric embeddings into a module.

A metric on a finite labeled set takes values in the positive cone of the
algebra and satisfies the usual axioms with the cone order in place of the
order on the reals.  Such a metric embeds isometrically into the column
module, meaning ``|V(s) - V(t)| = d(s,t)`` for module points ``V(s)``, if and
only if the kernel ``-d^2`` is conditionally positive definite.  So ``embed``
is ``decompose_cpd``'s route applied to ``-d^2``: one conditional positivity
decision, then a factorization of the base-point shift.  A metric on one
label embeds vacuously, at rank 0.

Not every positive-valued candidate obeys the triangle inequality once the
summands have size two or more, so ``distance_matrix_from_points`` always
validates its output instead of trusting the construction.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .algebra import (
    DEFAULT_TOL,
    ModuleElement,
    ToleranceConfig,
    _abs,
    hermitian_defects,
    psd_margins,
    spectral_norms,
)
from .decomposition import Factorization, _cpd_factor
from .kernels import (
    IndexSet,
    Kernel,
    Verdict,
    Witness,
    _Points,
    _Table,
    _assembled,
    _cpd_verdict,
    _scalar,
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
    return float(dm._norms.max())


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
    entry norm.  Entries and triangles pass by batched Cholesky; eigenvalues and
    scales are computed only to report a failure.  Fails closed: an infinite or
    NaN value in the table or its arithmetic (an overflow) raises ``NonFinite``.
    """
    labels, n, stacks = dm.index_set.labels, dm.n, dm._stacks
    negative, _, witness = psd_margins(stacks, tol, by_norm=True)
    skew = np.any([hermitian_defects(S, tol) for S in stacks], axis=0)
    if (bad := skew | negative).any():
        i, j = np.unravel_index(np.argmax(bad), bad.shape)
        if skew[i, j]:
            return Verdict(False, None,
                           context=f"value at ({labels[i]}, {labels[j]}) is not self-adjoint")
        return Verdict(False, Witness(*witness((i, j))),
                       context=f"value at ({labels[i]}, {labels[j]}) is not positive")
    norms, upper = dm._norms, np.triu_indices(n, 1)
    cut = tol.tol_rel * max(1.0, float(norms.max()))
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
    with np.errstate(over="ignore", invalid="ignore"):  # caught by psd_margins
        slacks = [(S[i, u] + S[u, j]) - S[i, j] for S in stacks]
    fails, margin, witness = psd_margins(slacks, tol, by_norm=True)
    if fails.any():
        t = int(np.argmin(margin))
        return Verdict(False, Witness(*witness(t)), context=(
            f"triangle inequality fails for ({labels[i[t]]}, {labels[u[t]]}, {labels[j[t]]})"))
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
    return _cpd_verdict(metric_to_kernel(dm, tol), tol)


@dataclass(frozen=True, eq=False)
class EmbeddingResult:
    """Isometric realization of a metric: module points with
    ``|V(s) - V(t)| = d(s,t)`` and ``V(base_point) = 0``."""

    factorization: Factorization
    base_point: str

    def __post_init__(self):
        self.factorization.index_set.index(self.base_point)  # UnknownLabel if absent

    @property
    def points(self) -> Mapping[str, ModuleElement]:
        return self.factorization.V

    def realized_metric(self) -> CStarMetric:
        """Distances actually achieved by the embedded points."""
        fact = self.factorization
        return CStarMetric._of(fact.index_set, fact.descriptor,
                               [_assembled(S) for S in _abs_differences(fact.V)])


def _abs_differences(points: _Points) -> list[np.ndarray]:
    """``module_abs(x_i - x_j)`` for every pair of points, one ``(n, n, d,
    d)`` stack per summand."""
    return [_abs(X[:, None] - X[None, :]) for X in points._arrays]


def embed(
    dm: CStarMetric, s0: str, tol: ToleranceConfig = DEFAULT_TOL
) -> EmbeddingResult:
    """Embed a metric isometrically, anchoring ``V(s0) = 0``.

    The metric is validated, ``-d^2`` is decided CPD, and its base-point
    shift, positive exactly when the metric is embeddable, is factored; the
    factorization realizes the distances because ``<V(s) - V(t), V(s) -
    V(t)> = d(s,t)^2``.

    Raises
    ------
    InvalidMetric
        If the table is not a metric.
    PreconditionFailure
        If the metric is not embeddable; carries the compressed-space witness.
    """
    return EmbeddingResult(_cpd_factor(metric_to_kernel(dm, tol), s0, tol,
                                       "metric is not embeddable"), s0)


def distance_matrix_from_points(
    points: Mapping[str, ModuleElement], tol: ToleranceConfig = DEFAULT_TOL
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
    if not points:
        raise ValueError("at least one labeled point is required")
    points = _Points.of(IndexSet(points), points)
    labels, n = points.index_set.labels, len(points)
    stacks = _abs_differences(points)
    for S in stacks:
        S[range(n), range(n)] = 0.0
    dm = CStarMetric._of(points.index_set, points.descriptor, [_assembled(S) for S in stacks])
    upper = np.triu_indices(n, 1)
    coincident = dm._norms[upper] <= tol.tol_rel * max(1.0, metric_norm(dm))
    if coincident.any():
        p = int(np.argmax(coincident))
        raise InvalidMetric(
            f"labels ({labels[upper[0][p]]}, {labels[upper[1][p]]}) name coincident points"
        )
    verdict = validate_metric(dm, tol)
    if not verdict.holds:
        raise InvalidMetric(verdict.context or "metric axioms fail", verdict)
    return dm
