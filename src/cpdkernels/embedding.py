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
    AlgebraDescriptor,
    AlgebraElement,
    DimensionMismatch,
    ModuleElement,
    ToleranceConfig,
    min_eig,
    module_abs,
    op_norm,
)
from .decomposition import Factorization, PreconditionFailure, factor_pd
from .kernels import (
    IndexSet,
    Kernel,
    Verdict,
    Witness,
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


@dataclass(frozen=True, eq=False)
class CStarMetric:
    """Algebra-valued distance table on a labeled set.

    Construction checks only shapes; axiom checks live in
    ``validate_metric`` so that a failing candidate can still be inspected.
    """

    index_set: IndexSet
    descriptor: AlgebraDescriptor
    values: tuple[tuple[AlgebraElement, ...], ...]

    def __init__(self, index_set: IndexSet, descriptor: AlgebraDescriptor, values):
        n = index_set.n
        rows = tuple(tuple(row) for row in values)
        if len(rows) != n or any(len(row) != n for row in rows):
            raise DimensionMismatch(f"distance table must be {n} x {n}")
        for row in rows:
            for v in row:
                if v.descriptor != descriptor:
                    raise DimensionMismatch("distance entry has a foreign descriptor")
        object.__setattr__(self, "index_set", index_set)
        object.__setattr__(self, "descriptor", descriptor)
        object.__setattr__(self, "values", rows)

    @property
    def n(self) -> int:
        return self.index_set.n

    def value(self, i: int, j: int) -> AlgebraElement:
        return self.values[i][j]

    def __getitem__(self, pair: tuple[str, str]) -> AlgebraElement:
        s, t = pair
        return self.values[self.index_set.index(s)][self.index_set.index(t)]


def scalar_metric(matrix, labels=None) -> CStarMetric:
    """Distance table over the one-dimensional algebra from a plain array."""
    mat = np.asarray(matrix, dtype=np.complex128)
    n = mat.shape[0]
    if mat.shape != (n, n):
        raise DimensionMismatch("scalar metric needs a square matrix")
    if labels is None:
        labels = [f"s{i + 1}" for i in range(n)]
    desc = AlgebraDescriptor([1])
    values = [
        [AlgebraElement(desc, [mat[i, j].reshape(1, 1)]) for j in range(n)]
        for i in range(n)
    ]
    return CStarMetric(IndexSet(labels), desc, values)


def metric_norm(dm: CStarMetric) -> float:
    """Largest entry C*-norm; the scale used by relative tolerances."""
    return max(op_norm(v) for row in dm.values for v in row)


def _positive_defect(x: AlgebraElement, tol: ToleranceConfig):
    """Worst relative negativity of a self-adjoint candidate, or a hermiticity
    complaint; ``None`` when ``x`` is positive at tolerance."""
    for k, b in enumerate(x.blocks):
        if b.size and np.linalg.norm(b - b.conj().T, 2) > tol.tol_rel * max(
            1.0, np.linalg.norm(b, 2)
        ):
            return ("hermitian", k, None, None)
    worst = None
    for k, b in enumerate(x.blocks):
        lam, vec = min_eig(0.5 * (b + b.conj().T))
        scale = max(1.0, op_norm(x))
        margin = lam / scale
        if worst is None or margin < worst[0]:
            worst = (margin, k, lam, vec)
    if worst is not None and worst[0] < -tol.tol_rel:
        _, k, lam, vec = worst
        return ("negative", k, lam, vec)
    return None


def validate_metric(dm: CStarMetric, tol: ToleranceConfig = DEFAULT_TOL) -> Verdict:
    """Check the metric axioms, reporting the first violated one.

    Axioms, in check order: entries are positive elements; the table is
    symmetric; the diagonal vanishes; distinct labels are separated; the
    triangle inequality ``d(s,t) <= d(s,u) + d(u,t)`` holds in the cone
    order.  The verdict context names the axiom and the offending labels;
    positivity and triangle failures also carry an eigenvector witness.
    """
    labels = dm.index_set.labels
    n = dm.n
    scale = max(1.0, metric_norm(dm))
    for i, s in enumerate(labels):
        for j, t in enumerate(labels):
            defect = _positive_defect(dm.values[i][j], tol)
            if defect is not None:
                kind, k, lam, vec = defect
                if kind == "hermitian":
                    return Verdict(
                        False, None, context=f"value at ({s}, {t}) is not self-adjoint"
                    )
                return Verdict(
                    False,
                    Witness(k, lam, vec),
                    context=f"value at ({s}, {t}) is not positive",
                )
    for i in range(n):
        for j in range(i + 1, n):
            diff = dm.values[i][j] - dm.values[j][i]
            if op_norm(diff) > tol.tol_rel * scale:
                return Verdict(
                    False,
                    None,
                    context=f"symmetry fails at ({labels[i]}, {labels[j]})",
                )
    for i, s in enumerate(labels):
        if op_norm(dm.values[i][i]) > tol.tol_rel * scale:
            return Verdict(False, None, context=f"diagonal is not zero at {s}")
    for i in range(n):
        for j in range(i + 1, n):
            if op_norm(dm.values[i][j]) <= tol.tol_rel * scale:
                return Verdict(
                    False,
                    None,
                    context=(
                        f"distinct labels ({labels[i]}, {labels[j]}) "
                        "are at distance zero"
                    ),
                )
    worst = None
    for i, s in enumerate(labels):
        for j, t in enumerate(labels):
            if i == j:
                continue
            for u_idx, u in enumerate(labels):
                if u_idx == i or u_idx == j:
                    continue
                slack = dm.values[i][u_idx] + dm.values[u_idx][j] - dm.values[i][j]
                for k, b in enumerate(slack.blocks):
                    lam, vec = min_eig(0.5 * (b + b.conj().T))
                    margin = lam / max(1.0, op_norm(slack))
                    if worst is None or margin < worst[0]:
                        worst = (margin, k, lam, vec, s, u, t)
    if worst is not None and worst[0] < -tol.tol_rel:
        _, k, lam, vec, s, u, t = worst
        return Verdict(
            False,
            Witness(k, lam, vec),
            context=f"triangle inequality fails for ({s}, {u}, {t})",
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
    values = [[-(v @ v) for v in row] for row in dm.values]
    return Kernel(dm.index_set, dm.descriptor, values)


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
    K = metric_to_kernel(dm, tol)
    if dm.n < 2:
        return Verdict(True)
    return is_conditionally_positive_definite(K, tol, threads)


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
        labels = fact.index_set.labels
        values = [
            [module_abs(fact.V[s] - fact.V[t]) for t in labels] for s in labels
        ]
        return CStarMetric(fact.index_set, fact.descriptor, values)


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
    verdict = is_embeddable(dm, tol)
    if not verdict.holds:
        raise PreconditionFailure("metric is not embeddable", verdict)
    K = metric_to_kernel(dm, tol, validate=False)
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
    desc = first.descriptor
    zero = AlgebraElement.zero(desc)
    n = len(labels)
    values = [[zero] * n for _ in range(n)]
    for i, s in enumerate(labels):
        for j, t in enumerate(labels):
            if i != j:
                values[i][j] = module_abs(points[s] - points[t])
    scale = max(1.0, max(op_norm(v) for row in values for v in row))
    for i in range(n):
        for j in range(i + 1, n):
            if op_norm(values[i][j]) <= tol.tol_rel * scale:
                raise InvalidMetric(
                    f"labels ({labels[i]}, {labels[j]}) name coincident points"
                )
    dm = CStarMetric(index_set, desc, values)
    verdict = validate_metric(dm, tol)
    if not verdict.holds:
        raise InvalidMetric(verdict.context or "metric axioms fail", verdict)
    return dm
