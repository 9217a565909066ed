"""Algebra-valued metrics: axiom validation, the embeddability criterion
through the squared-distance kernel, explicit isometric embeddings, and
distance tables built from module points."""

import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cpdkernels import (
    DEFAULT_TOL,
    AlgebraDescriptor,
    AlgebraElement,
    CStarMetric,
    EmbeddingResult,
    GenConfig,
    IndexSet,
    InvalidMetric,
    ModuleElement,
    NonFinite,
    PreconditionFailure,
    UnknownLabel,
    compressed_gram,
    distance_matrix_from_points,
    embed,
    is_embeddable,
    is_positive_definite,
    metric_norm,
    metric_to_kernel,
    module_abs,
    module_norm,
    op_norm,
    random_metric,
    random_module_element,
    scalar_metric,
    shift_transform,
    validate_metric,
)
from helpers import (
    MARGINS,
    equal_distance_metric,
    overflow_metric,
    reference_validate_metric,
    same_verdict,
    single_block,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
metric_descriptors = st.sampled_from(
    [AlgebraDescriptor(d) for d in ([1], [2], [3], [1, 2], [2, 3])]
)

STAR = scalar_metric(
    [
        [0.0, 1.0, 1.0, 1.0],
        [1.0, 0.0, 2.0, 2.0],
        [1.0, 2.0, 0.0, 2.0],
        [1.0, 2.0, 2.0, 0.0],
    ],
    ["c", "l1", "l2", "l3"],
)
COLLINEAR = scalar_metric(
    [[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]], ["p1", "p2", "p3"]
)
TWO_POINT = scalar_metric([[0.0, 1.0], [1.0, 0.0]], ["p1", "p2"])


class TestValidateMetric:
    def test_star_metric_is_valid(self):
        assert validate_metric(STAR).holds

    def test_collinear_points_are_valid(self):
        assert validate_metric(COLLINEAR).holds

    def test_triangle_violation(self):
        dm = scalar_metric([[0.0, 1.0, 3.0], [1.0, 0.0, 1.0], [3.0, 1.0, 0.0]])
        verdict = validate_metric(dm)
        assert not verdict.holds
        assert "triangle" in verdict.context
        assert verdict.witness is not None

    def test_vanishing_distance_between_distinct_labels(self):
        dm = scalar_metric([[0.0, 0.0], [0.0, 0.0]])
        verdict = validate_metric(dm)
        assert not verdict.holds
        assert "distance zero" in verdict.context

    def test_negative_entry(self):
        dm = scalar_metric([[0.0, -1.0], [-1.0, 0.0]])
        verdict = validate_metric(dm)
        assert not verdict.holds
        assert "not positive" in verdict.context

    def test_asymmetric_table(self):
        dm = scalar_metric([[0.0, 1.0], [2.0, 0.0]])
        verdict = validate_metric(dm)
        assert not verdict.holds
        assert "symmetry" in verdict.context

    def test_nonzero_diagonal(self):
        dm = scalar_metric([[1.0, 1.0], [1.0, 1.0]])
        verdict = validate_metric(dm)
        assert not verdict.holds
        assert "diagonal" in verdict.context

    def test_operator_valued_triangle_is_checked_in_the_cone_order(self):
        # A norm comparison would accept this table (4 <= 2 + 2), but the
        # slack d(a,c) + d(c,b) - d(a,b) = diag(-2, 3) is indefinite.
        d12 = single_block(np.diag([4.0, 1.0]))
        d13 = single_block(np.diag([1.0, 2.0]))
        d23 = single_block(np.diag([1.0, 2.0]))
        zero = single_block(np.zeros((2, 2)))
        dm = CStarMetric(
            IndexSet(["a", "b", "c"]),
            d12.descriptor,
            [[zero, d12, d13], [d12, zero, d23], [d13, d23, zero]],
        )
        verdict = validate_metric(dm)
        assert not verdict.holds
        assert "triangle" in verdict.context


def _edited(dm, edit):
    """``dm`` with ``edit`` applied to a nested list of copies of its blocks,
    indexed ``[i][j][summand]``."""
    table = [[[np.array(b) for b in v.blocks] for v in row] for row in dm.values]
    edit(table)
    return CStarMetric(dm.index_set, dm.descriptor, [
        [AlgebraElement(dm.descriptor, v) for v in row] for row in table])


def _scaled(*cells, by):
    def edit(table):
        for i, j in cells:
            table[i][j] = [by * b for b in table[i][j]]
    return edit


def _skewed(table):
    b = table[1][3][0]
    table[1][3][0] = b + 0.5 * np.triu(np.ones_like(b), 1) + (0.5j if b.shape == (1, 1) else 0)


def _diagonal(table):
    table[2][2][0] = 0.1 * np.eye(table[2][2][0].shape[0])


def _negated_last_summand(table):
    table[2][1][-1] = -table[2][1][-1]


# Each edit breaks one axiom of a generated 5-label metric.
BREAKS = {
    "not self-adjoint": _skewed,
    "not positive": _negated_last_summand,
    "symmetry": _scaled((3, 0), by=1.5),
    "diagonal": _diagonal,
    "distance zero": _scaled((1, 4), (4, 1), by=0.0),
    "triangle": _scaled((0, 2), (2, 0), by=5.0),
}


class TestStackedAxioms:
    """``validate_metric`` on stacked blocks against the per-triple loop."""

    @pytest.mark.parametrize("dims", [[1], [2, 1], [3]])
    @pytest.mark.parametrize("seed", [3, 4, 11])
    def test_each_broken_axiom_matches_the_loop(self, dims, seed):
        dm = random_metric(GenConfig(seed=seed, n=5, descriptor=AlgebraDescriptor(dims)))
        assert same_verdict(validate_metric(dm), reference_validate_metric(dm))
        for needle, edit in BREAKS.items():
            broken = _edited(dm, edit)
            verdict = validate_metric(broken)
            assert not verdict.holds and needle in verdict.context
            assert same_verdict(verdict, reference_validate_metric(broken))

    @pytest.mark.parametrize("first, second", [(_skewed, _negated_last_summand),
                                               (_scaled((0, 1), by=-1.0), _skewed)])
    def test_the_first_bad_entry_wins_in_row_major_order(self, first, second):
        dm = random_metric(GenConfig(seed=5, n=5, descriptor=AlgebraDescriptor([2, 1])))
        broken = _edited(_edited(dm, first), second)
        assert same_verdict(validate_metric(broken), reference_validate_metric(broken))

    def test_an_entry_is_scaled_by_its_own_norm(self):
        # Summand 1 alone fails by -5e-7; against the entry's C*-norm 1e6 it
        # passes, and the entry is positive.
        def shade(table):
            for i, j in ((0, 1), (1, 0)):
                table[i][j] = [np.diag([1e6, 0.0]), np.array([[-5e-7]])]

        dm = _edited(equal_distance_metric([[0, 1], [1, 0]], [2, 1]), shade)
        verdict = validate_metric(dm)
        assert verdict.holds
        assert same_verdict(verdict, reference_validate_metric(dm))

    @pytest.mark.parametrize("dims", [[1], [2, 1]])
    def test_equal_worst_triangles_report_the_first(self, dims):
        # (a, b, c) and (c, b, a) have the same slack, on every summand.
        dm = equal_distance_metric([[0, 1, 3, 1.5], [1, 0, 1, 1.2], [3, 1, 0, 1.1],
                                     [1.5, 1.2, 1.1, 0]], dims)
        verdict = validate_metric(dm)
        assert verdict.context == "triangle inequality fails for (p0, p1, p2)"
        assert verdict.witness.summand == 0
        assert same_verdict(verdict, reference_validate_metric(dm))

    @pytest.mark.parametrize("margin", MARGINS)
    @pytest.mark.parametrize("dims", [[1], [2, 1]])
    def test_entries_and_triangles_at_the_threshold(self, dims, margin):
        # Triangle (p0, p2, p1) has slack ``margin * tol_rel`` on every
        # summand, its scale 1.  Over [2, 1] entry (p0, p1) is also
        # ``[2 I, margin * tol_rel * 2]``, its scale 2; a [1] entry is its
        # own scale, so it cannot sit near the threshold and stay a distance.
        eps = margin * DEFAULT_TOL.tol_rel
        tables = [equal_distance_metric([[0, 2 - eps, 1], [2 - eps, 0, 1], [1, 1, 0]], dims)]
        if dims == [2, 1]:
            def shade(table):
                table[0][1] = table[1][0] = [2 * np.eye(2), np.array([[2 * eps]])]
            tables.append(_edited(equal_distance_metric(2 * (1 - np.eye(3)), dims), shade))
        for dm in tables:
            verdict = validate_metric(dm)
            assert verdict.holds == (margin > -1)
            assert same_verdict(verdict, reference_validate_metric(dm))

    def test_a_passing_metric_runs_no_eigensolver_and_no_triangle_norms(self, monkeypatch):
        dm = random_metric(GenConfig(seed=3, n=5, descriptor=AlgebraDescriptor([2, 1])))
        seen, eigh, norm = [], np.linalg.eigh, np.linalg.norm
        monkeypatch.setattr(np.linalg, "eigh", lambda *a, **k: seen.append("eigh") or eigh(*a, **k))
        monkeypatch.setattr(np.linalg, "norm",
                            lambda x, *a, **k: seen.append(np.shape(x)) or norm(x, *a, **k))
        assert validate_metric(dm).holds
        assert "eigh" not in seen
        assert all(len(shape) < 3 or shape[0] != 5 * 4 * 3 for shape in seen)

    @pytest.mark.parametrize("n", [1, 2])
    def test_tables_without_triangles(self, n):
        dm = scalar_metric(np.ones((n, n)) - np.eye(n))
        assert validate_metric(dm).holds and reference_validate_metric(dm).holds


class TestMetricsFailClosed:
    def test_overflow_raises_instead_of_passing(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(NonFinite):
                validate_metric(overflow_metric())
        assert [str(w.message) for w in caught] == []

    def test_the_rescaled_table_fails_at_the_hidden_triangle(self):
        verdict = validate_metric(overflow_metric(1e-290))
        assert verdict.context == "triangle inequality fails for (a, e, b)"

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entries_raise(self, bad):
        with pytest.raises(NonFinite):
            validate_metric(scalar_metric([[0.0, bad], [bad, 0.0]]))


class TestMetricToKernel:
    def test_two_point_metric(self):
        delta = 3.0
        dm = scalar_metric([[0.0, delta], [delta, 0.0]])
        K = metric_to_kernel(dm)
        assert K[("s1", "s2")].blocks[0][0, 0] == pytest.approx(-9.0)
        assert K[("s1", "s1")].blocks[0][0, 0] == 0.0

    def test_star_metric_squares_entrywise(self):
        K = metric_to_kernel(STAR)
        expected = -np.array(
            [
                [0.0, 1.0, 1.0, 1.0],
                [1.0, 0.0, 4.0, 4.0],
                [1.0, 4.0, 0.0, 4.0],
                [1.0, 4.0, 4.0, 0.0],
            ]
        )
        got = np.array([[v.blocks[0][0, 0].real for v in row] for row in K.values])
        assert np.array_equal(got, expected)

    def test_operator_valued_square(self):
        d = single_block(np.diag([1.0, 2.0]))
        zero = single_block(np.zeros((2, 2)))
        dm = CStarMetric(
            IndexSet(["a", "b"]), d.descriptor, [[zero, d], [d, zero]]
        )
        K = metric_to_kernel(dm)
        assert np.allclose(K[("a", "b")].blocks[0], -np.diag([1.0, 4.0]))

    def test_invalid_metrics_are_rejected(self):
        dm = scalar_metric([[0.0, 1.0, 3.0], [1.0, 0.0, 1.0], [3.0, 1.0, 0.0]])
        with pytest.raises(InvalidMetric) as exc:
            metric_to_kernel(dm)
        assert exc.value.verdict is not None


class TestIsEmbeddable:
    def test_collinear_points_embed(self):
        assert is_embeddable(COLLINEAR).holds

    def test_star_metric_does_not_embed(self):
        verdict = is_embeddable(STAR)
        assert not verdict.holds
        w = verdict.witness
        # The compressed squared-distance form has an exact integer table
        # with negative determinant; the witness is its bottom eigenpair.
        C = compressed_gram(metric_to_kernel(STAR))[w.summand]
        assert np.array_equal(C.real, [[2.0, 4.0, 4.0], [4.0, 8.0, 4.0], [4.0, 4.0, 8.0]])
        assert np.linalg.det(C).real == pytest.approx(-32.0)
        quad = (w.vector.conj() @ C @ w.vector).real
        assert quad == pytest.approx(w.eigenvalue)
        assert quad <= -0.1

    def test_single_point_is_trivially_embeddable(self):
        dm = scalar_metric([[0.0]])
        assert is_embeddable(dm).holds

    def test_verdict_matches_the_shifted_kernel_at_every_base_point(self):
        for dm in (STAR, COLLINEAR):
            expected = is_embeddable(dm).holds
            K = metric_to_kernel(dm)
            for s0 in dm.index_set.labels:
                assert is_positive_definite(shift_transform(K, s0)).holds == expected


class TestEmbed:
    def test_two_point_embedding(self):
        result = embed(TWO_POINT, "p1")
        assert module_norm(result.points["p1"]) == 0.0
        assert module_norm(result.points["p2"]) == pytest.approx(1.0)
        gap = module_abs(result.points["p1"] - result.points["p2"])
        assert op_norm(gap) == pytest.approx(1.0)

    def test_collinear_distances_are_reproduced(self):
        result = embed(COLLINEAR, "p1")
        realized = result.realized_metric()
        for s in COLLINEAR.index_set.labels:
            for t in COLLINEAR.index_set.labels:
                err = op_norm(realized[(s, t)] - COLLINEAR[(s, t)])
                assert err <= 1e-9

    def test_base_point_is_anchored_at_the_origin(self):
        for s0 in COLLINEAR.index_set.labels:
            result = embed(COLLINEAR, s0)
            assert module_norm(result.points[s0]) == 0.0

    def test_star_metric_is_rejected_with_witness(self):
        with pytest.raises(PreconditionFailure) as exc:
            embed(STAR, "c")
        verdict = exc.value.verdict
        assert verdict is not None
        assert verdict.witness.eigenvalue <= -0.1

    def test_base_point_must_be_a_label(self):
        result = embed(COLLINEAR, "p1")
        with pytest.raises(UnknownLabel, match="zz"):
            EmbeddingResult(result.factorization, "zz")

    def test_invalid_metric_is_rejected(self):
        dm = scalar_metric([[0.0, 0.0], [0.0, 0.0]])
        with pytest.raises(InvalidMetric):
            embed(dm, "s1")

    @given(seed=seeds, desc=metric_descriptors, n=st.integers(2, 5))
    def test_generated_metrics_roundtrip(self, seed, desc, n):
        dm = random_metric(GenConfig(seed=seed, n=n, descriptor=desc))
        result = embed(dm, dm.index_set.labels[0])
        realized = result.realized_metric()
        bound = 1e-8 * (1.0 + metric_norm(dm))
        for s in dm.index_set.labels:
            for t in dm.index_set.labels:
                assert op_norm(realized[(s, t)] - dm[(s, t)]) <= bound


class TestDistanceMatrixFromPoints:
    def test_two_scalar_points(self):
        desc = AlgebraDescriptor([1])
        points = {
            "a": ModuleElement(desc, [1], [np.array([[0.0]])]),
            "b": ModuleElement(desc, [1], [np.array([[2.5]])]),
        }
        dm = distance_matrix_from_points(points)
        assert dm[("a", "b")].blocks[0][0, 0] == pytest.approx(2.5)
        assert dm[("a", "a")].blocks[0][0, 0] == 0.0

    def test_three_points_on_a_line(self):
        desc = AlgebraDescriptor([1])
        points = {
            s: ModuleElement(desc, [1], [np.array([[float(i)]])])
            for i, s in enumerate(["p1", "p2", "p3"])
        }
        dm = distance_matrix_from_points(points)
        got = np.array([[v.blocks[0][0, 0].real for v in row] for row in dm.values])
        assert np.array_equal(got, [[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])

    def test_outputs_are_embeddable(self):
        dm = random_metric(GenConfig(seed=8, n=4, descriptor=AlgebraDescriptor([2])))
        assert validate_metric(dm).holds
        assert is_embeddable(dm).holds

    def test_coincident_points_are_rejected(self):
        desc = AlgebraDescriptor([1])
        x = ModuleElement(desc, [1], [np.array([[1.0]])])
        with pytest.raises(InvalidMetric, match="coincident"):
            distance_matrix_from_points({"a": x, "b": x})

    def test_raw_gaussian_points_can_violate_the_cone_triangle(self):
        # Unlike commuting configurations, unconstrained module points do not
        # obey the triangle inequality in the cone order; the constructor
        # must reject such tables rather than return a non-metric.
        desc = AlgebraDescriptor([2])
        rejected = 0
        for seed in range(20):
            cfg = GenConfig(seed=seed, n=3, descriptor=desc)
            points = {
                s: random_module_element(cfg, i)
                for i, s in enumerate(["a", "b", "c"])
            }
            try:
                distance_matrix_from_points(points)
            except InvalidMetric as exc:
                assert "triangle" in str(exc)
                rejected += 1
        assert rejected > 0
