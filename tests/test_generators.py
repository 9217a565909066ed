"""Seeded instance generators: every class passes its advertised check,
streams are deterministic, and the named fixtures carry their exact
values."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cpdkernels import (
    AlgebraDescriptor,
    FIXTURE_NAMES,
    GenConfig,
    adjoint,
    dump_json,
    fixture,
    is_conditionally_positive_definite,
    is_embeddable,
    is_positive,
    is_positive_definite,
    kernel_leq,
    kernel_norm,
    kernel_to_json,
    metric_to_json,
    op_norm,
    random_cpd_kernel,
    random_gram_kernel,
    random_hermitian_kernel,
    random_majorized_pair,
    random_metric,
    random_module_element,
    random_non_cpd_kernel,
    random_positive_two_by_two,
    validate_metric,
)
from cpdkernels.generators import NON_CPD_MARGIN
from helpers import (
    reference_random_cpd_kernel,
    reference_random_gram_kernel,
    reference_random_hermitian_kernel,
    reference_random_metric,
    reference_random_non_cpd_kernel,
    same_bits,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
descriptors = st.sampled_from(
    [AlgebraDescriptor(d) for d in ([1], [2], [1, 2], [3])]
)


def cfg_for(seed, desc=AlgebraDescriptor([2]), n=3, **kw):
    return GenConfig(seed=seed, n=n, descriptor=desc, **kw)


class TestGenConfig:
    def test_validation(self):
        desc = AlgebraDescriptor([1])
        with pytest.raises(ValueError):
            GenConfig(seed=0, n=0, descriptor=desc)
        with pytest.raises(ValueError):
            GenConfig(seed=0, n=2, descriptor=desc, rank=0)
        with pytest.raises(ValueError):
            GenConfig(seed=0, n=2, descriptor=desc, magnitude=-1.0)
        for bad in (float("inf"), float("nan")):
            with pytest.raises(ValueError):
                GenConfig(seed=0, n=2, descriptor=desc, magnitude=bad)

    def test_rank_steers_module_element_rows(self):
        cfg = cfg_for(1, AlgebraDescriptor([2, 3]), rank=5)
        x = random_module_element(cfg)
        assert x.ranks == (5, 5)
        assert x.blocks[0].shape == (5, 2)


class TestClassContracts:
    @given(seed=seeds, desc=descriptors)
    def test_gram_kernels_are_positive_definite(self, seed, desc):
        K = random_gram_kernel(cfg_for(seed, desc))
        assert is_positive_definite(K).holds

    @given(seed=seeds, desc=descriptors)
    def test_cpd_kernels_pass_the_check(self, seed, desc):
        K = random_cpd_kernel(cfg_for(seed, desc))
        assert is_conditionally_positive_definite(K).holds

    @given(seed=seeds, desc=descriptors)
    def test_diagonal_zero_class_shape(self, seed, desc):
        K = random_cpd_kernel(cfg_for(seed, desc), diagonal_zero=True)
        for i in range(K.n):
            assert op_norm(K.values[i][i]) == 0.0
            for j in range(K.n):
                entry = K.values[i][j]
                assert op_norm(entry - adjoint(entry)) <= 1e-12 * max(1.0, kernel_norm(K))
        assert is_conditionally_positive_definite(K).holds

    def test_diagonal_zero_family_count_follows_rank(self):
        K2 = random_cpd_kernel(cfg_for(5, rank=1), diagonal_zero=True)
        K6 = random_cpd_kernel(cfg_for(5, rank=6), diagonal_zero=True)
        # More squared-difference terms push the table further from zero.
        assert kernel_norm(K6) > kernel_norm(K2)

    @given(seed=seeds, desc=descriptors)
    def test_hermitian_class_is_hermitian(self, seed, desc):
        K = random_hermitian_kernel(cfg_for(seed, desc))
        assert K.is_hermitian()

    @given(seed=seeds, desc=descriptors)
    def test_non_cpd_class_fails_with_margin(self, seed, desc):
        K = random_non_cpd_kernel(cfg_for(seed, desc))
        verdict = is_conditionally_positive_definite(K)
        assert not verdict.holds
        assert verdict.witness.eigenvalue <= -NON_CPD_MARGIN * max(1.0, kernel_norm(K))

    def test_non_cpd_class_terminates_on_two_scalar_labels(self):
        # The smallest case, where the compression is the single number
        # a + c - 2 Re b; 6407 and 16387 once exhausted a rejection sampler.
        desc = AlgebraDescriptor([1])
        for seed in [*range(2000), 6407, 16387]:
            K = random_non_cpd_kernel(cfg_for(seed, desc, n=2))
            verdict = is_conditionally_positive_definite(K)
            assert not verdict.holds, seed
            bound = -NON_CPD_MARGIN * max(1.0, kernel_norm(K))
            assert verdict.witness.eigenvalue <= bound, seed
            for alpha in (1e-6, 1e6):
                assert not is_conditionally_positive_definite(alpha * K).holds, seed

    @pytest.mark.parametrize("magnitude", [0.0, 1e-9])
    def test_non_cpd_class_at_vanishing_magnitude(self, magnitude):
        # The failing term is sized to the tolerance floor max(1, norm), not
        # to the magnitude; at magnitude 0 it is all there is.
        for n in (2, 3):
            cfg = cfg_for(8, AlgebraDescriptor([1, 2]), n=n, magnitude=magnitude)
            K = random_non_cpd_kernel(cfg)
            verdict = is_conditionally_positive_definite(K)
            assert not verdict.holds
            assert verdict.witness.eigenvalue <= -NON_CPD_MARGIN
            rest = (n * n + 2) * kernel_norm(random_hermitian_kernel(cfg))
            assert kernel_norm(K) <= NON_CPD_MARGIN / (1.0 - NON_CPD_MARGIN) + rest

    @given(seed=seeds, desc=descriptors)
    def test_metric_class_is_valid_and_embeddable(self, seed, desc):
        dm = random_metric(cfg_for(seed, desc))
        assert validate_metric(dm).holds
        assert is_embeddable(dm).holds

    def test_two_label_metric_shape(self):
        dm = random_metric(cfg_for(11, n=2))
        assert dm.index_set.labels == ("s1", "s2")
        delta = dm[("s1", "s2")]
        assert is_positive(delta)
        assert op_norm(delta) > 0.0

    @given(seed=seeds, desc=descriptors)
    def test_positive_two_by_two_assembles_to_a_positive_matrix(self, seed, desc):
        P, T, Q = random_positive_two_by_two(cfg_for(seed, desc))
        for p, t, q in zip(P.blocks, T.blocks, Q.blocks):
            block = np.block([[p, t], [t.conj().T, q]])
            w = np.linalg.eigvalsh(block)
            assert w[0] >= -1e-9 * max(1.0, w[-1])

    @given(seed=seeds)
    def test_majorized_pairs_are_ordered(self, seed):
        K, Kp, s0 = random_majorized_pair(cfg_for(seed))
        assert s0 in K.index_set
        assert kernel_leq(Kp, K).holds


class TestDeterminism:
    def test_same_config_same_bytes(self):
        a = kernel_to_json(random_cpd_kernel(cfg_for(123)))
        b = kernel_to_json(random_cpd_kernel(cfg_for(123)))
        assert dump_json(a) == dump_json(b)

    def test_metric_stream_is_deterministic(self):
        a = metric_to_json(random_metric(cfg_for(9)))
        b = metric_to_json(random_metric(cfg_for(9)))
        assert dump_json(a) == dump_json(b)

    def test_different_seeds_differ(self):
        a = kernel_to_json(random_gram_kernel(cfg_for(1)))
        b = kernel_to_json(random_gram_kernel(cfg_for(2)))
        assert dump_json(a) != dump_json(b)

    def test_classes_use_disjoint_streams(self):
        # The same seed must not leak the same numbers into both classes.
        a = random_gram_kernel(cfg_for(77))
        b = random_hermitian_kernel(cfg_for(77))
        assert dump_json(kernel_to_json(a)) != dump_json(kernel_to_json(b))

    def test_zero_magnitude_gives_the_zero_kernel(self):
        K = random_gram_kernel(cfg_for(3, magnitude=0.0))
        assert kernel_norm(K) == 0.0


class TestFixtures:
    def test_names(self):
        assert set(FIXTURE_NAMES) == {
            "schur-counterexample",
            "star-metric",
            "collinear-3",
            "two-point",
        }

    def test_schur_counterexample_values(self):
        K = fixture("schur-counterexample")
        got = np.array([[v.blocks[0][0, 0].real for v in row] for row in K.values])
        assert np.array_equal(got, [[0.0, -1.0], [-1.0, 0.0]])
        assert K.index_set.labels == ("s1", "s2")

    def test_star_metric_values(self):
        dm = fixture("star-metric")
        assert dm.index_set.labels == ("c", "l1", "l2", "l3")
        got = np.array([[v.blocks[0][0, 0].real for v in row] for row in dm.values])
        expected = [
            [0.0, 1.0, 1.0, 1.0],
            [1.0, 0.0, 2.0, 2.0],
            [1.0, 2.0, 0.0, 2.0],
            [1.0, 2.0, 2.0, 0.0],
        ]
        assert np.array_equal(got, expected)

    def test_collinear_metric_values(self):
        dm = fixture("collinear-3")
        got = np.array([[v.blocks[0][0, 0].real for v in row] for row in dm.values])
        assert np.array_equal(got, [[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])

    def test_two_point_metric_values(self):
        dm = fixture("two-point")
        got = np.array([[v.blocks[0][0, 0].real for v in row] for row in dm.values])
        assert np.array_equal(got, [[0.0, 1.0], [1.0, 0.0]])

    def test_unknown_fixture(self):
        with pytest.raises(ValueError, match="unknown fixture"):
            fixture("no-such-instance")


class TestArrayConstruction:
    """The generators build their tables by per-summand array broadcasts
    from the same seeded streams as the per-entry construction in
    ``helpers``, and must produce the same tables bit for bit."""

    PAIRS = {
        "gram": (random_gram_kernel, reference_random_gram_kernel),
        "cpd": (random_cpd_kernel, reference_random_cpd_kernel),
        "cpd-diag": (lambda cfg: random_cpd_kernel(cfg, diagonal_zero=True),
                     lambda cfg: reference_random_cpd_kernel(cfg, diagonal_zero=True)),
        "hermitian": (random_hermitian_kernel, reference_random_hermitian_kernel),
        "non-cpd": (random_non_cpd_kernel, reference_random_non_cpd_kernel),
        "metric": (random_metric, reference_random_metric),
    }

    @pytest.mark.parametrize("n", [2, 3, 10])
    @pytest.mark.parametrize("seed", [1, 9001])
    @pytest.mark.parametrize("dims", [[1], [2, 1], [8, 8]])
    def test_tables_equal_the_per_entry_construction(self, dims, seed, n):
        cfg = cfg_for(seed, AlgebraDescriptor(dims), n)
        for name, (build, reference) in self.PAIRS.items():
            got, want = build(cfg), reference(cfg)
            assert type(got) is type(want), name
            assert (got.index_set, got.descriptor) == (want.index_set, want.descriptor), name
            assert same_bits(got, want.values), name
