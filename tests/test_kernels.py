"""Kernel-level decision procedures: assembly, positivity, conditional
positivity, the base-point shift, the shifted-matrix and two-by-two
criteria, Schur products, and the pairwise inequality checks."""

import operator
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
    GenConfig,
    IndexSet,
    Kernel,
    NonFinite,
    NotHermitian,
    UnknownLabel,
    adjoint,
    assemble_gram,
    cauchy_schwarz_cpd_check,
    cauchy_schwarz_pd_check,
    compressed_gram,
    cond_positive_matrix_check,
    is_conditionally_positive_definite,
    is_positive,
    is_positive_definite,
    dump_json,
    kernel_from_json,
    kernel_norm,
    kernel_to_json,
    op_norm,
    psd_defect,
    random_cpd_kernel,
    random_gram_kernel,
    random_hermitian_kernel,
    random_non_cpd_kernel,
    recover_affine_part,
    scalar_kernel,
    scalar_metric,
    schur_product,
    shift_transform,
    two_by_two_check,
)
from cpdkernels.algebra import _BAND, _cholesky_passes, _hermitian_part
from cpdkernels import kernels
from cpdkernels.kernels import _psd_verdict
from helpers import (
    KERNEL_DESCRIPTORS,
    MARGINS,
    block_kernel,
    difference_basis,
    eigh_verdict,
    load_bench_module,
    raises_without_warning,
    raw_scalar_kernel,
    reference_cauchy_schwarz_cpd,
    reference_cauchy_schwarz_pd,
    reference_entrywise,
    reference_is_hermitian,
    reference_kernel_json,
    reference_kernel_norm,
    reference_psd_verdict,
    reference_shift,
    reference_table,
    same_bits,
    same_verdict,
    single_block,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
descriptors = st.sampled_from(
    [AlgebraDescriptor(d) for d in ([1], [2], [1, 2], [3, 1])]
)
sizes = st.integers(min_value=2, max_value=5)

SIGN_FLIP = scalar_kernel([[0.0, -1.0], [-1.0, 0.0]])
SIGN_FLIP_SQUARE = scalar_kernel([[0.0, 1.0], [1.0, 0.0]])


def mixed_kernel(seed, n, desc):
    """One kernel per seed, alternating over the generator classes so both
    verdict branches appear."""
    cfg = GenConfig(seed=seed, n=n, descriptor=desc)
    draw = seed % 4
    if draw == 0:
        return random_gram_kernel(cfg)
    if draw == 1:
        return random_cpd_kernel(cfg)
    if draw == 2:
        return random_cpd_kernel(cfg, diagonal_zero=True)
    return random_non_cpd_kernel(cfg)


class TestIndexSet:
    def test_labels_stay_ordered(self):
        s = IndexSet(["b", "a", "c"])
        assert s.labels == ("b", "a", "c")
        assert s.index("c") == 2

    def test_duplicates_are_rejected(self):
        with pytest.raises(ValueError):
            IndexSet(["a", "a"])

    def test_unknown_label(self):
        with pytest.raises(UnknownLabel):
            IndexSet(["a"]).index("b")


class TestKernelTable:
    def test_table_must_be_square(self):
        z = AlgebraElement.zero(AlgebraDescriptor([1]))
        with pytest.raises(Exception):
            Kernel(IndexSet(["a", "b"]), AlgebraDescriptor([1]), [[z, z]])

    def test_entries_must_share_the_descriptor(self):
        d1 = AlgebraDescriptor([1])
        foreign = AlgebraElement.zero(AlgebraDescriptor([2]))
        with pytest.raises(Exception):
            Kernel(IndexSet(["a"]), d1, [[foreign]])

    def test_label_lookup(self):
        K = scalar_kernel([[1.0, 2.0], [2.0, 1.0]], ["x", "y"])
        assert K[("x", "y")].blocks[0][0, 0] == 2.0

    def test_hermitian_probe(self):
        assert SIGN_FLIP.is_hermitian()
        raw = scalar_kernel([[0.0, 1.0], [2.0, 0.0]])
        assert not raw.is_hermitian()


class TestAssembleGram:
    def test_scalar_table_assembles_to_itself(self):
        (G,) = assemble_gram(SIGN_FLIP)
        assert np.array_equal(G, np.array([[0.0, -1.0], [-1.0, 0.0]]))

    def test_single_label_assembles_to_the_value(self):
        K = block_kernel([[np.diag([2.0, 3.0])]], ["a"])
        (G,) = assemble_gram(K)
        assert np.array_equal(G, np.diag([2.0, 3.0]))

    def test_blocks_land_in_reading_order(self):
        a = np.array([[1.0, 0.0], [0.0, 1.0]])
        b = np.array([[0.0, 2.0], [2.0, 0.0]])
        K = block_kernel([[a, b], [b, a]], ["s", "t"])
        (G,) = assemble_gram(K)
        assert np.array_equal(G[0:2, 2:4], b)
        assert np.array_equal(G[2:4, 0:2], b)
        assert np.array_equal(G[2:4, 2:4], a)

    def test_non_hermitian_tables_are_rejected(self):
        raw = scalar_kernel([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(NotHermitian):
            assemble_gram(raw)


class TestIsPositiveDefinite:
    def test_gram_kernels_pass(self):
        K = random_gram_kernel(GenConfig(seed=3, n=4, descriptor=AlgebraDescriptor([2, 1])))
        assert is_positive_definite(K).holds

    def test_zero_kernel_passes(self):
        K = Kernel.zero(IndexSet(["a", "b"]), AlgebraDescriptor([2]))
        assert is_positive_definite(K).holds

    def test_indefinite_scalar_table_fails_with_witness(self):
        # Eigenvalues are 3 and -1.
        K = scalar_kernel([[1.0, 2.0], [2.0, 1.0]])
        verdict = is_positive_definite(K)
        assert not verdict.holds
        w = verdict.witness
        assert w is not None
        assert w.eigenvalue == pytest.approx(-1.0)
        # The witness is independently checkable against the assembled matrix.
        G = assemble_gram(K)[w.summand]
        quad = (w.vector.conj() @ G @ w.vector).real
        assert quad == pytest.approx(w.eigenvalue)
        assert np.linalg.norm(w.vector) == pytest.approx(1.0)

    def test_diagonal_entries_of_pd_kernels_are_positive(self):
        K = random_gram_kernel(GenConfig(seed=11, n=3, descriptor=AlgebraDescriptor([2])))
        assert is_positive_definite(K).holds
        for i in range(K.n):
            assert is_positive(K.values[i][i])


class TestIsConditionallyPositiveDefinite:
    def test_sign_flip_table_passes(self):
        assert is_conditionally_positive_definite(SIGN_FLIP).holds

    def test_positive_off_diagonal_with_zero_diagonal_fails(self):
        assert not is_conditionally_positive_definite(SIGN_FLIP_SQUARE).holds

    def test_failure_witness_lives_in_the_compressed_space(self):
        verdict = is_conditionally_positive_definite(SIGN_FLIP_SQUARE)
        w = verdict.witness
        C = compressed_gram(SIGN_FLIP_SQUARE)[w.summand]
        assert C.shape == (1, 1)
        assert C[0, 0].real == pytest.approx(-2.0)
        quad = (w.vector.conj() @ C @ w.vector).real
        assert quad == pytest.approx(w.eigenvalue)
        assert w.eigenvalue == pytest.approx(-2.0)

    def test_positive_definite_implies_conditionally_positive(self):
        K = random_gram_kernel(GenConfig(seed=5, n=3, descriptor=AlgebraDescriptor([1, 2])))
        assert is_positive_definite(K).holds
        assert is_conditionally_positive_definite(K).holds

    def test_single_label_is_rejected(self):
        K = Kernel.zero(IndexSet(["only"]), AlgebraDescriptor([1]))
        with pytest.raises(ValueError):
            is_conditionally_positive_definite(K)

    @given(seed=seeds, n=sizes, desc=descriptors)
    def test_verdict_is_invariant_under_positive_scaling(self, seed, n, desc):
        K = mixed_kernel(seed, n, desc)
        base = is_conditionally_positive_definite(K).holds
        for alpha in (1e-6, 1e6):
            assert is_conditionally_positive_definite(alpha * K).holds == base

    def test_cpd_cone_is_closed_under_positive_combinations(self):
        desc = AlgebraDescriptor([2])
        a = random_cpd_kernel(GenConfig(seed=21, n=3, descriptor=desc))
        b = random_cpd_kernel(GenConfig(seed=22, n=3, descriptor=desc))
        combo = 0.7 * a + 2.5 * b
        assert is_conditionally_positive_definite(combo).holds


class TestShiftTransform:
    def test_hand_value_at_the_first_label(self):
        L = shift_transform(SIGN_FLIP, "s1")
        (G,) = assemble_gram(L)
        assert np.array_equal(G, np.array([[0.0, 0.0], [0.0, 1.0]]))

    def test_zero_kernel_shifts_to_zero(self):
        K = Kernel.zero(IndexSet(["a", "b"]), AlgebraDescriptor([2]))
        L = shift_transform(K, "b")
        assert kernel_norm(L) == 0.0

    def test_affine_kernels_shift_to_zero(self):
        rng = np.random.default_rng(17)
        desc = AlgebraDescriptor([2])
        labels = ["a", "b", "c"]
        g = {
            s: AlgebraElement(desc, [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))])
            for s in labels
        }
        values = [[g[s] + adjoint(g[t]) for t in labels] for s in labels]
        K = Kernel(IndexSet(labels), desc, values)
        for s0 in labels:
            assert kernel_norm(shift_transform(K, s0)) <= 1e-12 * kernel_norm(K)

    def test_unknown_base_point(self):
        with pytest.raises(UnknownLabel):
            shift_transform(SIGN_FLIP, "nope")

    @given(seed=seeds, n=sizes, desc=descriptors)
    def test_equivalence_with_conditional_positivity_at_every_base_point(
        self, seed, n, desc
    ):
        K = mixed_kernel(seed, n, desc)
        cpd = is_conditionally_positive_definite(K).holds
        for s0 in K.index_set.labels:
            shifted = is_positive_definite(shift_transform(K, s0)).holds
            assert shifted == cpd


class TestRecoverAffinePart:
    def test_affine_kernels_are_reproduced(self):
        rng = np.random.default_rng(23)
        desc = AlgebraDescriptor([1, 2])
        labels = ["a", "b", "c"]
        g = {
            s: AlgebraElement(
                desc,
                [
                    rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                    for d in desc.summand_dims
                ],
            )
            for s in labels
        }
        K = Kernel(
            IndexSet(labels), desc, [[g[s] + adjoint(g[t]) for t in labels] for s in labels]
        )
        for s0 in labels:
            h = recover_affine_part(K, s0)
            err = max(
                op_norm(K[(s, t)] - h[s] - adjoint(h[t]))
                for s in labels
                for t in labels
            )
            assert err <= 1e-9 * (1.0 + kernel_norm(K))

    def test_zero_kernel_gives_zero_map(self):
        K = Kernel.zero(IndexSet(["a", "b"]), AlgebraDescriptor([1]))
        h = recover_affine_part(K, "a")
        assert all(op_norm(v) == 0.0 for v in h.values())

    def test_constant_kernel(self):
        K = scalar_kernel([[2.0, 2.0], [2.0, 2.0]])
        h = recover_affine_part(K, "s1")
        for s in K.index_set.labels:
            assert h[s].blocks[0][0, 0] == pytest.approx(1.0)


class TestShiftedMatrixCheck:
    def test_sign_flip_holds_and_matches_the_hand_shift(self):
        verdict = cond_positive_matrix_check(SIGN_FLIP, 2)
        assert verdict.holds
        (G,) = assemble_gram(2.0 * shift_transform(SIGN_FLIP, "s2"))
        assert np.array_equal(G, np.array([[2.0, 0.0], [0.0, 0.0]]))

    def test_square_fails_and_matches_the_hand_shift(self):
        verdict = cond_positive_matrix_check(SIGN_FLIP_SQUARE, 2)
        assert not verdict.holds
        (G,) = assemble_gram(2.0 * shift_transform(SIGN_FLIP_SQUARE, "s2"))
        assert np.array_equal(G, np.array([[-2.0, 0.0], [0.0, 0.0]]))

    def test_positive_definite_kernels_pass_for_every_index(self):
        K = random_gram_kernel(GenConfig(seed=9, n=3, descriptor=AlgebraDescriptor([2])))
        for m in range(1, K.n + 1):
            assert cond_positive_matrix_check(K, m).holds

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            cond_positive_matrix_check(SIGN_FLIP, 0)
        with pytest.raises(ValueError):
            cond_positive_matrix_check(SIGN_FLIP, 3)

    @given(seed=seeds, n=sizes, desc=descriptors)
    def test_verdict_is_independent_of_the_index(self, seed, n, desc):
        K = mixed_kernel(seed, n, desc)
        expected = is_conditionally_positive_definite(K).holds
        for m in range(1, n + 1):
            assert cond_positive_matrix_check(K, m).holds == expected


class TestTwoByTwoCheck:
    def test_negative_coupling_is_conditionally_positive(self):
        desc = AlgebraDescriptor([1])
        zero = AlgebraElement.zero(desc)
        minus_one = single_block([[-1.0]])
        assert two_by_two_check(zero, minus_one, zero)

    def test_positive_coupling_is_not(self):
        desc = AlgebraDescriptor([1])
        zero = AlgebraElement.zero(desc)
        one = single_block([[1.0]])
        assert not two_by_two_check(zero, one, zero)

    def test_identity_diagonal_dominates_zero_coupling(self):
        desc = AlgebraDescriptor([2])
        eye = AlgebraElement.identity(desc)
        assert two_by_two_check(eye, AlgebraElement.zero(desc), eye)

    @given(seed=seeds, desc=descriptors)
    def test_agreement_with_the_compression_on_two_labels(self, seed, desc):
        K = mixed_kernel(seed, 2, desc)
        expected = is_conditionally_positive_definite(K).holds
        got = two_by_two_check(K.values[0][0], K.values[0][1], K.values[1][1])
        assert got == expected


class TestSchurProduct:
    def test_square_of_the_sign_flip_table_loses_conditional_positivity(self):
        square = schur_product(SIGN_FLIP, SIGN_FLIP)
        (G,) = assemble_gram(square)
        assert np.array_equal(G, np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert is_conditionally_positive_definite(SIGN_FLIP).holds
        assert not is_conditionally_positive_definite(square).holds

    def test_product_with_zero_vanishes(self):
        zero = Kernel.zero(SIGN_FLIP.index_set, SIGN_FLIP.descriptor)
        assert kernel_norm(schur_product(SIGN_FLIP, zero)) == 0.0

    @given(seed=seeds)
    def test_products_of_commutative_pd_kernels_stay_pd(self, seed):
        # All summands have size one, so entries commute.
        desc = AlgebraDescriptor([1, 1])
        a = random_gram_kernel(GenConfig(seed=seed, n=3, descriptor=desc))
        b = random_gram_kernel(GenConfig(seed=seed + 1, n=3, descriptor=desc))
        assert is_positive_definite(schur_product(a, b)).holds

    def test_square_of_a_hermitian_kernel_stays_hermitian(self):
        # (K(s,t) K(s,t))* = K(s,t)* K(s,t)* = K(t,s) K(t,s) for any
        # hermitian K, so squaring never leaves the hermitian kernels.
        cfg = GenConfig(seed=2, n=3, descriptor=AlgebraDescriptor([2]))
        K = random_hermitian_kernel(cfg)
        assert schur_product(K, K).is_hermitian()

    def test_noncommuting_factors_can_leave_the_hermitian_cone(self):
        desc = AlgebraDescriptor([2])
        K1 = random_hermitian_kernel(GenConfig(seed=3, n=2, descriptor=desc))
        K2 = random_hermitian_kernel(GenConfig(seed=4, n=2, descriptor=desc))
        raw = schur_product(K1, K2)
        assert not raw.is_hermitian()
        with pytest.raises(NotHermitian):
            is_positive_definite(raw)


class TestCauchySchwarzChecks:
    def test_generated_cpd_kernels_pass_the_diagonal_bound(self):
        K = random_cpd_kernel(GenConfig(seed=31, n=4, descriptor=AlgebraDescriptor([2, 1])))
        assert cauchy_schwarz_cpd_check(K).holds

    def test_square_fixture_fails_the_diagonal_bound(self):
        verdict = cauchy_schwarz_cpd_check(SIGN_FLIP_SQUARE)
        assert not verdict.holds
        assert verdict.witness.eigenvalue == pytest.approx(-2.0)
        assert "pair" in verdict.context

    def test_zero_kernel_passes_both(self):
        K = Kernel.zero(IndexSet(["a", "b"]), AlgebraDescriptor([2]))
        assert cauchy_schwarz_cpd_check(K).holds
        assert cauchy_schwarz_pd_check(K).holds

    @pytest.mark.parametrize("dims", KERNEL_DESCRIPTORS)
    def test_stacked_checks_match_the_per_pair_loop(self, dims):
        desc = AlgebraDescriptor(dims)
        contexts = set()
        for seed in range(8):
            K = mixed_kernel(seed, 2 + seed % 4, desc)
            H = random_hermitian_kernel(GenConfig(seed=seed, n=K.n, descriptor=desc))
            raw = schur_product(K, H)  # not hermitian over noncommutative summands
            for T in (K, H, raw, shift_transform(K, K.index_set.labels[0])):
                for check, reference in ((cauchy_schwarz_cpd_check, reference_cauchy_schwarz_cpd),
                                         (cauchy_schwarz_pd_check, reference_cauchy_schwarz_pd)):
                    verdict = check(T)
                    assert same_verdict(verdict, reference(T))
                    contexts.add((verdict.context or "holds").split(" (")[0])
        assert {"holds", "pair"} <= contexts
        assert ("non-hermitian difference at" in contexts) == (max(dims) > 1)

    @pytest.mark.parametrize("check", [cauchy_schwarz_cpd_check, cauchy_schwarz_pd_check])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1.7e308])
    def test_non_finite_or_overflowing_tables_raise(self, check, bad):
        K = raw_scalar_kernel([[1e308, bad], [bad, 1e308]])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(NonFinite):
                check(K)
        assert [str(w.message) for w in caught] == []

    def test_generated_pd_kernels_pass_the_norm_bound(self):
        K = random_gram_kernel(GenConfig(seed=37, n=4, descriptor=AlgebraDescriptor([3])))
        assert cauchy_schwarz_pd_check(K).holds

    def test_indefinite_scalar_table_fails_the_norm_bound(self):
        verdict = cauchy_schwarz_pd_check(scalar_kernel([[1.0, 2.0], [2.0, 1.0]]))
        assert not verdict.holds
        # 4 is not below 1.
        assert verdict.witness.eigenvalue == pytest.approx(-3.0)

    def test_hermitian_non_cpd_kernels_can_still_fail_fast(self):
        K = random_non_cpd_kernel(GenConfig(seed=41, n=3, descriptor=AlgebraDescriptor([2])))
        assert not is_conditionally_positive_definite(K).holds


class TestKernelNorm:
    def test_largest_entry_norm(self):
        K = scalar_kernel([[1.0, -7.0], [-7.0, 2.0]])
        assert kernel_norm(K) == pytest.approx(7.0)

    def test_hermitian_generator_is_hermitian(self):
        K = random_hermitian_kernel(GenConfig(seed=13, n=4, descriptor=AlgebraDescriptor([2, 2])))
        assert K.is_hermitian()


def _corpus(count):
    """Seeded kernels over every entry of ``KERNEL_DESCRIPTORS``, passes and
    failures alike."""
    for i in range(count):
        desc = AlgebraDescriptor(KERNEL_DESCRIPTORS[i % len(KERNEL_DESCRIPTORS)])
        yield mixed_kernel(500 + i, 2 + i % 4, desc)


class TestArrayHermiticity:
    """``Kernel.is_hermitian`` on the assembled arrays against the per-entry
    loop it replaced."""

    @staticmethod
    def _perturbed(K, factor, block, column=1):
        """``K`` with ``K(s_1, s_{column + 1})`` moved by ``factor * tol_rel *
        scale`` in 2-norm along ``block``, a matrix of 2-norm 1 per summand."""
        scale = max(1.0, kernel_norm(K))
        grams = [G.copy() for G in assemble_gram(K)]
        for d, G in zip(K.descriptor.summand_dims, grams):
            G[0:d, column * d : (column + 1) * d] += (
                factor * DEFAULT_TOL.tol_rel * scale * block(d))
        return Kernel._of(K.index_set, K.descriptor, grams)

    @pytest.mark.parametrize("dims", [[1], [2, 1], [8, 8], [3, 2]])
    @pytest.mark.parametrize("n", [2, 6, 32])
    def test_generated_tables_and_their_shifts_pass_the_prefilter(self, monkeypatch, dims, n):
        # The exact per-block test, which needs the entry norms, never runs.
        desc, tables = AlgebraDescriptor(dims), []
        for magnitude in (1e-6, 1.0, 1e6):
            cfg = GenConfig(seed=n, n=n, descriptor=desc, magnitude=magnitude)
            for K in (random_gram_kernel(cfg), random_cpd_kernel(cfg),
                      random_cpd_kernel(cfg, diagonal_zero=True),
                      random_hermitian_kernel(cfg), random_non_cpd_kernel(cfg)):
                fresh = Kernel._of(K.index_set, desc, K._grams)  # no cached entry norms
                tables += [fresh, shift_transform(fresh, "s1")]
        calls = []
        monkeypatch.setattr(kernels, "spectral_norms", lambda S: calls.append(S.shape))
        for L in tables:
            assemble_gram(L)
        assert calls == []

    def test_an_overflowing_defect_fails_without_reaching_lapack(self, capfd):
        # LAPACK writes to the process's stdout when asked for the 2-norm of
        # an all-infinite block, here K(a, b) - K(b, a)*.
        big = 1.7e308 * np.ones((3, 3))
        K = block_kernel([[np.eye(3), big], [-big, np.eye(3)]], ["a", "b"])
        assert not K.is_hermitian()
        assert capfd.readouterr() == ("", "")

    def test_hermitian_part_has_the_bits_of_the_formula(self):
        rng = np.random.default_rng(12)
        zeros = np.array([complex(x, y) for x in (0.0, -0.0) for y in (0.0, -0.0)])
        for shape in ((1, 1), (4, 4), (3, 5, 5), (2, 3, 2, 2)):
            a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            zero = rng.random(shape) < 0.3
            a[zero] = rng.choice(zeros, zero.sum())
            a.real[rng.random(shape) < 0.2] = -0.0
            expected = 0.5 * (a + a.conj().swapaxes(-1, -2))
            assert _hermitian_part(a).tobytes() == expected.tobytes()
        a = np.array([[1e308, 1.7e308], [1.7e308 + 1e308j, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            h = _hermitian_part(a)
        with np.errstate(over="ignore", invalid="ignore"):
            assert h.tobytes() == (0.5 * (a + a.conj().T)).tobytes()
        assert np.isinf(h.real).sum() == 3 and h[1, 1] == 1.0

    # Around the Frobenius prefilter's threshold (1/2) and the exact test's (1).
    FACTORS = (0.25, -0.25, 0.5, -0.5, 0.75, -0.75, 1.5, -1.5, 2.0, -2.0)

    @pytest.mark.parametrize("factor", FACTORS)
    @pytest.mark.parametrize("magnitude", [1e-3, 1.0, 1e3])
    def test_off_diagonal_perturbations_match_the_loop(self, factor, magnitude):
        for i, dims in enumerate(KERNEL_DESCRIPTORS):
            cfg = GenConfig(seed=70 + i, n=3, descriptor=AlgebraDescriptor(dims),
                            magnitude=magnitude)
            K = self._perturbed(random_hermitian_kernel(cfg), factor,
                                lambda d: np.outer(np.eye(d)[0], np.eye(d)[-1]))
            assert K.is_hermitian() == reference_is_hermitian(K)
            assert K.is_hermitian() == (abs(factor) < 1.0)

    @pytest.mark.parametrize("factor", FACTORS)
    @pytest.mark.parametrize("magnitude", [1e-3, 1.0, 1e3])
    def test_diagonal_perturbations_match_the_loop(self, factor, magnitude):
        # An anti-hermitian move, i e_1 e_d^T, of K(s_1, s_1).
        for i, dims in enumerate(KERNEL_DESCRIPTORS):
            cfg = GenConfig(seed=70 + i, n=3, descriptor=AlgebraDescriptor(dims),
                            magnitude=magnitude)
            K = self._perturbed(random_hermitian_kernel(cfg), factor,
                                lambda d: 1j * np.outer(np.eye(d)[0], np.eye(d)[-1]), column=0)
            assert K.is_hermitian() == reference_is_hermitian(K)

    def test_frobenius_above_the_threshold_with_the_2_norm_below(self):
        # 0.9 * I_d has 2-norm 0.9 and Frobenius norm 0.9 * sqrt(d) >= 1.27:
        # the prefilter cannot decide, and the exact 2-norms pass the table.
        for i, dims in enumerate(([2], [3, 2], [4], [1, 2, 3])):
            cfg = GenConfig(seed=90 + i, n=3, descriptor=AlgebraDescriptor(dims))
            K = self._perturbed(random_hermitian_kernel(cfg), 0.9, np.eye)
            assert K.is_hermitian()
            assert reference_is_hermitian(K)

    def test_raw_and_generated_tables_match_the_loop(self):
        for K in _corpus(45):
            assert K.is_hermitian() == reference_is_hermitian(K)
            raw = schur_product(K, K + K)
            assert raw.is_hermitian() == reference_is_hermitian(raw)

    def test_kernel_norm_matches_the_per_entry_norms(self):
        for K in _corpus(45):
            assert kernel_norm(K) == reference_kernel_norm(K)


class TestSlicedCompression:
    def test_equals_the_difference_basis_product_bit_for_bit(self):
        for K in _corpus(90):
            for d, G, C in zip(K.descriptor.summand_dims, assemble_gram(K), compressed_gram(K)):
                T = difference_basis(K.n, d)
                assert C.tobytes() == (T.conj().T @ G @ T).tobytes()


class TestArrayStorage:
    """The one read-only array per summand against the per-entry table."""

    SCALARS = (0.37, -2.5, 3, np.float64(1.5), 1 - 2j)

    def test_assembled_arrays_cannot_be_written(self):
        K = random_cpd_kernel(GenConfig(seed=3, n=3, descriptor=AlgebraDescriptor([2, 1])))
        for G in assemble_gram(K):
            with pytest.raises(ValueError):
                G[0, 0] = 1.0
            with pytest.raises(ValueError):
                G += 1.0
        with pytest.raises(ValueError):
            K.value(0, 1).blocks[0][0, 0] = 1.0

    def test_values_are_the_given_blocks_and_views_of_the_arrays(self):
        rng = np.random.default_rng(5)
        for m, dims in enumerate(KERNEL_DESCRIPTORS):
            desc = AlgebraDescriptor(dims)
            raw = [
                [AlgebraElement(desc, [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                                       for d in dims]) for _ in range(3)]
                for _ in range(3)
            ]
            assert same_bits(Kernel(IndexSet(["a", "b", "c"]), desc, raw), raw)
            H = random_hermitian_kernel(GenConfig(seed=m, n=3, descriptor=desc))
            table = reference_table(H)
            K = Kernel(H.index_set, desc, table)
            assert same_bits(K, table)
            assert K.values is K.values
            grams = assemble_gram(K)
            for i in range(K.n):
                for j in range(K.n):
                    for k, (d, G) in enumerate(zip(dims, grams)):
                        block = K.values[i][j].blocks[k]
                        assert np.shares_memory(block, G)
                        assert not block.flags.writeable
                        want = table[i][j].blocks[k].tobytes()
                        assert G[i * d : (i + 1) * d, j * d : (j + 1) * d].tobytes() == want

    def test_entrywise_arithmetic_matches_the_per_entry_table(self):
        for i, K in enumerate(_corpus(45)):
            K2 = mixed_kernel(900 + i, K.n, K.descriptor)
            assert same_bits(K + K2, reference_entrywise(operator.add, K, K2))
            assert same_bits(K - K2, reference_entrywise(operator.sub, K, K2))
            assert same_bits(schur_product(K, K2), reference_entrywise(operator.matmul, K, K2))
            for c in self.SCALARS:
                scaled = reference_entrywise(lambda a, _: c * a, K, K)
                assert same_bits(c * K, scaled)
                assert same_bits(K * c, scaled)

    def test_shift_transform_matches_the_per_entry_shift(self):
        for K in _corpus(45):
            for s0 in {K.index_set.labels[0], K.index_set.labels[-1]}:
                assert same_bits(shift_transform(K, s0), reference_shift(K, s0))

    def test_json_round_trip_matches_the_per_entry_rendering(self):
        for K in _corpus(45):
            for table in (K, schur_product(K, K + K)):
                doc = reference_kernel_json(table)
                text = dump_json(doc)
                assert dump_json(kernel_to_json(table)) == text
                assert dump_json(kernel_to_json(kernel_from_json(doc))) == text


class TestCholeskyPassTest:
    """The Cholesky-first verdict against an eigensolver-only verdict on
    kernels whose compressions sit at chosen relative margins."""

    @staticmethod
    def _at_margin(K, margin):
        """Move every summand's bottom compressed eigenvalue to
        ``margin * tol_rel * scale`` by a rank-one term along its
        eigenvector (the construction of ``random_non_cpd_kernel``)."""
        n = K.n
        grams = [G.copy() for G in assemble_gram(K)]
        for G, C in zip(grams, compressed_gram(K)):
            w, u = np.linalg.eigh(0.5 * (C + C.conj().T))
            scale = max(1.0, float(np.max(np.abs(w[1:]), initial=0.0)))
            y = np.zeros(G.shape[0], dtype=np.complex128)
            y[: C.shape[0]] = u[:, 0]
            G -= (w[0] - margin * DEFAULT_TOL.tol_rel * scale) * np.outer(y, y.conj())
        return Kernel._of(K.index_set, K.descriptor, grams)

    @staticmethod
    def _same(got, mats):
        """The verdict and summand of the eigensolver; the eigenvalue to
        within the eigensolvers' spread and a unit vector that is an
        eigenvector to within it, for the witness comes from ``eigvalsh``
        and inverse iteration."""
        want = eigh_verdict(mats)
        assert got.holds == want.holds
        if not want.holds:
            assert got.witness.summand == want.witness.summand
            M = mats[want.witness.summand]
            H = 0.5 * (M + M.conj().T)
            bound = _BAND * H.shape[0] * max(1.0, np.abs(np.linalg.eigvalsh(H)).max())
            lam, v = got.witness.eigenvalue, got.witness.vector
            assert abs(lam - want.witness.eigenvalue) <= bound
            assert abs(np.linalg.norm(v) - 1.0) <= 1e-12
            assert np.linalg.norm(H @ v - lam * v) <= bound

    @pytest.mark.parametrize("margin", MARGINS)
    def test_every_route_matches_the_eigensolver(self, margin):
        for i, dims in enumerate(KERNEL_DESCRIPTORS):
            cfg = GenConfig(seed=200 + i, n=2 + i % 4, descriptor=AlgebraDescriptor(dims))
            K = self._at_margin(random_cpd_kernel(cfg), margin)
            verdict = is_conditionally_positive_definite(K)
            assert verdict.holds == (margin > -1.0)
            self._same(verdict, compressed_gram(K))
            s0 = K.index_set.labels[-1]
            L = shift_transform(K, s0)
            self._same(is_positive_definite(L), assemble_gram(L))
            shifted = assemble_gram(2.0 * L)
            self._same(cond_positive_matrix_check(K, K.n), shifted)

    @pytest.mark.parametrize("margin", [m for m in MARGINS if m > 0])
    def test_clear_passes_are_decided_by_cholesky(self, margin):
        for i, dims in enumerate(KERNEL_DESCRIPTORS):
            cfg = GenConfig(seed=200 + i, n=2 + i % 4, descriptor=AlgebraDescriptor(dims))
            K = self._at_margin(random_cpd_kernel(cfg), margin)
            for C in compressed_gram(K):
                assert _cholesky_passes(0.5 * (C + C.conj().T), DEFAULT_TOL)

    @pytest.mark.parametrize("margin", MARGINS)
    def test_a_stack_passes_iff_each_of_its_matrices_does(self, margin):
        # Each matrix sits at ``margin`` or at a clear pass, drawn at random.
        rng = np.random.default_rng(17)
        for lead, d in (((6,), 3), ((2, 3), 2), ((5,), 1), ((0,), 4)):
            Z = rng.normal(size=lead + (d, d)) + 1j * rng.normal(size=lead + (d, d))
            w, u = np.linalg.eigh(Z @ Z.conj().swapaxes(-1, -2))
            at = rng.choice([margin, 10.0], size=lead)
            w[..., 0] = at * DEFAULT_TOL.tol_rel * np.maximum(1.0, w[..., -1])
            stack = (u * w[..., None, :]) @ u.conj().swapaxes(-1, -2)
            stack = 0.5 * (stack + stack.conj().swapaxes(-1, -2))
            each = [_cholesky_passes(h, DEFAULT_TOL) for h in stack.reshape(-1, d, d)]
            assert _cholesky_passes(stack, DEFAULT_TOL) == all(each)

    def test_large_orders_go_to_the_eigensolver(self):
        # Beyond N = 1060 at tol_rel = 1e-9 the backward error bound no longer
        # fits in the tolerance, so a pass needs the eigenvalues.
        assert _cholesky_passes(np.eye(1060), DEFAULT_TOL)
        assert not _cholesky_passes(np.eye(1061), DEFAULT_TOL)


class TestInverseIterationWitness:
    """Failing summands are decided by ``eigvalsh`` and the witness built by
    inverse iteration; ``eigh`` decides within the band of the threshold,
    ranks near-ties and is the fallback.  Each path against ``eigh``."""

    _at_margin = staticmethod(TestCholeskyPassTest._at_margin)

    @staticmethod
    def _counted(monkeypatch, name):
        calls, fn = [], getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda *a, **k: calls.append(1) or fn(*a, **k))
        return calls

    @staticmethod
    def _routes(K):
        """Each CPD route as the benchmark's checker names it, with its
        verdict and the matrices it decides."""
        L = shift_transform(K, K.index_set.labels[0])
        return [
            ("compression", is_conditionally_positive_definite(K), compressed_gram(K)),
            ("shift", is_positive_definite(L), assemble_gram(L)),
            ("corm", cond_positive_matrix_check(K, 1), assemble_gram(2.0 * L)),
        ]

    @pytest.mark.parametrize("k", [1, 16])
    @pytest.mark.parametrize("side", [1, -1])
    def test_margins_on_the_band_are_decided_by_eigh(self, monkeypatch, k, side):
        eps = np.finfo(np.float64).eps
        for i, dims in enumerate(KERNEL_DESCRIPTORS):
            cfg = GenConfig(seed=300 + i, n=2 + i % 4, descriptor=AlgebraDescriptor(dims))
            N = (cfg.n - 1) * max(dims)
            K = self._at_margin(random_cpd_kernel(cfg), -(1.0 + side * k * N * eps))
            want = eigh_verdict(compressed_gram(K))
            eighs = self._counted(monkeypatch, "eigh")
            assert same_verdict(is_conditionally_positive_definite(K), want)
            assert eighs
            monkeypatch.undo()

    @staticmethod
    def _singular(A, b):
        raise np.linalg.LinAlgError("Singular matrix")

    @staticmethod
    def _breaks_down(A, b):
        return np.full_like(b, np.nan)

    @pytest.mark.parametrize("solve", ["_singular", "_breaks_down"])
    def test_a_failed_solve_falls_back_to_eigh(self, monkeypatch, solve):
        for i, dims in enumerate(KERNEL_DESCRIPTORS):
            cfg = GenConfig(seed=400 + i, n=2 + i % 4, descriptor=AlgebraDescriptor(dims))
            K = random_non_cpd_kernel(cfg)
            wants = [eigh_verdict(mats) for _, _, mats in self._routes(K)]
            monkeypatch.setattr(np.linalg, "solve", getattr(self, solve))
            for (_, verdict, _), want in zip(self._routes(K), wants):
                assert not want.holds
                assert same_verdict(verdict, want)
            monkeypatch.undo()

    def test_near_ties_are_ranked_by_eigh(self):
        for i, dims in enumerate(d for d in KERNEL_DESCRIPTORS if len(d) > 1):
            cfg = GenConfig(seed=500 + i, n=3, descriptor=AlgebraDescriptor(dims))
            K = self._at_margin(random_cpd_kernel(cfg), -10.0)
            mats = compressed_gram(K)
            assert same_verdict(is_conditionally_positive_definite(K), eigh_verdict(mats))

    def test_a_tie_at_minus_one_goes_to_the_first_summand_without_eigh(self, monkeypatch):
        checker = load_bench_module("check").Checker()
        for i, dims in enumerate(d for d in KERNEL_DESCRIPTORS if len(d) > 1):
            cfg = GenConfig(seed=600 + i, n=4, descriptor=AlgebraDescriptor(dims))
            K = -1.0 * random_gram_kernel(cfg)
            want = eigh_verdict(compressed_gram(K))
            assert want.witness.summand == 0
            eighs = self._counted(monkeypatch, "eigh")
            verdict = is_conditionally_positive_definite(K)
            assert not eighs
            monkeypatch.undo()
            lam, N = verdict.witness.eigenvalue, compressed_gram(K)[0].shape[0]
            assert verdict.witness.summand == 0
            assert abs(lam - want.witness.eigenvalue) <= _BAND * N * abs(lam)
            assert checker.decision(K, "compression", False, verdict) is None

    def test_each_hermitian_part_is_computed_once(self, monkeypatch):
        for seed in range(4):
            cfg = GenConfig(seed=seed, n=4, descriptor=AlgebraDescriptor([2, 1]))
            K = random_non_cpd_kernel(cfg)
            calls, part = [], kernels._hermitian_part
            monkeypatch.setattr(kernels, "_hermitian_part", lambda M: calls.append(1) or part(M))
            assert not is_conditionally_positive_definite(K).holds
            monkeypatch.undo()
            assert len(calls) == 2  # one per summand: the pass, the witness and ties share it

    def test_a_margin_of_minus_one_without_a_clear_gap_goes_to_eigh(self, monkeypatch):
        eighs = self._counted(monkeypatch, "eigh")
        assert psd_defect(np.diag([-2.0, 0.5, 1.0]))[0] == -1.0
        assert not eighs
        assert psd_defect(np.diag([-2.0, 0.5, 2.0]))[0] == -1.0
        assert eighs

    @staticmethod
    def _witnesses_recheck(K, checker):
        for route, verdict, mats in TestInverseIterationWitness._routes(K):
            TestCholeskyPassTest._same(verdict, mats)
            if not verdict.holds:
                assert checker.decision(K, route, False, verdict) is None

    @pytest.mark.parametrize("margin", MARGINS)
    def test_every_witness_rechecks(self, margin):
        checker = load_bench_module("check").Checker()
        for i, dims in enumerate(KERNEL_DESCRIPTORS):
            cfg = GenConfig(seed=200 + i, n=2 + i % 4, descriptor=AlgebraDescriptor(dims))
            self._witnesses_recheck(self._at_margin(random_cpd_kernel(cfg), margin), checker)

    def test_a_clustered_bottom_spectrum_converges(self, monkeypatch):
        # Order 384: a single family leaves the compression of rank 64; the
        # bottom eigenvalue sits 2 tol_rel * scale below 319 zero ones.
        cfg = GenConfig(seed=7, n=7, descriptor=AlgebraDescriptor([64]), rank=1)
        K = self._at_margin(random_cpd_kernel(cfg, diagonal_zero=True), -2.0)
        assert compressed_gram(K)[0].shape == (384, 384)
        eighs = self._counted(monkeypatch, "eigh")
        verdict = is_conditionally_positive_definite(K)
        assert not verdict.holds and not eighs
        monkeypatch.undo()
        self._witnesses_recheck(K, load_bench_module("check").Checker())


class TestFamilyDecision:
    """A family of summands is decided in one pass: the first margin of
    exactly -1 ends it, only the reported summand gets an inverse-iteration
    witness, and a Cholesky whose diagonal already fails is not run.  The
    verdict is the summand-by-summand reference's, bit for bit."""

    _counted = staticmethod(TestInverseIterationWitness._counted)

    @pytest.mark.parametrize("margin", MARGINS)
    def test_every_route_equals_the_reference(self, margin):
        for i, dims in enumerate(KERNEL_DESCRIPTORS):
            cfg = GenConfig(seed=200 + i, n=2 + i % 4, descriptor=AlgebraDescriptor(dims))
            K = TestCholeskyPassTest._at_margin(random_cpd_kernel(cfg), margin)
            for _, verdict, mats in TestInverseIterationWitness._routes(K):
                assert same_verdict(verdict, reference_psd_verdict(mats))

    @staticmethod
    def _rotated(w, seed):
        """A hermitian matrix with eigenvalues ``w`` in a seeded unitary basis."""
        rng = np.random.default_rng(seed)
        Z = rng.standard_normal((len(w), len(w))) + 1j * rng.standard_normal((len(w), len(w)))
        Q = np.linalg.qr(Z)[0]
        H = (Q * np.asarray(w)) @ Q.conj().T
        return 0.5 * (H + H.conj().T)

    # Margin exactly -1 with a clear gap; -0.5 and -0.25 fail; the last passes.
    MINUS_ONE = (-3.0, 0.5, 1.0, 2.0)
    OTHERS = ((-1.5, 0.5, 1.0, 3.0), (-0.25, 0.2, 1.0, 1.0), (1.0, 2.0, 3.0, 4.0))

    def test_ties_at_minus_one_at_every_position(self):
        for p in range(3):
            for q in range(p, 3):
                mats = [self._rotated(self.MINUS_ONE if k in (p, q) else self.OTHERS[k], k)
                        for k in range(3)]
                verdict = _psd_verdict(mats, DEFAULT_TOL)
                assert verdict.witness.summand == p
                assert same_verdict(verdict, reference_psd_verdict(mats))

    def _near_minus_one(self, eigh_at_minus_one):
        """A matrix whose ``eigvalsh`` margin lies a few ulps inside -1 and
        whose ``eigh`` margin is exactly -1, or also inside it."""
        N = len(self.MINUS_ONE)
        for seed in range(1000):
            near = self._rotated((-3.0, 0.5, 1.0, 3.0), seed)
            w, e = np.linalg.eigvalsh(near), np.linalg.eigh(near)[0]
            by_eigh = e[0] / np.abs(e).max()
            if -1.0 < w[0] / np.abs(w).max() <= -1.0 + _BAND * N and (
                    by_eigh == -1.0 if eigh_at_minus_one else -1.0 < by_eigh <= -1.0 + _BAND * N):
                return near
        pytest.fail("no near-tie at -1 among the seeds")

    @pytest.mark.parametrize("eigh_at_minus_one", [True, False])
    def test_near_ties_at_minus_one_are_ranked_by_eigh(self, eigh_at_minus_one):
        # Where eigh puts the earlier near-tie at -1 it is reported, else the
        # clear -1, keeping its inverse-iteration witness.
        near, clear = self._near_minus_one(eigh_at_minus_one), self._rotated(self.MINUS_ONE, 0)
        for mats, first in (([near, clear], 0 if eigh_at_minus_one else 1), ([clear, near], 0),
                            ([near, self._rotated(self.OTHERS[1], 1), clear],
                             0 if eigh_at_minus_one else 2)):
            verdict = _psd_verdict(mats, DEFAULT_TOL)
            assert verdict.witness.summand == first
            assert same_verdict(verdict, reference_psd_verdict(mats))

    def test_the_benchmark_shift_decision_stops_at_minus_one(self, monkeypatch, tmp_path):
        workloads = load_bench_module("workloads", ("check", "spans"))
        spec = workloads.SPECS["decide"]
        ops = spec.build(spec, 1, tmp_path, workloads.Checker())
        op = next(op for op in ops if op.kind == "coarse-shift" and op.check.args[2] is False)
        calls = {name: self._counted(monkeypatch, name)
                 for name in ("eigvalsh", "solve", "cholesky", "eigh")}
        verdict = op.run()
        monkeypatch.undo()
        # Both summands sit at -1: one eigvalsh, one witness, no Cholesky.
        assert {name: len(c) for name, c in calls.items()} == {
            "eigvalsh": 1, "solve": 2, "cholesky": 0, "eigh": 0}
        assert op.check(verdict) is None

    def test_only_the_reported_summand_gets_a_witness(self, monkeypatch):
        mats = [self._rotated(self.OTHERS[0], 0), self._rotated(self.OTHERS[1], 1)]
        solves = self._counted(monkeypatch, "solve")
        verdict = _psd_verdict(mats, DEFAULT_TOL)
        monkeypatch.undo()
        assert verdict.witness.summand == 0
        assert len(solves) == 2
        assert same_verdict(verdict, reference_psd_verdict(mats))


class TestFailClosed:
    def test_overflowing_kernels_raise_instead_of_passing(self):
        for off in (1.7e308, -1.7e308):
            K = scalar_kernel([[1e308, off], [off, 1e308]])
            for decide in (
                lambda: is_positive_definite(K),
                lambda: is_conditionally_positive_definite(K),
                lambda: is_positive_definite(shift_transform(K, "s1")),
                lambda: cond_positive_matrix_check(K, 1),
            ):
                raises_without_warning(decide)

    def test_an_overflow_after_a_margin_of_minus_one_raises(self):
        # Summand 0 fails at -1 on every route, so no later summand can be
        # reported; summand 1 must still raise.  At b = -1e308 its
        # compression and shifted tables overflow; at -5e307 the hermitian
        # parts of its compression and corm matrix do (its halved shift is
        # finite throughout).
        for b in (-1e308, -5e307):
            K = Kernel._of(IndexSet(["s1", "s2"]), AlgebraDescriptor([1, 1]),
                           [np.diag([-3.0, -3.0]).astype(complex),
                            np.array([[0.0, b], [b, 0.0]], dtype=complex)])
            decisions = [lambda: is_conditionally_positive_definite(K),
                         lambda: cond_positive_matrix_check(K, 1)]
            if b == -1e308:
                decisions.append(lambda: is_positive_definite(shift_transform(K, "s1")))
            for decide in decisions:
                raises_without_warning(decide)
        # Finite hermitian parts whose norm overflows: the bottom eigenvalue
        # of the second summand is -2.4e308, which only an eigensolver finds.
        K = Kernel._of(IndexSet(["s1", "s2", "s3"]), AlgebraDescriptor([1, 1]),
                       [np.diag([-3.0] * 3).astype(complex),
                        np.full((3, 3), -8e307, dtype=complex)])
        raises_without_warning(lambda: is_positive_definite(K))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_raise(self, bad):
        K = raw_scalar_kernel([[1.0, bad], [bad, 1.0]])
        raises_without_warning(K.is_hermitian)
        raises_without_warning(lambda: is_conditionally_positive_definite(K))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.inf)])
    def test_constructors_reject_non_finite_entries(self, bad):
        for build in (scalar_kernel, scalar_metric):
            with pytest.raises(NonFinite):
                build([[0.0, bad], [1.0, 0.0]])
        desc = AlgebraDescriptor([1, 2])
        table = [[AlgebraElement(desc, [np.zeros((1, 1)), np.zeros((2, 2))]) for _ in range(2)]
                 for _ in range(2)]
        table[1][0] = AlgebraElement(desc, [np.zeros((1, 1)), np.array([[0.0, 0.0], [bad, 0.0]])])
        for cls in (Kernel, CStarMetric):
            with pytest.raises(NonFinite):
                cls(IndexSet(["a", "b"]), desc, table)
