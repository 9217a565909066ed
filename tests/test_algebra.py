"""Blockwise algebra and module operations: adjoint, positivity, order,
absolute value, norms, Cartesian parts, and the algebra-valued inner
product, plus the inequality properties the rest of the package leans on."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cpdkernels import (
    AlgebraDescriptor,
    AlgebraElement,
    DimensionMismatch,
    GenConfig,
    ModuleElement,
    NonFinite,
    ToleranceConfig,
    abs_value,
    adjoint,
    decompose_cpd,
    im_part,
    is_positive,
    leq,
    module_abs,
    module_inner,
    module_norm,
    op_norm,
    random_cpd_kernel,
    random_module_element,
    random_positive_two_by_two,
    re_part,
    recover_affine_part,
    two_by_two_check,
)
from helpers import raises_without_warning, single_block, two_summands

M2 = AlgebraDescriptor([2])

seeds = st.integers(min_value=0, max_value=2**32 - 1)
descriptors = st.sampled_from(
    [AlgebraDescriptor(d) for d in ([1], [2], [3], [1, 2], [2, 3, 1])]
)


def random_cfg(seed, desc, magnitude=1.0):
    return GenConfig(seed=seed, n=2, descriptor=desc, magnitude=magnitude)


class TestDescriptor:
    def test_summands_are_normalized_to_ints(self):
        desc = AlgebraDescriptor([np.int64(2), 3])
        assert desc.summand_dims == (2, 3)
        assert desc.num_summands == 2
        assert desc.total_dim == 5

    def test_empty_or_degenerate_sizes_are_rejected(self):
        with pytest.raises(ValueError):
            AlgebraDescriptor([])
        with pytest.raises(ValueError):
            AlgebraDescriptor([2, 0])


class TestElementConstruction:
    def test_block_count_must_match_descriptor(self):
        with pytest.raises(DimensionMismatch, match=r"^expected 1 blocks, got 2$"):
            AlgebraElement(M2, [np.eye(2), np.eye(2)])

    def test_block_shape_must_match_descriptor(self):
        with pytest.raises(DimensionMismatch,
                           match=r"^block 0 has shape \(3, 3\), expected \(2, 2\)$"):
            AlgebraElement(M2, [np.eye(3)])

    def test_module_block_shape_must_match_ranks(self):
        with pytest.raises(DimensionMismatch,
                           match=r"^module block 1 has shape \(2, 2\), expected \(1, 2\)$"):
            ModuleElement(AlgebraDescriptor([1, 2]), [3, 1], [np.zeros((3, 1)), np.eye(2)])

    @pytest.mark.parametrize("op", [
        lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x @ y,
        lambda x, y: module_inner(x, y)])
    def test_algebra_mismatch_says_descriptors_differ(self, op):
        x, y = single_block(np.eye(2)), two_summands(np.eye(2), np.eye(2))
        with pytest.raises(DimensionMismatch, match=r"^descriptors differ$"):
            op(x, y)

    @pytest.mark.parametrize("op", [
        lambda x, y: x + y, lambda x, y: x - y, lambda x, y: module_inner(x, y)])
    @pytest.mark.parametrize("ranks", [[2], [1, 1]])
    def test_module_mismatch_says_shapes_differ(self, op, ranks):
        x = ModuleElement.zero(AlgebraDescriptor([1]), [1])
        y = ModuleElement.zero(AlgebraDescriptor([1] * len(ranks)), ranks)
        with pytest.raises(DimensionMismatch, match=r"^module elements have different shapes$"):
            op(x, y)

    def test_blocks_are_frozen(self):
        x = single_block([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            x.blocks[0][0, 0] = 5.0

    def test_an_algebra_element_is_the_square_module_element(self):
        desc = AlgebraDescriptor([2, 3])
        x = AlgebraElement.identity(desc)
        assert isinstance(x, ModuleElement) and x.ranks == desc.summand_dims

    @pytest.mark.parametrize("x", [
        two_summands([[1.0, 2.0], [3.0, 4.0]], [[5.0j]]),
        ModuleElement(AlgebraDescriptor([2, 1]), [3, 1], [np.ones((3, 2)), [[5.0j]]])])
    def test_arithmetic_keeps_the_operand_class(self, x):
        for y in (x + x, x - x, -x, 2 * x, x * 2.0):
            assert type(y) is type(x) and y.ranks == x.ranks
        assert np.array_equal((2 * x - x).blocks[1], x.blocks[1])
        assert np.array_equal((-x).blocks[0], -x.blocks[0])

    def test_arithmetic_requires_equal_descriptors(self):
        x = single_block(np.eye(2))
        y = two_summands(np.eye(2), np.eye(2))
        with pytest.raises(DimensionMismatch):
            x + y


class TestAdjoint:
    def test_conjugate_transpose_of_nilpotent_shift(self):
        x = single_block([[0.0, 1.0], [0.0, 0.0]])
        expected = np.array([[0.0, 0.0], [1.0, 0.0]])
        assert np.array_equal(adjoint(x).blocks[0], expected)

    def test_self_adjoint_element_is_a_fixed_point(self):
        x = single_block([[2.0, 1.0], [1.0, 2.0]])
        assert np.array_equal(adjoint(x).blocks[0], x.blocks[0])

    def test_complex_entry_moves_and_conjugates(self):
        x = single_block([[0.0, 2.0 + 3.0j], [0.0, 0.0]])
        a = adjoint(x).blocks[0]
        assert a[1, 0] == 2.0 - 3.0j
        assert a[0, 1] == 0.0


class TestIsPositive:
    def test_zero_is_positive(self):
        assert is_positive(AlgebraElement.zero(M2))

    def test_diagonally_dominant_symmetric_block(self):
        # Eigenvalues are 1 and 3.
        assert is_positive(single_block([[2.0, 1.0], [1.0, 2.0]]))

    def test_traceless_symmetric_block_is_not(self):
        # Eigenvalues are -1 and 1.
        assert not is_positive(single_block([[0.0, 1.0], [1.0, 0.0]]))

    def test_non_hermitian_input_is_not_positive(self):
        assert not is_positive(single_block([[0.0, 1.0], [0.0, 0.0]]))

    def test_every_summand_must_be_positive(self):
        x = two_summands([[1.0]], [[-1.0]])
        assert not is_positive(x)

    def test_tolerance_is_relative_to_the_block_scale(self):
        big = 1e12
        x = single_block([[big, 0.0], [0.0, -1e-3]])
        assert is_positive(x)
        assert not is_positive(single_block([[1.0, 0.0], [0.0, -1e-3]]))


class TestFailClosed:
    """An element whose hermitian part or norm overflows is never decided
    as positive: ``NonFinite``, with no numpy warning (warnings fail the run)."""

    OVERFLOWING = [
        [[-1e308, -1e308], [-1e308, -1e308]],  # its hermitian part overflows to -inf
        [[1e308, -1.7e308], [-1.7e308, 1e308]],  # to +-inf off the diagonal
    ]

    @pytest.mark.parametrize("rows", OVERFLOWING)
    def test_positivity_and_order_raise(self, rows):
        x, zero = single_block(rows), AlgebraElement.zero(M2)
        with pytest.raises(NonFinite):
            is_positive(x)
        with pytest.raises(NonFinite):
            leq(zero, x)
        with pytest.raises(NonFinite):
            two_by_two_check(x, zero, zero)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_norms_raise(self, bad):
        with pytest.raises(NonFinite):
            op_norm(two_summands([[1.0]], [[bad]]))
        with pytest.raises(NonFinite):
            module_norm(ModuleElement(M2, [1], [np.array([[1.0, bad]])]))

    def test_abs_value_raises_when_x_star_x_overflows(self):
        raises_without_warning(lambda: abs_value(single_block([[1e200, 1.0], [0.0, 1.0]])))

    def test_module_abs_raises_when_x_star_x_overflows(self):
        x = ModuleElement(M2, [2], [np.array([[1e200, 1.0], [0.0, 1.0]])])
        raises_without_warning(lambda: module_abs(x))

    def test_re_part_raises_when_it_overflows(self):
        x = single_block([[1.7e308, 0.0], [1.7e308, 1.0]])
        raises_without_warning(lambda: re_part(x))

    def test_im_part_raises_when_it_overflows(self):
        x = single_block([[0.0, 1.7e308], [-1.7e308, 0.0]])
        raises_without_warning(lambda: im_part(x))

    def test_norms_of_empty_blocks_are_zero(self):
        desc = AlgebraDescriptor([2, 1])
        assert module_norm(ModuleElement.zero(desc, [0, 0])) == 0.0
        assert module_norm(ModuleElement(desc, [0, 3], [np.zeros((0, 2)), np.ones((3, 1))])) \
            == pytest.approx(np.sqrt(3.0))


class TestLeq:
    def test_zero_below_identity(self):
        assert leq(AlgebraElement.zero(M2), AlgebraElement.identity(M2))

    def test_identity_not_below_zero(self):
        assert not leq(AlgebraElement.identity(M2), AlgebraElement.zero(M2))

    def test_diagonal_comparison(self):
        assert leq(single_block(np.diag([1.0, 2.0])), single_block(np.diag([2.0, 2.0])))

    def test_descriptor_mismatch_is_an_error(self):
        with pytest.raises(DimensionMismatch):
            leq(single_block(np.eye(2)), two_summands(np.eye(2), np.eye(2)))


class TestAbsValue:
    def test_diagonal_absolute_value(self):
        x = single_block(np.diag([-3.0, 2.0]))
        assert np.allclose(abs_value(x).blocks[0], np.diag([3.0, 2.0]))

    def test_nilpotent_shift(self):
        # x*x = diag(0, 1), so |x| = diag(0, 1).
        x = single_block([[0.0, 1.0], [0.0, 0.0]])
        assert np.allclose(abs_value(x).blocks[0], np.diag([0.0, 1.0]))

    def test_zero(self):
        z = AlgebraElement.zero(M2)
        assert np.array_equal(abs_value(z).blocks[0], np.zeros((2, 2)))

    @given(seed=seeds, desc=descriptors)
    def test_square_of_abs_is_x_star_x(self, seed, desc):
        rng = np.random.default_rng(seed)
        x = AlgebraElement(
            desc,
            [
                rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                for d in desc.summand_dims
            ],
        )
        a = abs_value(x)
        assert is_positive(a)
        square = a @ a
        target = adjoint(x) @ x
        scale = max(1.0, op_norm(target))
        assert op_norm(square - target) <= 1e-9 * scale


    @given(seed=seeds, desc=descriptors)
    def test_module_abs_of_an_algebra_element_is_its_abs_value(self, seed, desc):
        x = random_module_element(GenConfig(seed=seed, n=2, descriptor=desc))
        a = AlgebraElement(desc, x.blocks)
        assert type(module_abs(a)) is AlgebraElement
        for got, want in zip(module_abs(a).blocks, abs_value(a).blocks, strict=True):
            assert np.array_equal(got, want)


class TestOpNorm:
    def test_identity(self):
        assert op_norm(AlgebraElement.identity(M2)) == pytest.approx(1.0)

    def test_max_over_summands(self):
        assert op_norm(two_summands([[2.0]], [[-5.0]])) == pytest.approx(5.0)

    def test_nilpotent_shift(self):
        assert op_norm(single_block([[0.0, 1.0], [0.0, 0.0]])) == pytest.approx(1.0)

    @given(seed=seeds, desc=descriptors)
    def test_submultiplicative(self, seed, desc):
        rng = np.random.default_rng(seed)

        def draw():
            return AlgebraElement(
                desc,
                [
                    rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                    for d in desc.summand_dims
                ],
            )

        x, y = draw(), draw()
        assert op_norm(x @ y) <= op_norm(x) * op_norm(y) + 1e-9


    @given(seed=seeds, desc=descriptors)
    def test_module_norm_of_an_algebra_element_is_its_op_norm(self, seed, desc):
        x = random_module_element(GenConfig(seed=seed, n=2, descriptor=desc))
        a = AlgebraElement(desc, x.blocks)
        assert module_norm(a) == op_norm(a)


class TestCartesianParts:
    def test_hermitian_element_has_no_imaginary_part(self):
        x = single_block([[2.0, 1.0], [1.0, 2.0]])
        assert np.allclose(re_part(x).blocks[0], x.blocks[0])
        assert np.allclose(im_part(x).blocks[0], np.zeros((2, 2)))

    def test_i_times_identity(self):
        x = 1j * AlgebraElement.identity(M2)
        assert np.allclose(re_part(x).blocks[0], np.zeros((2, 2)))
        assert np.allclose(im_part(x).blocks[0], np.eye(2))

    def test_nilpotent_shift_splits_into_symmetric_halves(self):
        x = single_block([[0.0, 1.0], [0.0, 0.0]])
        assert np.allclose(re_part(x).blocks[0], [[0.0, 0.5], [0.5, 0.0]])
        assert np.allclose(im_part(x).blocks[0], [[0.0, -0.5j], [0.5j, 0.0]])

    @given(seed=seeds, desc=descriptors)
    def test_parts_are_hermitian_and_reconstruct(self, seed, desc):
        rng = np.random.default_rng(seed)
        x = AlgebraElement(
            desc,
            [
                rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                for d in desc.summand_dims
            ],
        )
        re, im = re_part(x), im_part(x)
        for part in (re, im):
            for b in part.blocks:
                assert np.allclose(b, b.conj().T)
        recon = re + 1j * im
        assert op_norm(recon - x) <= 1e-12 * max(1.0, op_norm(x))


class TestModuleInner:
    def test_inner_square_is_positive(self):
        x = random_module_element(random_cfg(7, AlgebraDescriptor([2, 3])))
        assert is_positive(module_inner(x, x))

    def test_inner_with_zero_vanishes(self):
        y = random_module_element(random_cfg(8, M2))
        z = ModuleElement.zero(M2, y.ranks)
        assert op_norm(module_inner(z, y)) == 0.0

    def test_orthogonal_scalar_columns(self):
        desc = AlgebraDescriptor([1])
        x = ModuleElement(desc, [2], [np.array([[1.0], [0.0]])])
        y = ModuleElement(desc, [2], [np.array([[0.0], [1.0]])])
        assert module_inner(x, y).blocks[0][0, 0] == 0.0

    def test_rank_mismatch_is_an_error(self):
        desc = AlgebraDescriptor([1])
        x = ModuleElement(desc, [2], [np.zeros((2, 1))])
        y = ModuleElement(desc, [3], [np.zeros((3, 1))])
        with pytest.raises(DimensionMismatch):
            module_inner(x, y)

    @given(seed=seeds, desc=descriptors)
    def test_inner_of_algebra_elements_is_the_adjoint_product(self, seed, desc):
        cfg = GenConfig(seed=seed, n=2, descriptor=desc)
        a, b = (AlgebraElement(desc, random_module_element(cfg, i).blocks) for i in (0, 1))
        for got, want in zip(module_inner(a, b).blocks, (adjoint(a) @ b).blocks, strict=True):
            assert np.array_equal(got, want)

    def test_affine_parts_are_algebra_elements(self):
        desc = AlgebraDescriptor([2, 1])
        K = random_cpd_kernel(GenConfig(seed=3, n=3, descriptor=desc))
        for h in (decompose_cpd(K, "s1").h, recover_affine_part(K, "s2")):
            for x in h.values():
                assert type(x) is AlgebraElement and x.ranks == desc.summand_dims

    def test_module_abs_and_norm_agree(self):
        x = random_module_element(random_cfg(9, AlgebraDescriptor([2, 1])))
        assert module_norm(x) == pytest.approx(op_norm(module_abs(x)))


class TestInequalities:
    @given(seed=seeds, desc=descriptors)
    def test_cauchy_schwarz_for_module_pairs(self, seed, desc):
        cfg = random_cfg(seed, desc)
        x = random_module_element(cfg, 0)
        y = random_module_element(cfg, 1)
        lhs = module_inner(x, y) @ module_inner(y, x)
        rhs = op_norm(module_inner(y, y)) * module_inner(x, x)
        assert leq(lhs, rhs)

    @given(seed=seeds, desc=descriptors)
    def test_block_matrix_corner_bound(self, seed, desc):
        # For a positive [[P, T], [T*, Q]] the corner obeys T T* <= ||Q|| P.
        P, T, Q = random_positive_two_by_two(random_cfg(seed, desc))
        assert leq(T @ adjoint(T), op_norm(Q) * P)

    @given(seed=seeds, desc=descriptors)
    def test_conjugation_preserves_positivity(self, seed, desc):
        rng = np.random.default_rng(seed)

        def draw():
            return AlgebraElement(
                desc,
                [
                    rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                    for d in desc.summand_dims
                ],
            )

        x = draw()
        pos = adjoint(x) @ x
        a = draw()
        assert is_positive(adjoint(a) @ pos @ a)


class TestToleranceConfig:
    def test_defaults(self):
        tol = ToleranceConfig()
        assert tol.tol_rel == 1e-9
        assert tol.rank_tol_rel == 1e-10

    def test_nonpositive_values_are_rejected(self):
        with pytest.raises(ValueError):
            ToleranceConfig(tol_rel=0.0)
        with pytest.raises(ValueError):
            ToleranceConfig(rank_tol_rel=-1e-3)
        with pytest.raises(ValueError):
            ToleranceConfig(tol_rel=float("inf"))
