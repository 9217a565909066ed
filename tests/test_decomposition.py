"""Factorizations and their inverses: the minimal Gram factorization, the
base-point decomposition of conditionally positive kernels, the splitting
into squared differences, the kernel order, and contraction recovery."""

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cpdkernels import (
    AlgebraDescriptor,
    AlgebraElement,
    CPDDecomposition,
    DimensionMismatch,
    Factorization,
    GenConfig,
    IndexSet,
    Kernel,
    ModuleElement,
    PreconditionFailure,
    ToleranceConfig,
    UnknownLabel,
    adjoint,
    decompose_cpd,
    dump_json,
    factor_kernel,
    factor_pd,
    is_conditionally_positive_definite,
    kernel_leq,
    kernel_norm,
    majorized_kernel,
    module_norm,
    op_norm,
    random_cpd_kernel,
    random_gram_kernel,
    random_majorized_pair,
    reconstruct_cpd,
    recover_affine_part,
    recover_contraction,
    scalar_kernel,
    shift_transform,
    sum_sq_diff_decomposition,
    sum_sq_diff_reconstruct,
)
from cpdkernels.serialize import decomposition_to_json, factorization_to_json, families_to_json
from helpers import (
    KERNEL_DESCRIPTORS,
    reference_factor_kernel,
    reference_majorized_kernel,
    reference_reconstruct_cpd,
    reference_shape_failure,
    reference_sum_sq_diff_reconstruct,
    same_bits,
    single_block,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
descriptors = st.sampled_from(
    [AlgebraDescriptor(d) for d in ([1], [2], [1, 2], [2, 2])]
)

SIGN_FLIP = scalar_kernel([[0.0, -1.0], [-1.0, 0.0]])


def reconstruction_error(K, dec):
    return kernel_norm(reconstruct_cpd(dec) - K)


def zero_summand(K, k):
    """``K`` with every block of summand ``k`` set to zero."""
    return Kernel(K.index_set, K.descriptor, [[AlgebraElement(K.descriptor, [
        np.zeros_like(b) if i == k else b for i, b in enumerate(v.blocks)]) for v in row]
        for row in K.values])


def squared_distances(x):
    """The scalar kernel ``-(x_s - x_t)^2`` of real points ``x``."""
    x = np.asarray(x, dtype=float)
    return scalar_kernel(-((x[:, None] - x[None, :]) ** 2))


def zero_factorization(index_set, descriptor):
    ranks = tuple(0 for _ in descriptor.summand_dims)
    V = {s: ModuleElement.zero(descriptor, ranks) for s in index_set.labels}
    return Factorization(index_set, descriptor, ranks, V)


class TestFactorPd:
    def test_rank_one_scalar_table(self):
        L = scalar_kernel([[0.0, 0.0], [0.0, 1.0]])
        fact = factor_pd(L)
        assert fact.ranks == (1,)
        assert module_norm(fact.V["s1"]) == 0.0
        inner = factor_kernel(fact)
        assert inner[("s2", "s2")].blocks[0][0, 0] == pytest.approx(1.0)
        assert kernel_norm(inner - L) <= 1e-12

    def test_zero_kernel_has_empty_factors(self):
        L = Kernel.zero(IndexSet(["a", "b"]), AlgebraDescriptor([2, 1]))
        fact = factor_pd(L)
        assert fact.ranks == (0, 0)
        for s in ("a", "b"):
            assert module_norm(fact.V[s]) == 0.0

    @given(seed=seeds, desc=descriptors)
    def test_gram_kernels_roundtrip_with_bounded_rank(self, seed, desc):
        L = random_gram_kernel(GenConfig(seed=seed, n=3, descriptor=desc))
        fact = factor_pd(L)
        # The Gram construction stacks one algebra element per label, so the
        # factor rank cannot exceed the summand dimension.
        for r, d in zip(fact.ranks, desc.summand_dims):
            assert r <= d
        err = kernel_norm(factor_kernel(fact) - L)
        assert err <= 1e-9 * (1.0 + kernel_norm(L))

    def test_non_positive_input_is_rejected_with_witness(self):
        with pytest.raises(PreconditionFailure) as exc:
            factor_pd(scalar_kernel([[1.0, 2.0], [2.0, 1.0]]))
        assert exc.value.verdict is not None
        assert exc.value.verdict.witness.eigenvalue == pytest.approx(-1.0)

    def test_labels_with_zero_diagonal_factor_through_the_origin(self):
        K = random_cpd_kernel(
            GenConfig(seed=99, n=4, descriptor=AlgebraDescriptor([2])),
            diagonal_zero=True,
        )
        fact = factor_pd(shift_transform(K, "s2"), check=False)
        assert module_norm(fact.V["s2"]) == 0.0


class TestDecomposeCpd:
    def test_two_point_metric_kernel(self):
        dec = decompose_cpd(SIGN_FLIP, "s1")
        assert all(op_norm(h) <= 1e-15 for h in dec.h.values())
        assert module_norm(dec.factorization.V["s1"]) == 0.0
        assert module_norm(dec.factorization.V["s2"]) == pytest.approx(1.0)
        recon = reconstruct_cpd(dec)
        assert recon[("s1", "s2")].blocks[0][0, 0] == pytest.approx(-1.0)
        assert reconstruction_error(SIGN_FLIP, dec) <= 1e-12

    def test_zero_kernel(self):
        K = Kernel.zero(IndexSet(["a", "b"]), AlgebraDescriptor([2]))
        dec = decompose_cpd(K, "a")
        assert all(module_norm(v) == 0.0 for v in dec.factorization.V.values())
        assert all(op_norm(h) == 0.0 for h in dec.h.values())

    def test_affine_kernels_have_empty_factor_and_exact_affine_part(self):
        rng = np.random.default_rng(5)
        desc = AlgebraDescriptor([2])
        labels = ["a", "b", "c"]
        g = {
            s: AlgebraElement(
                desc, [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))]
            )
            for s in labels
        }
        K = Kernel(
            IndexSet(labels), desc, [[g[s] + adjoint(g[t]) for t in labels] for s in labels]
        )
        dec = decompose_cpd(K, "b")
        assert dec.factorization.ranks == (0,)
        assert reconstruction_error(K, dec) <= 1e-9 * (1.0 + kernel_norm(K))

    def test_non_cpd_input_is_rejected_with_witness(self):
        with pytest.raises(PreconditionFailure) as exc:
            decompose_cpd(scalar_kernel([[0.0, 1.0], [1.0, 0.0]]), "s1")
        assert exc.value.verdict is not None
        assert exc.value.verdict.witness.eigenvalue == pytest.approx(-2.0)

    @given(seed=seeds, desc=descriptors)
    def test_roundtrip_at_every_base_point(self, seed, desc):
        K = random_cpd_kernel(GenConfig(seed=seed, n=4, descriptor=desc))
        bound = 1e-8 * (1.0 + kernel_norm(K))
        for s0 in K.index_set.labels:
            dec = decompose_cpd(K, s0)
            assert module_norm(dec.factorization.V[s0]) == 0.0
            assert reconstruction_error(K, dec) <= bound


class TestReconstructCpd:
    def test_empty_decomposition_gives_the_zero_kernel(self):
        index_set = IndexSet(["a", "b"])
        desc = AlgebraDescriptor([2])
        fact = zero_factorization(index_set, desc)
        h = {s: AlgebraElement.zero(desc) for s in index_set.labels}
        K = reconstruct_cpd(CPDDecomposition(fact, h, "a"))
        assert kernel_norm(K) == 0.0

    def test_constant_hermitian_affine_part(self):
        index_set = IndexSet(["a", "b"])
        desc = AlgebraDescriptor([1])
        fact = zero_factorization(index_set, desc)
        c = single_block([[3.0]])
        K = reconstruct_cpd(
            CPDDecomposition(fact, {s: c for s in index_set.labels}, "a")
        )
        for s in index_set.labels:
            for t in index_set.labels:
                assert K[(s, t)].blocks[0][0, 0] == pytest.approx(-6.0)


class TestSumSqDiffDecomposition:
    def test_two_point_hand_instance(self):
        families = sum_sq_diff_decomposition(SIGN_FLIP)
        assert len(families) == 1
        fam = families[0]
        assert op_norm(fam["s1"]) == pytest.approx(1.0)
        assert op_norm(fam["s2"]) == 0.0
        delta = fam["s1"] - fam["s2"]
        assert op_norm(adjoint(delta) @ delta) == pytest.approx(1.0)

    def test_zero_table_has_no_families(self):
        K = Kernel.zero(IndexSet(["a", "b", "c"]), AlgebraDescriptor([2]))
        assert sum_sq_diff_decomposition(K) == []

    def test_reconstruct_from_no_families_is_zero(self):
        K = sum_sq_diff_reconstruct([], IndexSet(["a", "b"]), AlgebraDescriptor([2]))
        assert kernel_norm(K) == 0.0

    def test_reconstruct_refuses_families_of_another_algebra(self):
        desc = AlgebraDescriptor([1, 1])
        K = random_cpd_kernel(GenConfig(seed=1, n=3, descriptor=desc), diagonal_zero=True)
        families = sum_sq_diff_decomposition(K)
        for other in (AlgebraDescriptor([2]), AlgebraDescriptor([1])):
            with pytest.raises(DimensionMismatch, match="families"):
                sum_sq_diff_reconstruct(families, K.index_set, other)
        assert sum_sq_diff_reconstruct(families, K.index_set, desc).descriptor == desc

    @given(seed=seeds, desc=descriptors)
    def test_forward_instances_roundtrip(self, seed, desc):
        K = random_cpd_kernel(
            GenConfig(seed=seed, n=3, descriptor=desc), diagonal_zero=True
        )
        families = sum_sq_diff_decomposition(K)
        recon = sum_sq_diff_reconstruct(families, K.index_set, K.descriptor)
        assert kernel_norm(recon - K) <= 1e-8 * (1.0 + kernel_norm(K))

    @given(seed=seeds)
    def test_each_family_is_individually_conditionally_positive(self, seed):
        K = random_cpd_kernel(
            GenConfig(seed=seed, n=4, descriptor=AlgebraDescriptor([2])),
            diagonal_zero=True,
        )
        for fam in sum_sq_diff_decomposition(K):
            single = sum_sq_diff_reconstruct([fam], K.index_set, K.descriptor)
            assert is_conditionally_positive_definite(single).holds

    def test_nonzero_diagonal_is_rejected(self):
        K = scalar_kernel([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(PreconditionFailure, match="diagonal"):
            sum_sq_diff_decomposition(K)

    def test_non_self_adjoint_entries_are_rejected(self):
        # Hermitian as a kernel, but the off-diagonal entries are not
        # self-adjoint elements.
        K = scalar_kernel([[0.0, 1.0j], [-1.0j, 0.0]])
        with pytest.raises(PreconditionFailure, match="self-adjoint"):
            sum_sq_diff_decomposition(K)

    def test_non_cpd_tables_are_rejected_with_witness(self):
        K = scalar_kernel([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(PreconditionFailure) as exc:
            sum_sq_diff_decomposition(K)
        assert exc.value.verdict is not None


class TestBatchedPreconditions:
    """The precondition checks on whole arrays name the offender that the
    per-entry loops named first, diagonal ``i`` before row ``i``."""

    @pytest.mark.parametrize("dims", KERNEL_DESCRIPTORS)
    def test_first_offender(self, dims):
        rng = np.random.default_rng(len(dims))
        base = random_cpd_kernel(
            GenConfig(seed=3, n=5, descriptor=AlgebraDescriptor(dims)), diagonal_zero=True)
        seen = set()
        for _ in range(12):
            table = [[[np.array(b) for b in v.blocks] for v in row] for row in base.values]
            for _ in range(2):
                i, j = (int(x) for x in rng.integers(0, 5, 2))
                k = int(rng.integers(0, len(dims)))
                eps = float(rng.choice([1e-12, 2e-9, 1e-3]))  # 2e-9: within the scaled bound
                if i == j:
                    table[i][i][k] += eps * np.eye(dims[k])
                else:
                    table[i][j][k] += 1j * eps * np.eye(dims[k])
                    table[j][i][k] -= 1j * eps * np.eye(dims[k])
            K = Kernel(base.index_set, base.descriptor,
                       [[AlgebraElement(base.descriptor, v) for v in row] for row in table])
            for s0, check in ((None, sum_sq_diff_decomposition),
                              ("s3", lambda K: recover_contraction(K, K, "s3"))):
                expected = reference_shape_failure(K, s0=s0)
                seen.add(expected is None)
                if expected is not None:
                    with pytest.raises(PreconditionFailure) as exc:
                        check(K)
                    assert str(exc.value) == expected
        assert seen == {True, False}


class TestStackedReconstructions:
    """The kernels rebuilt from factors, on stacked blocks, against the
    per-entry element arithmetic, bit for bit, for the points a
    decomposition returns and for the same points handed in as dicts."""

    @pytest.mark.parametrize("dims", KERNEL_DESCRIPTORS)
    def test_every_rebuilt_kernel_matches_the_entry_loop(self, dims):
        desc = AlgebraDescriptor(dims)
        for seed in range(3):
            cfg = GenConfig(seed=seed, n=2 + seed, descriptor=desc)
            K = random_cpd_kernel(cfg)
            dec = decompose_cpd(K, K.index_set.labels[-1])
            fact = dec.factorization
            hand = Factorization(fact.index_set, desc, fact.ranks, dict(fact.V))
            hand_dec = CPDDecomposition(hand, dict(dec.h), dec.base_point)
            D = random_cpd_kernel(cfg, diagonal_zero=True)
            families = sum_sq_diff_decomposition(D)
            P = [np.full((r, r), 0.25 + 0.5j) for r in fact.ranks]
            for f, d, fams in ((fact, dec, families),
                               (hand, hand_dec, [dict(fam) for fam in families])):
                assert same_bits(factor_kernel(f), reference_factor_kernel(fact))
                assert same_bits(reconstruct_cpd(d), reference_reconstruct_cpd(dec))
                assert same_bits(majorized_kernel(f, P), reference_majorized_kernel(fact, P))
                assert same_bits(
                    sum_sq_diff_reconstruct(fams, D.index_set, desc),
                    reference_sum_sq_diff_reconstruct(families, D.index_set, desc))
                assert (dump_json(decomposition_to_json(d))
                        == dump_json(decomposition_to_json(dec)))
                assert (dump_json(families_to_json(fams, D.index_set))
                        == dump_json(families_to_json(families, D.index_set)))

    def test_points_are_read_only_mappings_over_the_arrays(self):
        cfg = GenConfig(seed=1, n=3, descriptor=AlgebraDescriptor([2, 1]))
        K = random_cpd_kernel(cfg)
        dec = decompose_cpd(K, "s2")
        families = sum_sq_diff_decomposition(random_cpd_kernel(cfg, diagonal_zero=True))
        for points in (dec.factorization.V, dec.h, recover_affine_part(K, "s2"), *families):
            assert "zz" not in points
            with pytest.raises(KeyError):
                points["zz"]
            assert list(points) == ["s1", "s2", "s3"]
            with pytest.raises(TypeError):
                points["s1"] = points["s2"]
            for i, s in enumerate(points):
                for block, X in zip(points[s].blocks, points._arrays, strict=True):
                    assert np.array_equal(block, X[i])
                    assert not block.flags.writeable and np.shares_memory(block, X)

    def test_points_must_match_the_ranks(self):
        fact = factor_pd(scalar_kernel(np.eye(2)))
        assert fact.ranks == (2,)
        with pytest.raises(DimensionMismatch, match="ranks"):
            Factorization(fact.index_set, fact.descriptor, (1,), dict(fact.V))
        Factorization(fact.index_set, fact.descriptor, [np.int64(2)], dict(fact.V))

    def test_ranks_are_stored_as_a_tuple_of_ints(self):
        fact = decompose_cpd(random_cpd_kernel(
            GenConfig(seed=1, n=3, descriptor=AlgebraDescriptor([2, 1]))), "s1").factorization
        for ranks in (list(fact.ranks), np.array(fact.ranks)):
            same = Factorization(fact.index_set, fact.descriptor, ranks, dict(fact.V))
            assert same.ranks == fact.ranks
            assert type(same.ranks) is tuple and all(type(r) is int for r in same.ranks)
            assert (json.dumps(factorization_to_json(same))
                    == json.dumps(factorization_to_json(fact)))

    def test_labels_must_be_the_sets(self):
        cfg = GenConfig(seed=1, n=3, descriptor=AlgebraDescriptor([2, 1]))
        dec = decompose_cpd(random_cpd_kernel(cfg), "s2")
        fact = dec.factorization
        extra_V = {**fact.V, "zz": fact.V["s1"]}
        missing_h = {s: dec.h[s] for s in ("s1", "s2")}
        with pytest.raises(DimensionMismatch, match="labels"):
            Factorization(fact.index_set, fact.descriptor, fact.ranks, extra_V)
        for h in ({**dec.h, "zz": dec.h["s1"]}, missing_h):
            with pytest.raises(DimensionMismatch, match="labels"):
                CPDDecomposition(fact, h, dec.base_point)

    def test_base_point_must_be_a_label(self):
        cfg = GenConfig(seed=1, n=3, descriptor=AlgebraDescriptor([2, 1]))
        dec = decompose_cpd(random_cpd_kernel(cfg), "s2")
        with pytest.raises(UnknownLabel, match="zz"):
            CPDDecomposition(dec.factorization, dict(dec.h), "zz")

    def test_affine_part_must_be_of_the_algebra(self):
        desc = AlgebraDescriptor([2, 1])
        dec = decompose_cpd(random_cpd_kernel(GenConfig(seed=1, n=3, descriptor=desc)), "s1")
        flat = ModuleElement(desc, [1, 1], [np.ones((1, 2)), np.ones((1, 1))])
        for x in (flat, AlgebraElement.zero(AlgebraDescriptor([1]))):
            with pytest.raises(DimensionMismatch, match="affine part"):
                CPDDecomposition(dec.factorization, {s: x for s in dec.h}, "s1")


class TestKernelLeq:
    def test_reflexive(self):
        K = random_cpd_kernel(GenConfig(seed=2, n=3, descriptor=AlgebraDescriptor([2])))
        assert kernel_leq(K, K).holds

    def test_half_of_a_cpd_kernel_is_below_it(self):
        K = random_cpd_kernel(GenConfig(seed=3, n=3, descriptor=AlgebraDescriptor([2])))
        assert kernel_leq(0.5 * K, K).holds

    def test_two_point_kernel_is_not_below_its_half(self):
        verdict = kernel_leq(SIGN_FLIP, 0.5 * SIGN_FLIP)
        assert not verdict.holds
        # The difference is -K/2 whose compression is the single value -1.
        assert verdict.witness.eigenvalue == pytest.approx(-1.0)

    def test_shape_mismatch(self):
        other = scalar_kernel([[0.0, -1.0], [-1.0, 0.0]], ["x", "y"])
        with pytest.raises(DimensionMismatch):
            kernel_leq(SIGN_FLIP, other)


class TestMajorizedKernel:
    def test_operator_block_count_must_match(self):
        fact = factor_pd(scalar_kernel([[0.0, 0.0], [0.0, 1.0]]))
        with pytest.raises(DimensionMismatch):
            majorized_kernel(fact, [np.eye(1), np.eye(1)])

    def test_operator_block_shape_must_match_the_rank(self):
        fact = factor_pd(scalar_kernel([[0.0, 0.0], [0.0, 1.0]]))
        with pytest.raises(DimensionMismatch):
            majorized_kernel(fact, [np.eye(2)])

    def test_diagonal_vanishes_exactly(self):
        K, Kp, _ = random_majorized_pair(
            GenConfig(seed=4, n=3, descriptor=AlgebraDescriptor([2]))
        )
        for i in range(Kp.n):
            assert op_norm(Kp.values[i][i]) == 0.0


class TestRecoverContraction:
    def test_identity_on_equal_kernels(self):
        K = random_cpd_kernel(
            GenConfig(seed=6, n=3, descriptor=AlgebraDescriptor([2])),
            diagonal_zero=True,
        )
        cert = recover_contraction(K, K, K.index_set.labels[-1])
        for c in cert.C:
            assert np.allclose(c, np.eye(c.shape[0]), atol=1e-9)
        assert cert.residual <= 1e-9
        assert cert.norm_W == pytest.approx(1.0, abs=1e-9)

    def test_zero_kernel_recovers_the_zero_contraction(self):
        K = random_cpd_kernel(
            GenConfig(seed=7, n=3, descriptor=AlgebraDescriptor([2])),
            diagonal_zero=True,
        )
        Kp = Kernel.zero(K.index_set, K.descriptor)
        cert = recover_contraction(K, Kp, K.index_set.labels[-1])
        assert cert.norm_W == 0.0
        assert all(not np.any(c) for c in cert.C)

    def test_two_point_half_kernel_hand_values(self):
        K = SIGN_FLIP
        cert = recover_contraction(K, 0.5 * K, "s1")
        assert cert.norm_W == pytest.approx(1.0 / np.sqrt(2.0))
        (c,) = cert.C
        assert c.shape == (1, 1)
        assert c[0, 0].real == pytest.approx(0.5)
        assert cert.residual <= 1e-12

    @given(seed=seeds, desc=descriptors)
    def test_constructed_pairs_certify(self, seed, desc):
        K, Kp, s0 = random_majorized_pair(GenConfig(seed=seed, n=3, descriptor=desc))
        assert kernel_leq(Kp, K).holds
        cert = recover_contraction(K, Kp, s0)
        assert cert.norm_W <= 1.0 + 1e-8
        assert cert.residual <= 1e-8
        fact = decompose_cpd(K, s0).factorization
        recon = majorized_kernel(fact, cert.C)
        assert kernel_norm(recon - Kp) <= 1e-8 * (1.0 + kernel_norm(K))

    @given(seed=seeds)
    def test_factor_ranks_never_grow_under_majorization(self, seed):
        K, Kp, s0 = random_majorized_pair(
            GenConfig(seed=seed, n=4, descriptor=AlgebraDescriptor([2]))
        )
        rk = decompose_cpd(K, s0).factorization.ranks
        rkp = decompose_cpd(Kp, s0).factorization.ranks
        assert all(rp <= r for rp, r in zip(rkp, rk))

    def test_unordered_pair_is_rejected_with_witness(self):
        K = SIGN_FLIP
        with pytest.raises(PreconditionFailure) as exc:
            recover_contraction(0.5 * K, K, "s1")
        assert exc.value.verdict is not None

    def test_rank_zero_summands_give_empty_blocks(self):
        cfg = GenConfig(seed=1, n=4, descriptor=AlgebraDescriptor([2, 1]))
        K, Kp, s0 = random_majorized_pair(cfg)
        for big, shapes in ((zero_summand(K, 1), [(4, 4), (0, 0)]), (K, [(4, 4), (0, 2)])):
            cert = recover_contraction(big, zero_summand(Kp, 1), s0)
            assert [w.shape for w in cert.W] == shapes
            assert [c.shape for c in cert.C] == [(4, 4), (shapes[1][1],) * 2]
            assert cert.norm_W <= 1.0 and cert.residual <= 1e-12

    def test_a_map_of_norm_above_one_is_refused(self):
        pair = random_majorized_pair(GenConfig(seed=1, n=4, descriptor=AlgebraDescriptor([2, 1])))
        # -3 (0.05 SIGN_FLIP) has compression -0.3: 4 K <= K at tol_rel 0.5
        for K, s0, tol in ((pair[0], pair[2], ToleranceConfig(tol_rel=1.0)),
                           (0.05 * SIGN_FLIP, "s1", ToleranceConfig(tol_rel=0.5))):
            assert kernel_leq(4 * K, K, tol).holds
            with pytest.raises(PreconditionFailure,
                               match=r"^recovered map has norm 2\.000000 > 1$"):
                recover_contraction(K, 4 * K, s0, tol)

    def test_a_part_outside_the_factor_space_is_refused(self):
        # K's points lie on one axis, Kp's on another, so W = 0 and Kp is all residue;
        # a loose tolerance lets the order check pass.
        K, Kp = squared_distances([0.0, 20.0, 0.0]), squared_distances([0.0, 0.0, 10.0])
        tol = ToleranceConfig(tol_rel=0.5)
        assert kernel_leq(Kp, K, tol).holds
        with pytest.raises(PreconditionFailure, match=r"^residual 1\.000e\+01 exceeds"):
            recover_contraction(K, Kp, "s1", tol)

    def test_a_map_that_does_not_rebuild_kp_is_refused(self):
        # The same geometry at a smaller scale: the residual 4 is within
        # sqrt(tol_rel) (1 + 4), so the kernel rebuilt from W = 0 is what is refused.
        K, Kp = squared_distances([0.0, 1.0, 0.0]), squared_distances([0.0, 0.0, 4.0])
        tol = ToleranceConfig(tol_rel=1.0)
        assert kernel_leq(Kp, K, tol).holds
        with pytest.raises(PreconditionFailure,
                           match=r"^reconstruction error 1\.600e\+01 exceeds tolerance$"):
            recover_contraction(K, Kp, "s1", tol)

    def test_nonzero_diagonal_is_rejected(self):
        K = scalar_kernel([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(PreconditionFailure, match="diagonal"):
            recover_contraction(K, K, "s1")

    def test_non_self_adjoint_base_column_is_rejected(self):
        K = scalar_kernel([[0.0, 1.0j], [-1.0j, 0.0]])
        with pytest.raises(PreconditionFailure, match="self-adjoint"):
            recover_contraction(K, K, "s1")
