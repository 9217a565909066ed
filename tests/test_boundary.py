"""Inputs are validated once, at the boundary.

A public decision or construction tests the hermiticity of its own input
tables, once each, and decides every matrix it derives from them (the
compression, the base-point shift, the shifted table, ``-d^2``, ``K - Kp``)
on its hermitian part with no second test.  The second test used to run at
the derived matrix's own scale and so refused inputs that the first one
accepted: kernel A and metric B below.
"""

import json

import numpy as np
import pytest

import cpdkernels.kernels
from cpdkernels import (
    AlgebraDescriptor,
    GenConfig,
    NotHermitian,
    cond_positive_matrix_check,
    decompose_cpd,
    dump_json,
    embed,
    factor_pd,
    is_conditionally_positive_definite,
    is_embeddable,
    is_positive_definite,
    kernel_leq,
    kernel_to_json,
    metric_to_json,
    random_cpd_kernel,
    random_gram_kernel,
    random_majorized_pair,
    random_metric,
    recover_contraction,
    scalar_kernel,
    scalar_metric,
    shift_transform,
    sum_sq_diff_decomposition,
)
from cpdkernels.cli import main
from helpers import raw_scalar_kernel


def kernel_a():
    """``a_i + conj(a_j)`` at the scale of ``1e6``, CPD with a zero shift,
    plus ``1e-4 i`` on entries (1, 2) and (2, 1): hermitian at the scale of
    the kernel, not at the scale of its shift."""
    a = np.array([1e6, 2e6 + 3e5j, -1.5e6 + 1e5j])
    table = a[:, None] + a.conj()[None, :]
    table[1, 2] += 1e-4j
    table[2, 1] += 1e-4j
    return scalar_kernel(table)


# A metric whose one asymmetric pair passes at its scale, 1.5, but not at
# the scale of the compression of -d^2.
METRIC_B = [[0.0, 1.0, 1.5], [1.0, 0.0, 1.0], [1.5 * (1 + 5e-10), 1.0, 0.0]]
KERNEL_C = [[0.0, 1.0], [2.0, 0.0]]  # not hermitian; its shifted tables are


def run(capsys, tmp_path, doc, *argv):
    path = tmp_path / "doc.json"
    path.write_text(dump_json(doc), encoding="utf-8")
    code = main(["--no-timings", *argv, str(path)])
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


class TestKernelA:
    def test_every_route_but_the_shift_decides_it_cpd(self):
        K = kernel_a()
        assert is_conditionally_positive_definite(K).holds
        for m in (1, 2, 3):
            assert cond_positive_matrix_check(K, m).holds
        # The shift route validates the shift, at its own scale.
        with pytest.raises(NotHermitian):
            is_positive_definite(shift_transform(K, "s1"))

    @pytest.mark.parametrize("s0", ["s1", "s2", "s3"])
    def test_it_decomposes_at_every_base_point(self, s0):
        dec = decompose_cpd(kernel_a(), s0)
        assert dec.base_point == s0

    def test_decompose_verify_exits_zero(self, capsys, tmp_path):
        code, report = run(capsys, tmp_path, kernel_to_json(kernel_a()), "decompose", "--verify")
        verify = report["artifacts"]["verify"]
        assert code == 0 and verify["ok"]
        assert verify["max_error"] == pytest.approx(1e-4, rel=1e-3)
        assert verify["bound"] == pytest.approx(0.04, rel=1e-3)
        code, report = run(capsys, tmp_path, kernel_to_json(kernel_a()),
                           "decompose", "--verify", "--base-point", "s2")
        verify = report["artifacts"]["verify"]
        assert code == 0 and verify["max_error"] == pytest.approx(2e-4, rel=1e-3)

    def test_corm_exits_zero_and_shift_two(self, capsys, tmp_path):
        doc = kernel_to_json(kernel_a())
        assert run(capsys, tmp_path, doc, "check-cpd", "--method", "corm")[0] == 0
        assert run(capsys, tmp_path, doc, "check-cpd", "--method", "shift")[0] == 0


class TestMetricB:
    def test_it_embeds(self):
        dm = scalar_metric(METRIC_B)
        assert is_embeddable(dm).holds
        assert embed(dm, "s1").base_point == "s1"

    def test_embed_verify_exits_zero_as_check_metric_does(self, capsys, tmp_path):
        doc = metric_to_json(scalar_metric(METRIC_B))
        assert run(capsys, tmp_path, doc, "check-metric")[0] == 0
        code, report = run(capsys, tmp_path, doc, "embed", "--verify")
        assert code == 0 and report["artifacts"]["verify"]["ok"]


class TestKernelC:
    def test_the_corm_route_refuses_it_as_the_compression_route_does(self):
        K = scalar_kernel(KERNEL_C)
        for m in (1, 2):
            with pytest.raises(NotHermitian):
                cond_positive_matrix_check(K, m)
        with pytest.raises(NotHermitian):
            is_conditionally_positive_definite(K)
        # The shift route validates the shift, which is hermitian.
        assert not is_positive_definite(shift_transform(K, "s1")).holds

    def test_corm_exits_two(self, capsys, tmp_path):
        doc = kernel_to_json(scalar_kernel(KERNEL_C))
        assert run(capsys, tmp_path, doc, "check-cpd", "--method", "corm")[0] == 2
        assert run(capsys, tmp_path, doc, "check-cpd", "--method", "shift")[0] == 2


class TestErrorPrecedence:
    def test_one_label_needs_two_labels_before_hermiticity(self):
        K = raw_scalar_kernel([[1j]])
        assert not K.is_hermitian()
        for decide in (is_conditionally_positive_definite,
                       lambda K: decompose_cpd(K, "s1"),
                       lambda K: kernel_leq(K, K)):
            with pytest.raises(ValueError, match="at least two labels"):
                decide(K)

    def test_the_index_range_comes_before_hermiticity(self):
        with pytest.raises(ValueError, match="m must be in 1..2"):
            cond_positive_matrix_check(scalar_kernel(KERNEL_C), 3)


class TestCallCounts:
    """The table hermiticity test runs once per input kernel, on that input
    and never on a table derived from it."""

    @pytest.fixture
    def tested(self, monkeypatch):
        seen = []
        test = cpdkernels.kernels._hermitian

        def recording(K, tol):
            seen.append(K)
            return test(K, tol)

        monkeypatch.setattr(cpdkernels.kernels, "_hermitian", recording)
        return seen

    @staticmethod
    def same(seen, expected):
        """The same tables, each as often, in any order."""
        return sorted(map(id, seen)) == sorted(map(id, expected))

    def test_decisions_and_constructions_on_kernels(self, tested):
        cfg = GenConfig(seed=3, n=4, descriptor=AlgebraDescriptor([2, 1]))
        K, L = random_cpd_kernel(cfg), random_gram_kernel(cfg)
        D = random_cpd_kernel(cfg, diagonal_zero=True)
        big, small, s0 = random_majorized_pair(cfg)
        calls = [
            (lambda: is_conditionally_positive_definite(K), [K]),
            (lambda: is_positive_definite(L), [L]),
            (lambda: cond_positive_matrix_check(K, 2), [K]),
            (lambda: factor_pd(L), [L]),
            (lambda: decompose_cpd(K, "s2"), [K]),
            (lambda: sum_sq_diff_decomposition(D), [D]),
            (lambda: kernel_leq(small, big), [small, big]),
            (lambda: recover_contraction(big, small, s0), [small, big]),
        ]
        for call, expected in calls:
            tested.clear()
            call()
            assert self.same(tested, expected)

    def test_metric_decisions_and_constructions_run_none(self, tested):
        dm = random_metric(GenConfig(seed=3, n=4, descriptor=AlgebraDescriptor([2, 1])))
        assert is_embeddable(dm).holds
        embed(dm, "s1")
        assert tested == []
