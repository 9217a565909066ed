"""Release gate for the guarantees the package advertises.

Each test covers one numbered criterion, runs a seeded corpus at the stated
size, and prints exactly one PASS or FAIL line (visible under ``pytest -v``)
with the measured counts before asserting.
"""

import time

import numpy as np
import pytest

from cpdkernels import (
    AlgebraDescriptor,
    GenConfig,
    adjoint,
    cauchy_schwarz_cpd_check,
    cauchy_schwarz_pd_check,
    compressed_gram,
    cond_positive_matrix_check,
    decompose_cpd,
    dump_json,
    embed,
    fixture,
    is_conditionally_positive_definite,
    is_embeddable,
    is_positive_definite,
    kernel_leq,
    kernel_norm,
    kernel_to_json,
    leq,
    majorized_kernel,
    metric_norm,
    metric_to_kernel,
    module_inner,
    op_norm,
    random_cpd_kernel,
    random_gram_kernel,
    random_hermitian_kernel,
    random_majorized_pair,
    random_metric,
    random_module_element,
    random_non_cpd_kernel,
    random_positive_two_by_two,
    reconstruct_cpd,
    recover_contraction,
    schur_product,
    shift_transform,
    sum_sq_diff_decomposition,
    sum_sq_diff_reconstruct,
    two_by_two_check,
    validate_metric,
)
from cpdkernels.cli import main as cli_main
from helpers import KERNEL_DESCRIPTORS

METRIC_DESCRIPTORS = ([1], [2], [3], [1, 2], [2, 3], [1, 1, 2], [3, 1], [2, 2])


def _announce(capsys, num: int, name: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\n[acceptance {num}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def _gate(capsys, num: int, name: str, fn) -> None:
    try:
        ok, detail = fn()
    except Exception as exc:
        _announce(capsys, num, name, False, f"error: {exc}")
        raise
    _announce(capsys, num, name, ok, detail)
    assert ok, f"acceptance {num} ({name}): {detail}"


def _mixed_kernel(i: int):
    n = 2 + i % 5
    desc = AlgebraDescriptor(KERNEL_DESCRIPTORS[i % len(KERNEL_DESCRIPTORS)])
    cfg = GenConfig(seed=1000 + i, n=n, descriptor=desc)
    kind = i % 5
    if kind == 0:
        return random_gram_kernel(cfg)
    if kind == 1:
        return random_cpd_kernel(cfg)
    if kind == 2:
        return random_cpd_kernel(cfg, diagonal_zero=True)
    if kind == 3:
        return random_hermitian_kernel(cfg)
    return random_non_cpd_kernel(cfg)


@pytest.fixture(scope="module")
def mixed_corpus():
    return [_mixed_kernel(i) for i in range(200)]


@pytest.fixture(scope="module")
def cpd_corpus():
    out = []
    for i in range(100):
        desc = AlgebraDescriptor(KERNEL_DESCRIPTORS[i % len(KERNEL_DESCRIPTORS)])
        out.append(random_cpd_kernel(GenConfig(seed=2000 + i, n=2 + i % 5, descriptor=desc)))
    return out


@pytest.fixture(scope="module")
def diag_corpus():
    out = []
    for i in range(100):
        desc = AlgebraDescriptor(METRIC_DESCRIPTORS[i % len(METRIC_DESCRIPTORS)])
        cfg = GenConfig(
            seed=3000 + i, n=2 + i % 4, descriptor=desc, rank=1 + i % 3
        )
        out.append(random_cpd_kernel(cfg, diagonal_zero=True))
    return out


def test_01_conditional_positivity_matches_shifted_positivity(capsys, mixed_corpus):
    def check():
        start = time.perf_counter()
        cpd_count = 0
        disagreements = 0
        for K in mixed_corpus:
            verdict = bool(is_conditionally_positive_definite(K))
            cpd_count += verdict
            for s0 in K.index_set.labels:
                shifted = bool(is_positive_definite(shift_transform(K, s0)))
                disagreements += shifted != verdict
        elapsed = time.perf_counter() - start
        non = len(mixed_corpus) - cpd_count
        ok = disagreements == 0 and elapsed < 30.0 and cpd_count >= 10 and non >= 10
        return ok, (
            f"{len(mixed_corpus)} kernels, {cpd_count} cpd / {non} non-cpd, "
            f"{disagreements} disagreements across all base points, {elapsed:.1f}s"
        )

    _gate(capsys, 1, "shift transform preserves the verdict", check)


def test_02_shifted_matrix_and_two_point_routes_agree(capsys, mixed_corpus):
    def check():
        m_disagreements = 0
        for K in mixed_corpus:
            verdict = bool(is_conditionally_positive_definite(K))
            for m in range(1, K.n + 1):
                m_disagreements += bool(cond_positive_matrix_check(K, m)) != verdict

        pair_disagreements = 0
        pairs = 500
        for i in range(pairs):
            desc = AlgebraDescriptor(KERNEL_DESCRIPTORS[i % len(KERNEL_DESCRIPTORS)])
            cfg = GenConfig(seed=9000 + i, n=2, descriptor=desc)
            kind = i % 5
            if kind == 0:
                K2 = random_gram_kernel(cfg)
            elif kind == 1:
                K2 = random_cpd_kernel(cfg)
            elif kind == 2:
                K2 = random_cpd_kernel(cfg, diagonal_zero=True)
            elif kind == 3:
                K2 = random_hermitian_kernel(cfg)
            else:
                K2 = random_non_cpd_kernel(cfg)
            a, b = K2.index_set.labels
            fast = two_by_two_check(K2[a, a], K2[a, b], K2[b, b])
            full = bool(is_conditionally_positive_definite(K2))
            pair_disagreements += fast != full
        ok = m_disagreements == 0 and pair_disagreements == 0
        return ok, (
            f"{len(mixed_corpus)} kernels x every m: {m_disagreements} disagreements; "
            f"{pairs} two-point instances: {pair_disagreements} disagreements"
        )

    _gate(capsys, 2, "base-row shift and two-point criteria", check)


def test_03_decomposition_reconstructs_the_kernel(capsys, cpd_corpus):
    def check():
        worst = 0.0
        failures = 0
        for K in cpd_corpus:
            bound = 1e-8 * (1.0 + kernel_norm(K))
            for s0 in K.index_set.labels:
                err = kernel_norm(reconstruct_cpd(decompose_cpd(K, s0)) - K)
                worst = max(worst, err)
                failures += err > bound
        ok = failures == 0
        return ok, (
            f"{len(cpd_corpus)} kernels x every base point, "
            f"max error {worst:.2e}, {failures} over bound"
        )

    _gate(capsys, 3, "factor-and-affine roundtrip", check)


def test_04_squared_difference_split_is_exact_and_termwise_cpd(capsys, diag_corpus):
    def check():
        worst = 0.0
        recon_failures = 0
        family_failures = 0
        total_families = 0
        for K in diag_corpus:
            families = sum_sq_diff_decomposition(K)
            total_families += len(families)
            recon = sum_sq_diff_reconstruct(families, K.index_set, K.descriptor)
            err = kernel_norm(recon - K)
            worst = max(worst, err)
            recon_failures += err > 1e-8 * (1.0 + kernel_norm(K))
            for fam in families:
                term = sum_sq_diff_reconstruct([fam], K.index_set, K.descriptor)
                family_failures += not is_conditionally_positive_definite(term)
        ok = recon_failures == 0 and family_failures == 0
        return ok, (
            f"{len(diag_corpus)} tables, {total_families} families, max reconstruction "
            f"error {worst:.2e}, {recon_failures} roundtrip / {family_failures} "
            "per-family failures"
        )

    _gate(capsys, 4, "squared-difference split", check)


def test_05_metric_embedding_realizes_distances_and_rejects_the_star(capsys):
    def check():
        worst = 0.0
        failures = 0
        count = 100
        for i in range(count):
            desc = AlgebraDescriptor(METRIC_DESCRIPTORS[i % len(METRIC_DESCRIPTORS)])
            dm = random_metric(GenConfig(seed=4000 + i, n=2 + i % 4, descriptor=desc))
            result = embed(dm, dm.index_set.labels[0])
            realized = result.realized_metric()
            err = max(
                op_norm(a - b)
                for ra, rb in zip(realized.values, dm.values)
                for a, b in zip(ra, rb)
            )
            worst = max(worst, err)
            failures += err > 1e-8 * (1.0 + metric_norm(dm))

        star = fixture("star-metric")
        verdict = is_embeddable(star)
        compressed = compressed_gram(metric_to_kernel(star))[0]
        expected = np.array([[2.0, 4.0, 4.0], [4.0, 8.0, 4.0], [4.0, 4.0, 8.0]])
        exact = np.array_equal(compressed, expected)
        v = verdict.witness.vector if verdict.witness is not None else None
        quad = float((v.conj() @ compressed @ v).real) if v is not None else 0.0
        det = float(np.linalg.det(compressed).real)
        star_ok = (
            not verdict.holds
            and exact
            and quad <= -0.1
            and det == pytest.approx(-32.0, rel=1e-12)
        )
        ok = failures == 0 and star_ok
        return ok, (
            f"{count} metrics, max distance error {worst:.2e}, {failures} over bound; "
            f"star witness quadratic form {quad:.4f}, compressed determinant {det:.6f}"
        )

    _gate(capsys, 5, "isometric embedding", check)


def test_06_majorization_certificates(capsys):
    def check():
        count = 100
        order_failures = 0
        norm_failures = 0
        residual_failures = 0
        recon_failures = 0
        worst_recon = 0.0
        for i in range(count):
            desc = AlgebraDescriptor(METRIC_DESCRIPTORS[i % len(METRIC_DESCRIPTORS)])
            cfg = GenConfig(seed=5000 + i, n=2 + i % 4, descriptor=desc)
            K, Kp, s0 = random_majorized_pair(cfg)
            order_failures += not kernel_leq(Kp, K)
            cert = recover_contraction(K, Kp, s0)
            norm_failures += cert.norm_W > 1.0 + 1e-8
            residual_failures += cert.residual > 1e-8
            fact = decompose_cpd(K, s0).factorization
            err = kernel_norm(majorized_kernel(fact, cert.C) - Kp)
            worst_recon = max(worst_recon, err)
            recon_failures += err > 1e-8 * (1.0 + kernel_norm(K))
        ok = (
            order_failures == 0
            and norm_failures == 0
            and residual_failures == 0
            and recon_failures == 0
        )
        return ok, (
            f"{count} pairs: {order_failures} order, {norm_failures} norm, "
            f"{residual_failures} residual, {recon_failures} reconstruction failures "
            f"(max error {worst_recon:.2e})"
        )

    _gate(capsys, 6, "majorization contraction recovery", check)


def test_07_inequality_suite(capsys, mixed_corpus, cpd_corpus, diag_corpus):
    def check():
        cs_failures = 0
        cs_pairs = 1000
        for i in range(cs_pairs):
            desc = AlgebraDescriptor(METRIC_DESCRIPTORS[i % len(METRIC_DESCRIPTORS)])
            cfg = GenConfig(seed=6000 + i, n=2, descriptor=desc, rank=1 + i % 4)
            x = random_module_element(cfg, 0)
            y = random_module_element(cfg, 1)
            lhs = module_inner(x, y) @ module_inner(y, x)
            rhs = op_norm(module_inner(y, y)) * module_inner(x, x)
            cs_failures += not leq(lhs, rhs)

        cpd_kernels = cpd_corpus + diag_corpus
        prop_i_failures = sum(
            not cauchy_schwarz_cpd_check(K) for K in cpd_kernels
        )

        pd_kernels = [K for i, K in enumerate(mixed_corpus) if i % 5 == 0]
        for i in range(60):
            desc = AlgebraDescriptor(KERNEL_DESCRIPTORS[i % len(KERNEL_DESCRIPTORS)])
            pd_kernels.append(
                random_gram_kernel(GenConfig(seed=7000 + i, n=2 + i % 4, descriptor=desc))
            )
        prop_ii_failures = sum(not cauchy_schwarz_pd_check(K) for K in pd_kernels)

        lance_failures = 0
        lance_count = 500
        for i in range(lance_count):
            desc = AlgebraDescriptor(KERNEL_DESCRIPTORS[i % len(KERNEL_DESCRIPTORS)])
            P, T, Q = random_positive_two_by_two(
                GenConfig(seed=8000 + i, n=2, descriptor=desc)
            )
            lance_failures += not leq(T @ adjoint(T), op_norm(Q) * P)

        ok = (
            cs_failures == 0
            and prop_i_failures == 0
            and prop_ii_failures == 0
            and lance_failures == 0
        )
        return ok, (
            f"{cs_pairs} module pairs: {cs_failures} CS violations; "
            f"{len(cpd_kernels)} cpd kernels: {prop_i_failures}; "
            f"{len(pd_kernels)} pd kernels: {prop_ii_failures}; "
            f"{lance_count} block matrices: {lance_failures}"
        )

    _gate(capsys, 7, "operator inequalities", check)


def test_08_entrywise_square_counterexample(capsys):
    def check():
        K = fixture("schur-counterexample")
        square = schur_product(K, K)
        compressed = compressed_gram(square)[0]
        exact = compressed.shape == (1, 1) and compressed[0, 0] == -2.0
        verdict = is_conditionally_positive_definite(square)
        witness_exact = (
            verdict.witness is not None and verdict.witness.eigenvalue == -2.0
        )
        code = cli_main(["--no-timings", "demo", "schur-counterexample"])
        capsys.readouterr()
        ok = exact and not verdict.holds and witness_exact and code == 1
        return ok, (
            f"compressed value {compressed[0, 0].real:+.1f} (exact), "
            f"demo exit code {code}"
        )

    _gate(capsys, 8, "entrywise square breaks conditional positivity", check)


def test_09_determinism_and_scale(capsys, tmp_path):
    def check():
        desc = AlgebraDescriptor([8, 8])
        cfg = GenConfig(seed=77, n=4, descriptor=desc)
        herm_path = tmp_path / "herm.json"
        herm_path.write_text(
            dump_json(kernel_to_json(random_hermitian_kernel(cfg))), encoding="utf-8"
        )
        cpd_path = tmp_path / "cpd.json"
        cpd_path.write_text(
            dump_json(kernel_to_json(random_cpd_kernel(cfg))), encoding="utf-8"
        )
        reports = {}
        for threads in ("1", "4"):
            outs = []
            for argv in (
                ["--no-timings", "--threads", threads, "check-cpd", str(herm_path)],
                ["--no-timings", "--threads", threads, "decompose", str(cpd_path), "--verify"],
            ):
                cli_main(argv)
                outs.append(capsys.readouterr().out)
            reports[threads] = outs
        identical = reports["1"] == reports["4"]

        timings = {}

        def timed(name, fn):
            start = time.perf_counter()
            fn()
            timings[name] = time.perf_counter() - start

        gram = random_gram_kernel(cfg)
        K = random_cpd_kernel(cfg)
        diag = random_cpd_kernel(cfg, diagonal_zero=True)
        dm = random_metric(cfg)
        Kmaj, Kp, s0 = random_majorized_pair(cfg)
        timed("pd check", lambda: is_positive_definite(gram))
        timed("cpd check", lambda: is_conditionally_positive_definite(K))
        timed("shift", lambda: shift_transform(K, "s1"))
        timed("decompose", lambda: decompose_cpd(K, "s1"))
        timed("ssd", lambda: sum_sq_diff_decomposition(diag))
        timed("validate metric", lambda: validate_metric(dm))
        timed("embed", lambda: embed(dm, dm.index_set.labels[0]))
        timed("majorize", lambda: recover_contraction(Kmaj, Kp, s0))
        slowest = max(timings, key=timings.get)
        within = all(dt < 1.0 for dt in timings.values())
        ok = identical and within
        return ok, (
            f"reports byte-identical across threads: {identical}; slowest operation "
            f"at block size 64 is {slowest} at {timings[slowest] * 1e3:.0f}ms"
        )

    _gate(capsys, 9, "deterministic reports and sub-second checks", check)
