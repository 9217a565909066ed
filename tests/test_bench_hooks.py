"""The benchmark's tracer still finds every hook it wraps.

``perfbench/spans.py`` wraps, by name, every public function of the package,
``Kernel.is_hermitian``, ``AlgebraElement.__init__`` and some
``numpy.linalg`` routines.  Installing it, deciding one kernel by each CPD
route, running the metric and kernel commands, and uninstalling it here
makes a refactor that drops or renames one of those hooks, or stops running
a layer whose share the benchmark reports, fail the test suite instead of
the benchmark run.  The tracer file is loaded read-only; nothing under
``perfbench/`` is written.
"""

import contextlib
import io
import json
import time
from pathlib import Path

import cpdkernels
import cpdkernels.cli  # noqa: F401  (the tracer wraps every module, the CLI too)
from cpdkernels import AlgebraDescriptor, AlgebraElement, GenConfig
from helpers import load_bench_module

ROOT = Path(__file__).resolve().parents[1]


def test_every_route_runs_under_the_tracer_and_uninstalls():
    spans = load_bench_module("spans")
    K = cpdkernels.random_non_cpd_kernel(
        GenConfig(seed=1, n=4, descriptor=AlgebraDescriptor([2, 1])))
    originals = (cpdkernels.is_positive_definite, cpdkernels.Kernel.is_hermitian)
    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    try:
        tracer.op_id, tracer.active = 0, True
        verdicts = [
            cpdkernels.is_conditionally_positive_definite(K),
            cpdkernels.is_positive_definite(cpdkernels.shift_transform(K, "s1")),
            cpdkernels.cond_positive_matrix_check(K, 1),
        ]
        hermitian = K.is_hermitian()
        decided_elements = tracer.elements
        AlgebraElement.zero(K.descriptor)
        tracer.active = False
    finally:
        uninstall()
    assert [v.holds for v in verdicts] == [False, False, False]
    assert hermitian
    assert (cpdkernels.is_positive_definite, cpdkernels.Kernel.is_hermitian) == originals

    seen = {tracer.names[i] for i in tracer.name}
    assert {
        "kernels.is_conditionally_positive_definite",
        "kernels.is_positive_definite",
        "kernels.shift_transform",
        "kernels.cond_positive_matrix_check",
        "kernels.Kernel.is_hermitian",
        "linalg.eigvalsh",
    } <= seen
    # Decisions run on the stored arrays and build no elements; the one
    # element built on purpose shows the constructor hook still counts.
    assert decided_elements == 0
    assert tracer.elements == 1

    # Every per-layer metric the benchmark contract lists (but the overhead,
    # which compares whole runs) comes out of decisions alone.
    tracer.kinds[0], tracer.latency[0], tracer.expected[0] = "fine-compression", 1.0, ()
    metrics = spans.layer_metrics(tracer, {"fine": ("kernels.Kernel.is_hermitian",)})
    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for metric in contract["per_layer"]:
        if metric["name"] != "trace.overhead":
            assert metrics[metric["name"]][1] == metric["unit"]
    assert metrics["kernels.validate.calls"][0] == 1.0
    assert 0.0 < metrics["focus.fine.share"][0] <= 1.0


def test_metric_commands_run_under_the_tracer(tmp_path):
    spans = load_bench_module("spans")
    desc = AlgebraDescriptor([2, 1])
    dm = cpdkernels.random_metric(GenConfig(seed=1, n=5, descriptor=desc))
    values = [list(row) for row in dm.values]
    values[0][2] = values[2][0] = 5.0 * values[0][2]
    far = cpdkernels.CStarMetric(dm.index_set, desc, values)
    path, broken = tmp_path / "metric.json", tmp_path / "triangle.json"
    for table, where in ((dm, path), (far, broken)):
        where.write_text(cpdkernels.dump_json(cpdkernels.metric_to_json(table)), encoding="utf-8")
    commands = (["check-metric", str(path)], ["embed", str(path), "--verify"],
                ["check-metric", str(broken)])
    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    codes = []
    try:
        for op, argv in enumerate(commands):
            tracer.kinds[op], tracer.expected[op] = f"metric-{argv[0]}", ()
            tracer.op_id, tracer.active = op, True
            start = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                codes.append(cpdkernels.cli.main(argv))
            tracer.latency[op] = time.perf_counter() - start
            tracer.active = False
    finally:
        uninstall()
    assert codes == [0, 0, 1]

    names = [tracer.names[i] for i in tracer.name]
    ops = list(tracer.op)
    validated = [op for name, op in zip(names, ops) if name == "embedding.validate_metric"]
    assert validated == [0, 1, 2]
    # A batched Cholesky passes the entries and the triangles; only a failing
    # axiom, here the triangles, runs one batched eigh per summand.
    eighs = [sum(1 for name, o in zip(names, ops) if name == "linalg.eigh" and o == op)
             for op in (0, 2)]
    assert eighs == [0, desc.num_summands]

    metrics = spans.layer_metrics(tracer, {"metric": ("embedding.validate_metric",)})
    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for metric in contract["per_layer"]:
        if metric["name"] != "trace.overhead":
            assert metrics[metric["name"]][1] == metric["unit"]
    assert 0.0 < metrics["focus.metric.share"][0] <= 1.0


def test_kernel_commands_run_under_the_tracer(tmp_path):
    spans = load_bench_module("spans")
    cfg = GenConfig(seed=1, n=4, descriptor=AlgebraDescriptor([2, 2]))
    paths = {}
    for name, K in (("cpd", cpdkernels.random_cpd_kernel(cfg)),
                    ("diag", cpdkernels.random_cpd_kernel(cfg, diagonal_zero=True))):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(cpdkernels.dump_json(cpdkernels.kernel_to_json(K)), encoding="utf-8")
    commands = (["transform", str(paths["cpd"])], ["ssd-decompose", str(paths["diag"]), "--verify"])
    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    codes = []
    try:
        for op, argv in enumerate(commands):
            tracer.kinds[op], tracer.expected[op] = f"kernel-{argv[0]}", ()
            tracer.op_id, tracer.active = op, True
            start = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                codes.append(cpdkernels.cli.main(argv))
            tracer.latency[op] = time.perf_counter() - start
            tracer.active = False
    finally:
        uninstall()
    assert codes == [0, 0]

    names = [tracer.names[i] for i in tracer.name]
    ops = list(tracer.op)
    for name in ("serialize.load_document", "serialize.dump_json"):
        assert [op for n, op in zip(names, ops) if n == name] == [0, 1]
    # The preconditions of the split take two batched 2-norms per summand,
    # the entry norms (which the verify bound reads again from the table)
    # and the skew parts; the verify block's error takes the other two.
    assert sum(1 for n, op in zip(names, ops) if n == "linalg.norm2" and op == 1) == 4 + 2

    metrics = spans.layer_metrics(tracer, {"kernel": ("serialize.",)})
    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for metric in contract["per_layer"]:
        if metric["name"] != "trace.overhead":
            assert metrics[metric["name"]][1] == metric["unit"]
    assert 0.0 < metrics["focus.kernel.share"][0] <= 1.0
