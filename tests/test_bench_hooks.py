"""The benchmark's tracer still finds every hook it wraps.

``perfbench/spans.py`` wraps, by name, every public function of the package,
``Kernel.is_hermitian``, ``AlgebraElement.__init__`` and some
``numpy.linalg`` routines.  Installing it, deciding one kernel by each CPD
route and uninstalling it here makes a refactor that drops or renames one of
those hooks, or stops running a layer whose share the benchmark reports,
fail the test suite instead of the benchmark run.  The tracer
file is loaded read-only; nothing under ``perfbench/`` is written.
"""

import importlib.util
import json
import sys
from pathlib import Path

import cpdkernels
import cpdkernels.cli  # noqa: F401  (the tracer wraps every module, the CLI too)
from cpdkernels import AlgebraDescriptor, AlgebraElement, GenConfig

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    keep, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = keep
    return module


def test_every_route_runs_under_the_tracer_and_uninstalls():
    spans = _load_spans()
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
        "linalg.eigh",
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
