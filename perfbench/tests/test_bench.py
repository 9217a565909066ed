"""Tests of the benchmark itself: smoke runs at tiny sizes, the checker's
negative cases, the traced run's metric set, and the bare-directory exit.

Run from the root of the repository with ``python3 -m pytest perfbench/tests``.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import cpdkernels  # noqa: E402
import workloads as wl  # noqa: E402
from check import Checker  # noqa: E402
from spans import Tracer, install, layer_metrics  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(spec: wl.Spec) -> wl.Spec:
    """The same workload with every input at n=4, summands [2, 1]."""
    return dataclasses.replace(spec, sizes={k: (4, (2, 1)) for k in spec.sizes})


def test_contract_names_every_workload():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(wl.SPECS)


@pytest.mark.parametrize("name", list(wl.SPECS))
def test_smoke_every_workload_at_tiny_size(name, tmp_path):
    ops, setup = wl.prepare(tiny(wl.SPECS[name]), seed=1, workdir=tmp_path)
    assert setup > 0
    loop = wl.closed_loop(ops, seconds=0.0, min_ops=1)
    assert loop.attempted == len(ops)
    assert loop.failures == {}
    assert loop.throughput() > 0


@pytest.mark.parametrize("name", list(wl.SPECS))
def test_traced_cycle_reports_every_per_layer_metric(name, tmp_path):
    spec = tiny(wl.SPECS[name])
    original = cpdkernels.is_positive_definite
    tracer = Tracer()
    undo = install(tracer)
    try:
        tracer.active = True
        ops, _ = wl.prepare(spec, seed=1, workdir=tmp_path)
        tracer.active = False
    finally:
        undo()
    loop = wl.closed_loop(ops, seconds=0.0, min_ops=1, tracer=tracer)
    assert cpdkernels.is_positive_definite is original
    assert loop.traced == [False, True]
    assert sorted(tracer.latency) == list(range(len(ops), 2 * len(ops)))
    assert loop.cycles(traced=True).latencies == loop.latencies[len(ops):]
    assert loop.failures == {}
    layers = layer_metrics(tracer, spec.focus)
    layers["trace.overhead"] = (0.0, "ratio")
    for metric in CONTRACT["per_layer"]:
        value, unit = layers[metric["name"]]
        assert unit == metric["unit"]
        assert np.isfinite(value)
    assert all(layers[f"{layer}.failed"][0] == 0 for layer in ("kernels", "cli", "embedding"))


def _decide_inputs():
    cfg = cpdkernels.GenConfig(seed=5, n=4, descriptor=cpdkernels.AlgebraDescriptor([2, 1]))
    return cpdkernels.random_cpd_kernel(cfg), cpdkernels.random_non_cpd_kernel(cfg)


@pytest.mark.parametrize("route", wl.ROUTES)
def test_checker_accepts_true_verdicts_and_counts_a_flipped_one(route):
    checker = Checker()
    K, N = _decide_inputs()
    assert checker.decision(K, route, True, wl._decide(K, route)) is None
    assert checker.decision(N, route, False, wl._decide(N, route)) is None
    assert checker.decision(K, route, False, wl._decide(K, route)) is not None
    assert checker.decision(N, route, True, wl._decide(N, route)) is not None


@pytest.mark.parametrize("route", wl.ROUTES)
def test_checker_counts_a_perturbed_witness(route):
    checker = Checker()
    _, N = _decide_inputs()
    verdict = wl._decide(N, route)
    vec = verdict.witness.vector.copy()
    vec[0] += 1e-3
    vec /= np.linalg.norm(vec)
    bad = dataclasses.replace(verdict, witness=dataclasses.replace(verdict.witness, vector=vec))
    assert checker.decision(N, route, False, bad) is not None


def test_loop_counts_failures_for_a_perturbed_cli_witness(tmp_path):
    ops, _ = wl.prepare(tiny(wl.SPECS["cli"]), seed=1, workdir=tmp_path)
    op = next(o for o in ops if o.kind == "kernel-check-cpd")
    code, out, err = op.run()
    assert op.check((code, out, err)) is None
    report = json.loads(out)
    report["witness"]["witness"]["vector"][0][0] += 1e-3
    bad = wl.Op(op.kind, lambda: (code, json.dumps(report), err), op.check)
    loop = wl.closed_loop([bad], seconds=0.0, min_ops=2)
    assert loop.attempted == 2 and len(loop.failures) == 2
    assert loop.throughput() == 0.0


def test_floors_are_taken_per_position():
    loop = wl.Loop(3, latencies=[0.1, 0.4, 0.2, 0.3, 0.2, 0.5], failures={2: "wrong"})
    assert loop.floors() == [0.1, 0.2, 0.2]
    assert loop.latency(0.9) == 0.2
    assert loop.passed() == pytest.approx(5 / 6)
    assert loop.throughput() == pytest.approx(5 / 6 * 3 / 0.5)
    assert loop.pooled_throughput() == pytest.approx(5 / 1.7)
    assert loop.pooled_latency(0.9) == 0.5


def test_floor_is_the_median_of_window_minima():
    # A rare fast cycle (1.0) and a slow window (5.0) are passed over; the
    # last, partial window (0.5) is left out.
    loop = wl.Loop(1, latencies=[5.0, 1.0, 5.0, 5.0, 5.0, 5.0, 2.0, 2.0, 2.0, 0.5])
    assert wl.WINDOW == 3
    assert loop.floors() == [2.0]


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    run = subprocess.run(
        [sys.executable, *CONTRACT["command"][1:], "--workload", "decide",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert run.returncode != 0
    assert '"correct"' not in run.stdout
