"""Workloads of the cpdkernels benchmark: seeded inputs, operations, checks.

Every workload is a closed loop with a single client: an operation starts when
the previous one has returned.  Operations run in a fixed cyclic order and a
run always ends on a whole cycle, so every run sees the same mix.  Inputs come
from the package's seeded generators; the workload seed only picks the
generator seeds, and the program receives nothing but the generated inputs.

Why these two: ``decide`` is where the per-entry ``kernels``/``algebra`` work
and the ``linalg`` eigensolve run, on kernels of two sizes so that each one
dominates at one of them; ``cli`` is where ``serialize`` and ``embedding``
run, and neither runs in ``decide``.  An optimisation of serialization or
metric validation therefore shows on ``cli`` and not on ``decide``.
"""

from __future__ import annotations

import contextlib
import io
import math
import statistics
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

import cpdkernels
from cpdkernels import cli

from check import Checker
from spans import install

MIN_OPS = 100  # the pooled p90 then has at least ten samples beyond it
WINDOW = 3  # cycles per window of a floor
ROUTES = ("compression", "shift", "corm")


@dataclass(frozen=True)
class Op:
    """One operation: ``run`` is timed, ``check`` is not.

    ``expected`` names exceptions that the program raises and handles by
    design while running the operation.
    """

    kind: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    expected: tuple[str, ...] = ()


@dataclass(frozen=True)
class Spec:
    name: str
    sizes: dict  # input class -> (set size n, summand sizes)
    build: Callable
    # For each part of the workload (operations whose kind starts with
    # "<part>-"), the spans it was chosen to stress: names, or prefixes
    # ending in ".".
    focus: dict


def _configs(spec: Spec, seed: int, count: int, size: str) -> list:
    """Generator configurations for ``count`` inputs, derived from the seed."""
    n, dims = spec.sizes[size]
    desc = cpdkernels.AlgebraDescriptor(dims)
    key = list(spec.sizes).index(size)
    states = np.random.SeedSequence(seed, spawn_key=(key,)).generate_state(count)
    return [cpdkernels.GenConfig(seed=int(s), n=n, descriptor=desc) for s in states]


def _decide(K, route: str):
    # Names are looked up at call time so the traced run sees its wrappers.
    if route == "compression":
        return cpdkernels.is_conditionally_positive_definite(K)
    if route == "shift":
        return cpdkernels.is_positive_definite(
            cpdkernels.shift_transform(K, K.index_set.labels[0]))
    return cpdkernels.cond_positive_matrix_check(K, 1)


# Pairs of a CPD and a non-CPD kernel per size.  With twice as many fine
# operations as coarse ones, p50 falls among the fine operations and p90
# among the coarse ones, not on the edge between the two sizes, where a
# percentile jumps from run to run.
DECIDE_PAIRS = {"fine": 2, "coarse": 1}


def build_decide(spec: Spec, seed: int, workdir: Path, checker: Checker) -> list[Op]:
    """At each size, ``DECIDE_PAIRS`` CPD and non-CPD kernels through the
    three CPD routes."""
    ops = []
    for size in spec.sizes:
        cfgs = _configs(spec, seed, 2 * DECIDE_PAIRS[size], size)
        kernels = []
        for cpd, non_cpd in zip(cfgs[::2], cfgs[1::2]):
            kernels += [(cpdkernels.random_cpd_kernel(cpd), True),
                        (cpdkernels.random_non_cpd_kernel(non_cpd), False)]
        ops += [
            Op(f"{size}-{route}", partial(_decide, K, route),
               partial(checker.decision, K, route, expected))
            for K, expected in kernels
            for route in ROUTES
        ]
    return ops


def _cli(argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _write(workdir: Path, docs: dict) -> dict[str, str]:
    paths = {}
    for name, obj in docs.items():
        doc = (cpdkernels.metric_to_json(obj) if isinstance(obj, cpdkernels.CStarMetric)
               else cpdkernels.kernel_to_json(obj))
        path = workdir / f"{name}.json"
        path.write_text(cpdkernels.dump_json(doc), encoding="utf-8")
        paths[name] = str(path)
    return paths


def build_cli(spec: Spec, seed: int, workdir: Path, checker: Checker) -> list[Op]:
    """Every artifact-writing command on kernel documents, then metric
    validation and embedding on metric documents.

    ``ssd-decompose``, the slowest command, runs on two documents: with one,
    p90 would fall on the edge between it and the next slowest command,
    where a percentile jumps from run to run.
    """
    c = _configs(spec, seed, 5, "kernel")
    K = cpdkernels.random_cpd_kernel(c[0])
    D = cpdkernels.random_cpd_kernel(c[1], diagonal_zero=True)
    big, small, s0 = cpdkernels.random_majorized_pair(c[2])
    N = cpdkernels.random_non_cpd_kernel(c[3])
    D2 = cpdkernels.random_cpd_kernel(c[4], diagonal_zero=True)
    metrics = [cpdkernels.random_metric(cfg) for cfg in _configs(spec, seed, 2, "metric")]
    star = cpdkernels.fixture("star-metric")
    p = _write(workdir, {"cpd": K, "cpd-diag": D, "cpd-diag-2": D2, "major": big, "minor": small,
                         "non-cpd": N, "metric-1": metrics[0], "metric-2": metrics[1],
                         "star": star})
    ops = [
        Op("kernel-decompose", partial(_cli, ["decompose", p["cpd"], "--verify"]), checker.cli_verified),
        *(Op("kernel-ssd-decompose", partial(_cli, ["ssd-decompose", p[name], "--verify"]),
             checker.cli_verified) for name in ("cpd-diag", "cpd-diag-2")),
        Op("kernel-majorize", partial(_cli, ["majorize", p["major"], p["minor"], "--base-point", s0]),
           checker.cli_holds),
        Op("kernel-transform", partial(_cli, ["transform", p["cpd"]]), partial(checker.cli_transform, K)),
        Op("kernel-check-cpd", partial(_cli, ["check-cpd", p["non-cpd"]]),
           partial(checker.cli_witness, N)),
    ]
    for name in ("metric-1", "metric-2"):
        ops.append(Op("metric-check-metric", partial(_cli, ["check-metric", p[name]]), checker.cli_holds))
        ops.append(Op("metric-embed", partial(_cli, ["embed", p[name], "--verify"]),
                      checker.cli_verified))
    square = cpdkernels.metric_to_kernel(star, validate=False)
    ops.append(Op("metric-embed-star", partial(_cli, ["embed", p["star"]]),
                  partial(checker.cli_witness, square), expected=("PreconditionFailure",)))
    return ops


SPECS = {
    s.name: s
    for s in (
        # Library decisions.  At "fine" size (1,024 tiny entries per kernel)
        # per-entry hermiticity checks and norm SVDs take about 64% and eigh
        # about 1%; at "coarse" size (384x384 assembled matrices) eigh takes
        # about 60%.
        Spec("decide", {"fine": (32, (2, 1)), "coarse": (6, (64, 64))}, build_decide,
             {"fine": ("kernels.Kernel.is_hermitian", "linalg.norm2"),
              "coarse": ("linalg.eigh",)}),
        # Megabyte documents in and out (load_document, dump_json), and the
        # O(n^3) triangle loop of validate_metric; neither runs in "decide".
        Spec("cli", {"kernel": (10, (8, 8)), "metric": (10, (2, 1))}, build_cli,
             {"kernel": ("serialize.",), "metric": ("embedding.validate_metric",)}),
    )
}


class SetupFailure(RuntimeError):
    """Inputs could not be generated, or a warm-up operation raised."""


def prepare(spec: Spec, seed: int, workdir: Path) -> tuple[list[Op], float]:
    """One set-up: generate inputs, write documents, warm up one operation
    of each kind.  Returns the operations and the seconds it took."""
    t0 = time.perf_counter()
    try:
        ops = spec.build(spec, seed, workdir, Checker())
        seen = set()
        for op in ops:
            if op.kind not in seen:
                seen.add(op.kind)
                op.run()
    except Exception as exc:
        raise SetupFailure(f"{spec.name} set-up failed for seed {seed}: "
                           f"{type(exc).__name__}: {exc}") from exc
    return ops, time.perf_counter() - t0


@dataclass
class Loop:
    """Latencies of whole cycles of operations, and the failures.

    The end-to-end figures are taken over each position's floor (one input
    through one route or command): the median, over windows of ``WINDOW``
    consecutive cycles, of its fastest latency in each window.  On a shared
    two-core host the speed dropped by up to half, at times in stretches of
    seconds to minutes, at times as a slow state broken by brief fast
    moments.  A window's minimum passes over a slow stretch that does not
    fill the window, and the median over windows passes over a rare fast
    moment.  Over ten seeds, the fastest latency of the whole run spread up
    to 0.36 and figures pooled over every operation up to 0.34, each in one
    of those two states.  The pooled figures are kept as well.
    """

    size: int  # operations per cycle
    latencies: list[float] = field(default_factory=list)
    failures: dict[int, str] = field(default_factory=dict)  # op index -> why
    traced: list[bool] = field(default_factory=list)  # per cycle

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def timed(self) -> float:
        return math.fsum(self.latencies)

    def floors(self) -> list[float]:
        """Each position's median over windows of its fastest latency; a
        run shorter than a window is one window."""
        n = self.size
        floors = []
        for i in range(n):
            runs = self.latencies[i::n]
            w = min(WINDOW, len(runs))
            floors.append(statistics.median(
                min(runs[k:k + w]) for k in range(0, len(runs) - w + 1, w)))
        return floors

    def passed(self) -> float:
        """Share of the operations checked correct."""
        return 1.0 - len(self.failures) / self.attempted

    def throughput(self) -> float:
        """Operations checked correct per second, one cycle at its floors."""
        return self.passed() * self.size / math.fsum(self.floors())

    def latency(self, q: float) -> float:
        """Nearest-rank percentile of the positions' floors."""
        return percentile(self.floors(), q)

    def pooled_throughput(self) -> float:
        """Operations checked correct per second of timed wall time."""
        return self.passed() * self.attempted / self.timed

    def pooled_latency(self, q: float) -> float:
        """Nearest-rank percentile over every operation of the run."""
        return percentile(self.latencies, q)

    def cycles(self, traced: bool) -> Loop:
        """The loop made of only the traced, or only the untraced, cycles."""
        n = self.size
        part = Loop(n)
        for c, t in enumerate(self.traced):
            if t == traced:
                part.latencies += self.latencies[c * n:(c + 1) * n]
                part.traced.append(t)
        part.failures = {i: why for i, why in self.failures.items()
                         if self.traced[i // n] == traced}
        return part


def closed_loop(ops: list[Op], seconds: float, min_ops: int, tracer=None) -> Loop:
    """Run whole cycles of ``ops`` until ``seconds`` of timed wall time and
    ``min_ops`` operations are done.  With a ``tracer``, every second cycle runs
    traced: the package is wrapped for that cycle only, so traced and
    untraced cycles share the host's phases, and the run ends on an untraced
    and a traced cycle alike.  Checks run between operations, outside the
    timed region and outside any trace."""
    loop = Loop(len(ops))
    timed = 0.0
    c = 0
    while timed < seconds or loop.attempted < min_ops or (tracer is not None and c % 2):
        traced = tracer is not None and c % 2 == 1
        undo = install(tracer) if traced else None
        try:
            for op in ops:
                i = loop.attempted
                if traced:
                    tracer.op_id = i
                    tracer.kinds[i] = op.kind
                    tracer.expected[i] = op.expected
                    tracer.active = True
                t0 = time.perf_counter()
                try:
                    result = op.run()
                except Exception as exc:  # counted as a failed operation
                    result = exc
                dt = time.perf_counter() - t0
                if traced:
                    tracer.active = False
                    tracer.latency[i] = dt
                if isinstance(result, Exception):
                    why = f"unexpected {type(result).__name__}: {result}"
                else:
                    try:
                        why = op.check(result)
                    except (KeyError, TypeError, ValueError, IndexError) as exc:
                        why = f"malformed output: {type(exc).__name__}: {exc}"
                loop.latencies.append(dt)
                if why is not None:
                    loop.failures[i] = f"op {i} ({op.kind}): {why}"
                timed += dt
        finally:
            if undo is not None:
                undo()
        loop.traced.append(traced)
        c += 1
    return loop


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]
