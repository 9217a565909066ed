"""Benchmark for cpdkernels: closed-loop workloads with a single client.

Run from the root of a checkout:

    python3 perfbench/run.py --workload decide --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all   # every workload, one child process each

Workloads (see ``workloads.py`` for why each exists): ``decide`` and ``cli``.

With ``--trace 0`` a run reports the end-to-end metrics:

* ``throughput_ops_s``: operations checked correct per second, for one
  cycle of operations each at its floor;
* ``latency_p50_ms``, ``latency_p90_ms``: nearest-rank percentiles of the
  floors;
* ``setup_s``: import time plus the fastest of three set-ups (input
  generation, writing documents, one warm-up operation of each kind), two
  before the timed loop and one after it;
* ``peak_rss_mib``: peak resident memory of the process.

An operation's floor is the median, over windows of three consecutive
cycles, of its fastest wall time in each window (``workloads.Loop`` gives
the reason); ``samples=`` gives the number of floors, one per operation of
a cycle.  The same three figures pooled over every operation of the run (at
least 100, so at least ten lie beyond p90) are printed and recorded as
``pooled.*``.

``error_rate`` (failed / attempted operations) is printed and recorded; the
last line carries the same counts as ``attempted`` and ``failed``.

With ``--trace 1`` every second cycle of operations runs with the package
wrapped by ``spans.py``, the others untraced.  It reports per-layer metrics
per traced operation, each layer's share of the time, ``focus.<part>.share``
for the layers each part of the workload was chosen for, and
``trace.overhead``, the loss of throughput of the traced cycles against the
untraced ones, each at its floors.  A layer's metrics are printed and
recorded wherever the layer ran; the last line holds those that
``BENCHMARK.json`` lists, which run in every workload.

The default seed is 1.  Seed 9001 was held out: no run used it while the
benchmark was built, so a later claim can be checked on it as well.

Every run pins BLAS to one thread, prints the environment, writes its full
record to ``perfbench/out/`` and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}`` holding the metrics that
``BENCHMARK.json`` lists for the mode.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
DEFAULT_SEED = 1
HELD_OUT_SEED = 9001  # for checking later claims; no run used it while building
SETUP_REPS = 3
WORKLOADS = ("decide", "cli")


def load_package() -> float:
    """Import the package from this checkout's ``src/``; returns the seconds
    the imports took."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    try:
        import cpdkernels
        import workloads  # noqa: F401  (imports numpy and the whole package)
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import cpdkernels from {src}: {exc}")
    elapsed = time.perf_counter() - t0
    if Path(cpdkernels.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"perfbench: cpdkernels was imported from {cpdkernels.__file__}, "
                         f"not from {src}")
    return elapsed


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "commit": commit,
    }


def untraced(spec, seed: int, seconds: float, workdir: Path, import_s: float):
    import workloads as wl

    reps = []
    for _ in range(SETUP_REPS - 1):
        ops, dt = wl.prepare(spec, seed, workdir)
        reps.append(dt)
    loop = wl.closed_loop(ops, seconds, wl.MIN_OPS)
    # The last set-up runs after the loop, so that the fastest one is taken
    # over the whole run, not over a few seconds in which the host may be
    # slow throughout.  The loop's inputs are dropped first, so that the
    # peak memory is not raised by two sets of inputs held at once.
    del ops
    reps.append(wl.prepare(spec, seed, workdir)[1])
    n, pooled = loop.size, loop.attempted
    metrics = {
        "throughput_ops_s": (loop.throughput(), "ops/s", n),
        "latency_p50_ms": (1e3 * loop.latency(0.5), "ms", n),
        "latency_p90_ms": (1e3 * loop.latency(0.9), "ms", n),
        "setup_s": (import_s + min(reps), "s", SETUP_REPS),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB", 1),
        "pooled.throughput_ops_s": (loop.pooled_throughput(), "ops/s", pooled),
        "pooled.latency_p50_ms": (1e3 * loop.pooled_latency(0.5), "ms", pooled),
        "pooled.latency_p90_ms": (1e3 * loop.pooled_latency(0.9), "ms", pooled),
    }
    return loop, metrics, {}


def traced(spec, seed: int, seconds: float, workdir: Path):
    import workloads as wl
    from spans import Tracer, install, layer_metrics

    tracer = Tracer()
    undo = install(tracer)
    tracer.active = True  # op_id -1: the set-up
    try:
        ops, _ = wl.prepare(spec, seed, workdir)
    finally:
        tracer.active = False
        undo()
    loop = wl.closed_loop(ops, seconds, wl.MIN_OPS, tracer)
    base, under = loop.cycles(traced=False), loop.cycles(traced=True)
    layers = layer_metrics(tracer, spec.focus)
    layers["trace.overhead"] = (1.0 - under.throughput() / base.throughput(), "ratio")
    tracer.save(OUT / f"trace-{spec.name}.npz")
    metrics = {
        "throughput_ops_s": (base.throughput(), "ops/s", base.size),
        "trace.throughput_ops_s": (under.throughput(), "ops/s", under.size),
    }
    return loop, metrics, layers


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    import_s = load_package()
    import workloads as wl

    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    spec = wl.SPECS[name]
    env = environment()
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    sizes = " ".join(f"{k}:n={n},summands={list(d)}" for k, (n, d) in spec.sizes.items())
    print(f"workload {name} seed={seed} {sizes} seconds={seconds} trace={int(trace)}")
    OUT.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=OUT, prefix=f"docs-{name}-") as tmp:
            if trace:
                loop, metrics, layers = traced(spec, seed, seconds, Path(tmp))
            else:
                loop, metrics, layers = untraced(spec, seed, seconds, Path(tmp), import_s)
    except wl.SetupFailure as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    failed = len(loop.failures)
    for key, (value, unit, samples) in metrics.items():
        print(f"  {key:<24} {value:>14.6g} {unit:<6} samples={samples}")
    print(f"  {'error_rate':<24} {failed / loop.attempted:>14.6g} ratio  "
          f"({failed} of {loop.attempted} operations)")
    for key, (value, unit) in layers.items():
        print(f"  {key:<36} {value:>14.6g} {unit}")
    for why in list(loop.failures.values())[:10]:
        print(f"  FAILED {why}")

    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "sizes": {k: {"n": n, "summands": list(d)} for k, (n, d) in spec.sizes.items()},
        "env": env,
        "metrics": {k: {"value": v, "unit": u, "samples": s} for k, (v, u, s) in metrics.items()},
        "error_rate": failed / loop.attempted,
        "attempted": loop.attempted,
        "failures": list(loop.failures.values())[:50],
        "latencies": loop.latencies,
        "layers": {k: {"value": v, "unit": u} for k, (v, u) in layers.items()},
    }
    (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")

    wanted = contract["per_layer" if trace else "end_to_end"]
    source = layers if trace else {k: (v, u) for k, (v, u, _) in metrics.items()}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": loop.attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": source[m["name"]][0], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


def child(name: str, seed: int, seconds: float, trace: bool) -> tuple[list[str], dict, dict]:
    """Run one workload in a child process.  Returns its standard output
    lines, its result (the last line) and the record it wrote; exits with
    the child's code if it failed."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
        raise SystemExit(proc.returncode or 1)
    record = OUT / f"{name}-seed{seed}-trace{int(trace)}.json"
    return lines, json.loads(lines[-1]), json.loads(record.read_text(encoding="utf-8"))


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own child process, so memory peaks stay apart."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        lines, result, _ = child(name, seed, seconds, trace)
        print("\n".join(lines[:-1]))
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
