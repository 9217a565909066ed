"""Run the benchmark over several seeds and summarise its spread.

    python3 perfbench/collect.py --seeds 1-10
    python3 perfbench/collect.py --seeds 1-10 --traced --out perfbench/baseline.json

For each workload and end-to-end metric it prints the median of the runs and
the spread, the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
the metric's bound from ``BENCHMARK.json``.  A spread above a third of the
bound is flagged.  With ``--traced`` it adds one traced run per workload at
the first seed; ``--out`` writes everything, with the environment, as JSON.
Runs are sequential, one child process at a time.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

import run as bench

CONTRACT = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run(workload: str, seed: int, trace: int) -> dict:
    """One benchmark run; returns the record it wrote."""
    lines, result, record = bench.child(workload, seed, CONTRACT["run_seconds"], bool(trace))
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect output\n" + "\n".join(lines))
    return record


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--workloads", default=",".join(w["name"] for w in CONTRACT["workloads"]))
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    summary = {"default_seed": bench.DEFAULT_SEED, "held_out_seed": bench.HELD_OUT_SEED,
               "seeds": args.seeds, "run_seconds": CONTRACT["run_seconds"], "workloads": {}}
    steady = True
    for workload in args.workloads.split(","):
        records = [run(workload, s, 0) for s in args.seeds]
        summary["env"] = records[0]["env"]
        entry = {"end_to_end": {}, "attempted": [r["attempted"] for r in records],
                 "error_rate": max(r["error_rate"] for r in records)}
        print(f"{workload}  (error_rate {entry['error_rate']}, "
              f"operations per run {min(entry['attempted'])}-{max(entry['attempted'])})")
        for metric in CONTRACT["end_to_end"]:
            name = metric["name"]
            stats = spread([r["metrics"][name]["value"] for r in records])
            stats["unit"] = metric["unit"]
            entry["end_to_end"][name] = stats
            flag = ""
            if stats["spread"] > metric["bound"] / 3:
                flag = "  > bound/3"
                steady = False
            print(f"  {name:<18} median {stats['median']:>10.4g} {metric['unit']:<6} "
                  f"spread {stats['spread']:.4f}  bound {metric['bound']}{flag}")
        if args.traced:
            traced = run(workload, args.seeds[0], 1)
            entry["traced"] = {"seed": args.seeds[0], "metrics": traced["metrics"],
                               "layers": traced["layers"]}
            shares = {k: v["value"] for k, v in traced["layers"].items()
                      if k.startswith(("share.", "focus."))}
            print("  " + "  ".join(f"{k} {v:.3f}" for k, v in shares.items()))
        summary["workloads"][workload] = entry
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    print("steady" if steady else "NOT steady: a spread exceeds a third of its bound")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
