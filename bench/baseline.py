"""Run every workload on two sets of ten seeds and summarise each metric.

    python3 bench/baseline.py --output bench/BENCH_<n>.json

It runs ``run.py`` with tracing off once per seed: seeds 1-10 on every
workload, then seeds 11-20 on every workload.  For each set and end-to-end
metric it records the ten values, their median, quartiles
(``statistics.quantiles(values, n=4)``) and the spread: the distance between
the quartiles as a share of the median.  It does the same for the unscaled
medians each run prints in its ``meta`` line.  It then records how much worse
the second set's median is than the first's, against the metric's bound, and
makes one traced run per workload (seed 1).  Use the same script on both
commits when comparing a change with its parent.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
SEED_SETS = (range(1, 11), range(11, 21))


def run(workload, seed, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(BENCHMARK["run_seconds"]), "--trace", str(trace)]
    t0 = time.perf_counter()
    done = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=900)
    meta = json.loads(next(l for l in done.stdout.splitlines() if l.startswith("meta "))[5:])
    meta["run_wall_s"] = time.perf_counter() - t0
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect result\n{done.stderr}")
    return result, meta


def summarise(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def run_set(workload, seeds):
    values, unscaled, metas = {}, {}, []
    for seed in seeds:
        result, meta = run(workload, seed, 0)
        metas.append(meta)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        for name, v in meta["unscaled"].items():
            unscaled.setdefault(name, []).append(v)
    return {
        "seeds": list(seeds),
        "run_wall_s": [m["run_wall_s"] for m in metas],
        "end_to_end": {name: summarise(v) for name, v in values.items()},
        "unscaled": {name: summarise(v) for name, v in unscaled.items()},
    }, metas[0]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--output", type=Path, help="write the summary here as JSON")
    args = parser.parse_args()

    metrics = {m["name"]: m for m in BENCHMARK["end_to_end"]}
    summary = {"run_seconds": BENCHMARK["run_seconds"], "workloads": {w: {"sets": []} for w in WORKLOADS}}
    for k, seeds in enumerate(SEED_SETS, 1):
        for workload in WORKLOADS:
            entry = summary["workloads"][workload]
            stats, meta = run_set(workload, seeds)
            entry["sets"].append(stats)
            entry["meta"] = {k: meta[k] for k in ("python", "git_sha", "nproc", "machine", "problem_sizes")}
            for name, s in stats["end_to_end"].items():
                flag = "" if name == "setup_s" or s["spread"] < metrics[name]["bound"] / 3 else "  <-- above bound/3"
                print(f"set {k} {workload:15s} {name:14s} median {s['median']:12.4f}"
                      f"  spread {s['spread']:.4f}  bound {metrics[name]['bound']}{flag}", flush=True)
    for workload in WORKLOADS:
        entry = summary["workloads"][workload]
        first, second = (s["end_to_end"] for s in entry["sets"])
        entry["agreement"] = {}
        for name, m in metrics.items():
            ratio = second[name]["median"] / first[name]["median"]
            worse = ratio - 1 if m["better"] == "lower" else 1 - ratio
            entry["agreement"][name] = {"worse_by": worse, "bound": m["bound"], "ok": worse <= m["bound"]}
            print(f"agree {workload:15s} {name:14s} second/first {ratio:.4f}"
                  f"{'' if worse <= m['bound'] else '  <-- worse than bound'}", flush=True)
        result, meta = run(workload, 1, 1)
        entry["per_layer_seed1"] = {k: m["value"] for k, m in result["metrics"].items()}
        entry["traced_run_wall_s"] = meta["run_wall_s"]
    if args.output:
        args.output.write_text(json.dumps(summary, indent=1) + "\n")


if __name__ == "__main__":
    main()
