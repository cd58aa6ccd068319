"""Steadiness runs: every workload under several seeds, with spreads.

Usage, from the root of a checkout::

    python3 perfbench/steadiness.py --seeds 10 [--workloads a,b] [--write]

Runs ``perfbench/run.py --trace 0`` once per seed and workload, one
after another, and prints for each end-to-end metric its median, its
quartiles and its spread (interquartile distance over median) against
the bound in ``BENCHMARK.json``.  ``--write`` also makes one traced run
per workload and records everything in ``perfbench/baseline.json``
next to each workload's description (:func:`describe`).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BASELINE = ROOT / "perfbench" / "baseline.json"


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def quartiles(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def describe(workload) -> dict:
    """What ``baseline.json`` records about a workload besides numbers."""
    from perfbench.bench import END_TO_END, per_layer_metrics

    specs = END_TO_END | per_layer_metrics()
    zero = sorted(name for name in specs
                  if any(name == z or (z.endswith(".*")
                                       and name.startswith(z[:-1]))
                         for z in workload.zero))
    return {
        "why": workload.why,
        "runs": [{"app": a.app, "params": a.params, "size_from_seed":
                  a.size_key, "topologies": [
                      {"label": t.label, "machine": getattr(
                          t.machine, "name", t.machine), "ngpus": t.ngpus}
                      for t in a.topologies]}
                 for a in workload.apps],
        "sanitize": workload.sanitize,
        "layers_loaded": list(workload.loads),
        "layers_bypassed": list(workload.bypasses),
        "predicted_zero": zero,
    }


def main(argv: list[str] | None = None) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.bench import END_TO_END
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]

    baseline = json.loads(BASELINE.read_text()) if BASELINE.exists() else {
        "workloads": {}}
    steady = True
    for name in args.workloads.split(","):
        results = []
        for seed in range(1, args.seeds + 1):
            results.append(run_once(name, seed, seconds, 0))
            print(f"{name} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}"
                for k, v in results[-1]["metrics"].items()), flush=True)
        stats = {}
        for metric in END_TO_END:
            stats[metric] = quartiles(
                [r["metrics"][metric]["value"] for r in results])
            ok = stats[metric]["spread"] <= bounds[metric] / 3
            # Set-up time is held to its bound by its median only.
            steady &= ok or metric == "setup_s"
            print(f"  {metric:16s} median {stats[metric]['median']:.6g} "
                  f"spread {stats[metric]['spread']:.4f} bound "
                  f"{bounds[metric]} {'ok' if ok else 'UNSTEADY'}")
        if args.write:
            traced = run_once(name, 1, seconds, 1)
            layers = {k: v["value"] for k, v in traced["metrics"].items()}
            baseline["workloads"][name] = describe(WORKLOADS[name]) | {
                "head": {"seeds": list(range(1, args.seeds + 1)),
                         "run_seconds": seconds,
                         "failed": sum(r["failed"] for r in results),
                         "attempted": sum(r["attempted"] for r in results),
                         "end_to_end": stats,
                         "per_layer_seed_1": layers}}
    if args.write:
        BASELINE.write_text(json.dumps(baseline, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
