"""Record a baseline: every workload over several seeds, plus one traced run.

    python3 benchmarks/record.py --runs 10 --out benchmarks/baseline.json

Runs the BENCHMARK.json command one process at a time from the repository
root, with seeds 1 to ``--runs``.  For each end-to-end metric it stores
the values, their median and quartiles and the spread (interquartile
range over median), and flags a spread above a third of the metric's
bound.  The traced run of each
workload gives the per-layer values.  The machine, the Python version,
the CPU count and the git commit go in beside the numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 180


def _run(spec: dict, workload: str, seed: int, trace: int) -> dict:
    argv = [*spec["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    argv[0] = sys.executable if argv[0] == "python3" else argv[0]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S, check=True)
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"seed": seed, "correct": doc["correct"], "attempted": doc["attempted"],
            "failed": doc["failed"],
            "metrics": {k: v["value"] for k, v in doc["metrics"].items()}}


def _commit() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _machine() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "commit": _commit(),
        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def summarize(values: list[float], bound: float) -> dict:
    q1, _, q3 = quantiles(values, n=4)
    mid = median(values)
    spread = (q3 - q1) / mid
    return {"median": mid, "q1": q1, "q3": q3, "spread": spread,
            "within_third_of_bound": spread <= bound / 3}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seeds = range(1, args.runs + 1)
    doc = {"machine": _machine(), "run_seconds": spec["run_seconds"], "workloads": {}}
    for name in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in seeds:
            runs.append(_run(spec, name, seed, 0))
            print(name, json.dumps(runs[-1]), flush=True)
        entry = {
            "runs": runs,
            "end_to_end": {
                m["name"]: summarize([r["metrics"][m["name"]] for r in runs], m["bound"])
                for m in spec["end_to_end"]
            },
            "fail_ratio": sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs),
        }
        entry["traced"] = _run(spec, name, seeds[0], 1)
        doc["workloads"][name] = entry
        for metric, s in entry["end_to_end"].items():
            print(f"{name:10} {metric:14} median {s['median']:.6g} spread {s['spread']:.4f}"
                  f"{'' if s['within_third_of_bound'] else '  (above a third of its bound)'}")
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
