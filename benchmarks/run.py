"""circhad benchmark: one workload per run, stdlib only.

    python3 benchmarks/run.py --workload census --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --smoke

Run from the repository root; the program is imported from ``src/``.
A run sets up, then repeats passes over the workload's fixed work for
``--seconds`` seconds, checks every output, and prints one JSON object as
its last line: ``correct``, ``attempted``, ``failed`` and ``metrics``.

* ``--trace 0`` gives the end-to-end metrics named in BENCHMARK.json,
  measured with tracing off and scaled to a reference machine speed (see
  common.py).  Each item of the fixed work (census job, blockview row,
  cli invocation) keeps its median time over the passes; ``wall_s`` is
  their sum, ``item_ms_p50`` and ``item_ms_p90`` their percentiles.
  ``setup_s`` is the median over several fresh interpreters that each
  import circhad and build the inputs.  The lines before the result also
  give the fastest unscaled pass.
* ``--trace 1`` alternates untraced and traced passes and gives the
  per-layer metrics: mean time per call into each layer, self time per
  layer per pass, exact counts, and the tracing overhead (``wall_s`` of
  the traced passes minus ``wall_s`` of the untraced ones).  Its spans
  are written to ``.bench_out/spans-<workload>-seed<seed>.tsv.gz``.  A
  per-layer metric reads 0 on a workload that never calls that layer.
* ``--smoke`` runs every workload on a small input, one untraced and one
  traced pass each, and checks that every metric in BENCHMARK.json is
  printed with its unit and that each per-layer metric is measured on at
  least one workload.

``failed`` counts items (census jobs, blockview rows, cli invocations)
whose output was wrong or that crashed.  ``correct`` is false when some
output was wrong, as opposed to a crash, or when exact counts differed
between two passes over the same work.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter

from common import STARTUP
from tracing import NULL_TRACER, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 11
PROBE_TIMEOUT_S = 60


def _workload_class(name: str):
    if name == "census":
        from census import Census
        return Census
    if name == "blockview":
        from blockview import Blockview
        return Blockview
    if name == "cli":
        from cliloop import CliLoop
        return CliLoop
    raise KeyError(name)


# ---------------------------------------------------------------------------
# set-up: a fresh interpreter imports circhad and builds the inputs


def probe_setup(workload: str, seed: int, smoke: bool) -> None:
    """Body of one set-up probe; prints the import time it measured."""
    started = perf_counter()
    import circhad  # noqa: F401  (the import is what is timed)
    import_s = perf_counter() - started
    workdir = OUT / f"probe-{workload}-{seed}-{os.getpid()}"
    try:
        _workload_class(workload)(seed, smoke, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"import_ms": import_s * 1e3}))


def measure_setup(workload: str, seed: int, probes: int, smoke: bool) -> tuple[float, float]:
    """Median time of a set-up probe subprocess at the reference speed, and
    the median import time the probes measured (unscaled); one unmeasured
    probe runs first."""
    argv = [sys.executable, str(HERE / "run.py"), "--probe-setup",
            "--workload", workload, "--seed", str(seed)]
    if smoke:
        argv.append("--smoke")
    scaled, imports = [], []
    for k in range(probes + 1):
        before = STARTUP.time()
        started = perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, check=True)
        wall = perf_counter() - started
        after = STARTUP.time()
        if k:
            scaled.append(wall * STARTUP.ref_s * 2 / (before + after))
            imports.append(json.loads(proc.stdout.splitlines()[-1])["import_ms"])
    return median(scaled), median(imports)


# ---------------------------------------------------------------------------
# the measured loop


@dataclass
class Result:
    end_to_end: dict[str, float] = field(default_factory=dict)
    per_layer: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    correct: bool = True
    problems: list[str] = field(default_factory=list)
    fastest_unscaled_pass_s: float = 0.0


def _check_repeats(workload, passes, result: Result) -> None:
    """Exact counts must repeat bit for bit between passes over the same
    work; after a single pass, the work is run once more, untimed."""
    others = passes[1:] or [workload.run_pass(NULL_TRACER)]
    for k, p in enumerate(others, start=1):
        if p.counts != passes[0].counts:
            result.failed += 1
            result.correct = False
            result.problems.append(f"exact counts of pass {k} differ from pass 0")


def measure(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
            probes: int) -> Result:
    # one CPU, as the kernel must run where the timed work runs; census
    # gets a second one for its two-worker job
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, cpus[:1])
    setup_s, import_ms = measure_setup(name, seed, probes, smoke)
    workdir = OUT / f"work-{name}-{seed}-{os.getpid()}"
    tracer = Tracer() if trace else None
    try:
        workload = _workload_class(name)(seed, smoke, workdir)
        os.sched_setaffinity(0, cpus[:workload.cpus])
        passes, traced_flags = [], []
        min_passes = 2 if trace else 1
        started = perf_counter()
        index = 0
        while index < min_passes or (
            not smoke and (perf_counter() - started < seconds or (trace and index % 2))
        ):
            traced = trace and index % 2 == 1
            p = workload.run_pass(tracer if traced else NULL_TRACER)
            p.calibrate()
            passes.append(p)
            traced_flags.append(traced)
            index += 1

        result = Result()
        for p in passes:
            result.attempted += p.attempted
            result.failed += p.failed
            result.correct &= not p.wrong
            result.problems.extend(p.problems)
        _check_repeats(workload, passes, result)

        # times at the reference speed (see common.py); each item keeps its
        # median over the passes
        plain = [passes[k] for k, t in enumerate(traced_flags) if not t]
        items = _typical_items(plain)
        deciles = quantiles(items, n=10) if len(items) > 1 else items * 9
        result.end_to_end = {
            "wall_s": sum(items),
            "setup_s": setup_s,
            "item_ms_p50": median(items) * 1e3,
            "item_ms_p90": deciles[8] * 1e3,
        }
        result.fastest_unscaled_pass_s = min(sum(p.item_seconds) for p in plain)
        if trace:
            traced = [passes[k] for k, t in enumerate(traced_flags) if t]
            traced_wall = sum(_typical_items(traced))
            result.per_layer = _layer_values(workload, tracer, passes, traced)
            result.per_layer["cli.import_ms"] = import_ms
            result.per_layer["trace.overhead_s"] = traced_wall - result.end_to_end["wall_s"]
            tracer.write(OUT / f"spans-{name}-seed{seed}.tsv.gz")
        return result
    finally:
        os.sched_setaffinity(0, cpus)
        shutil.rmtree(workdir, ignore_errors=True)


def _typical_items(passes) -> list[float]:
    """Each item's median scaled time over the passes, in ascending order."""
    return sorted(map(median, zip(*(p.scaled_items() for p in passes))))


def _layer_values(workload, tracer, passes, traced) -> dict[str, float]:
    n = len(traced)
    values: dict[str, float] = dict(passes[0].counts)
    for span, (count, total) in tracer.by_name().items():
        values[f"{span}_us"] = total / count * 1e6
    for layer, seconds in tracer.self_seconds_by_layer().items():
        values[f"self_s.{layer}"] = seconds / n
    values["trace.spans"] = len(tracer) / n
    values.update(workload.layer_values(tracer, traced))
    return values


# ---------------------------------------------------------------------------
# output


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _select(values: dict[str, float], metrics: list[dict]) -> dict[str, dict]:
    return {
        m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
        for m in metrics
    }


def _print_table(title: str, metrics: dict[str, dict]) -> None:
    print(title)
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:>16.6g} {m['unit']}")


def run_one(args) -> int:
    spec = _spec()
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                     smoke=False, probes=SETUP_PROBES)
    if args.trace:
        metrics = _select(result.per_layer, spec["per_layer"])
    else:
        metrics = _select(result.end_to_end, spec["end_to_end"])
    _print_table(f"{args.workload} seed={args.seed} trace={args.trace}", metrics)
    print(f"  fail ratio {result.failed}/{result.attempted}")
    print(f"  fastest unscaled pass {result.fastest_unscaled_pass_s:.6g} s")
    for problem in result.problems[:20]:
        print(f"  problem: {problem}")
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0


def run_smoke(seed: int) -> int:
    spec = _spec()
    missing = []
    measured = set()
    ok = True
    for w in spec["workloads"]:
        result = measure(w["name"], seed, 0.0, trace=True, smoke=True, probes=1)
        for kind in ("end_to_end", "per_layer"):
            _print_table(f"{w['name']} {kind}", _select(getattr(result, kind), spec[kind]))
        missing += [f"{w['name']}: {m['name']} reads 0" for m in spec["end_to_end"]
                    if not result.end_to_end.get(m["name"])]
        measured |= {name for name, v in result.per_layer.items() if v}
        print(f"  correct={result.correct} fail ratio {result.failed}/{result.attempted}")
        for problem in result.problems[:20]:
            print(f"  problem: {problem}")
        ok &= result.correct and result.attempted > 0
    missing += [f"per_layer: {m['name']} reads 0 on every workload"
                for m in spec["per_layer"] if m["name"] not in measured]
    for line in missing:
        print(f"missing metric: {line}")
    ok &= not missing
    print(json.dumps({"smoke": "pass" if ok else "fail", "missing": missing}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("census", "blockview", "cli"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "circhad" / "__init__.py").is_file():
        print(f"error: no circhad sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.probe_setup:
        probe_setup(args.workload, args.seed, args.smoke)
        return 0
    if args.smoke:
        return run_smoke(args.seed)
    if args.workload is None:
        parser.error("--workload is required")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
