"""Tests of the benchmark harness itself.

    python3 benchmarks/test_harness.py        (or: python3 -m pytest benchmarks)

They run every workload on a small input, check that every metric named
in BENCHMARK.json is printed with its unit, that exact counts repeat bit
for bit between two runs with one seed, that self time is computed from
the span tree, and that the harness refuses a directory without sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RUN_TIMEOUT_S = 170


def _run(*argv: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", *argv],
        cwd=cwd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )


def _last_json(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


class TestSmoke(unittest.TestCase):
    def test_every_metric_is_printed_with_its_unit(self):
        proc = _run("--smoke")
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertEqual(_last_json(proc), {"smoke": "pass", "missing": []})
        for w in SPEC["workloads"]:
            for kind in ("end_to_end", "per_layer"):
                self.assertIn(f"{w['name']} {kind}", proc.stdout)
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertRegex(proc.stdout, rf"\n  {m['name']} +\S+ {m['unit']}\n")


class TestRunContract(unittest.TestCase):
    def test_exact_counts_repeat_between_runs_with_one_seed(self):
        counted = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"
                   and m["name"] != "trace.spans"]
        for workload in ("blockview", "census"):
            docs = []
            for _ in range(2):
                proc = _run("--workload", workload, "--seed", "7", "--seconds", "0.1",
                            "--trace", "1")
                self.assertEqual(proc.returncode, 0, proc.stderr)
                docs.append(_last_json(proc))
            for doc in docs:
                self.assertTrue(doc["correct"])
                self.assertEqual(doc["failed"], 0)
                self.assertEqual(set(doc["metrics"]), {m["name"] for m in SPEC["per_layer"]})
            first, second = ({k: d["metrics"][k]["value"] for k in counted} for d in docs)
            self.assertEqual(first, second, workload)
            self.assertTrue(any(first.values()), workload)

    def test_refuses_a_directory_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            bare = Path(tmp)
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, bare / "benchmarks",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = _run("--workload", "census", "--seed", "1", "--seconds", "1",
                        "--trace", "0", cwd=bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("metrics", proc.stdout)


class TestTracer(unittest.TestCase):
    def test_self_time_subtracts_direct_children(self):
        tracer = Tracer()
        with tracer.span("harness.row", 3):
            with tracer.span("blockform.decompose", 3):
                with tracer.span("seqcore.paf", 3):
                    pass
            with tracer.span("matchchase.chase", 3):
                pass
        # rewrite the clock readings: row 0-10, decompose 1-5, paf 2-3, chase 6-8
        tracer.starts[:] = tracer.starts.__class__("d", [0.0, 1.0, 2.0, 6.0])
        tracer.ends[:] = tracer.ends.__class__("d", [10.0, 5.0, 3.0, 8.0])
        self.assertEqual(
            tracer.self_seconds_by_layer(),
            {"harness": 4.0, "blockform": 3.0, "seqcore": 1.0, "matchchase": 2.0},
        )
        self.assertEqual(list(tracer.parent_of), [-1, 0, 1, 0])
        self.assertEqual(tracer.seconds_by_item("blockform."), {3: 4.0})
        self.assertEqual(tracer.by_name()["matchchase.chase"], (1, 2.0))


if __name__ == "__main__":
    unittest.main()
