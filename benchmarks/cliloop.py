"""cli: a closed loop of ``python -m circhad`` invocations, one at a time.

Each pass is one cycle over every subcommand the paper's tasks use, a
search that writes a shard ledger and the same search resuming from it,
and four malformed inputs that must end with exit code 2 and a message.
An invocation costs a few hundred milliseconds and the import dominates
it, so this is the only workload where start-up, argparse, the JSON
reports and ledger writes beside ledger reads carry weight.

A failed invocation is one with the wrong exit code, a JSON report that
disagrees with the library called in-process, or a Python traceback (a
crash, counted as failed but not as a wrong result).
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

from circhad import (
    BlockSequence,
    ChaseOutcome,
    IndexPair,
    SignSequence,
    block_decompose,
    cancellation_residual,
    chase,
    even_count,
    even_pairs_at_lag,
    find_book,
    find_matching,
    is_circulant_hadamard,
    is_symmetric_even,
    paf_spectrum,
    render_matching_lines,
)

from common import STARTUP, ItemTimer, Pass

LENGTHS = (16, 36, 64, 100)
INVOCATION_TIMEOUT_S = 60


def _random_row(rng: random.Random, L: int) -> SignSequence:
    return SignSequence.from_bits(L, rng.getrandbits(L))


def _chase_instance(rng: random.Random) -> tuple[BlockSequence, IndexPair]:
    """A random 18-block row with at least one valid chase start."""
    while True:
        bs = block_decompose(_random_row(rng, 36))
        evens = bs.even_indices()
        starts = [
            IndexPair(a, b)
            for a in evens
            if not is_symmetric_even(bs, a)
            for b in evens
            if b != a
        ]
        if starts:
            return bs, rng.choice(starts)


class CliLoop:
    cpus = 1

    def __init__(self, seed: int, smoke: bool, workdir: Path) -> None:
        root = Path(__file__).resolve().parent.parent
        self.cwd = root
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        rng = random.Random(f"cli-{seed}")
        lengths = LENGTHS[:2] if smoke else LENGTHS
        rows = [_random_row(rng, L) for L in lengths]
        rows.append(SignSequence.from_text("-+++").rotate(rng.randrange(4)))
        rng.shuffle(rows)
        self.rows = rows
        self.block_rows = [block_decompose(h) for h in rows]
        self.match_blocks = block_decompose(_random_row(rng, 36))
        self.chase_blocks, self.chase_start = _chase_instance(rng)
        bad = rows[0].text
        pos = rng.randrange(len(bad))
        self.bad_sign = bad[:pos] + rng.choice("x0* ") + bad[pos + 1:]
        self.bad_lag = len(self.match_blocks) + rng.randrange(1, 5)

        workdir.mkdir(parents=True, exist_ok=True)
        self.seqs_file = workdir / "seqs.txt"
        self.seqs_file.write_text("".join(h.text + "\n" for h in rows))
        self.blocks_file = workdir / "blocks.txt"
        self.blocks_file.write_text("".join(bs.text + "\n" for bs in self.block_rows))
        self.book_file = workdir / "book.txt"
        book = find_book(self.chase_blocks)
        self.book_file.write_text("\n".join(render_matching_lines(book)) + "\n")
        self.bad_matching_file = workdir / "bad-matching.txt"
        self.bad_matching_file.write_text(f"u=2: (0,2)~(2,4)\nu={rng.randrange(1, 9)}: (0,\n")
        self.ledger = workdir / "shards.ledger"
        self.torn_ledger = workdir / "torn.ledger"

    # -- one invocation ---------------------------------------------------

    def _invoke(self, run: Pass, tracer, item: int, span: str, argv: list[str],
                report: bool = True):
        """Run one invocation; return it and its JSON report when one is due."""
        with ItemTimer(run), tracer.span(span, item):
            try:
                proc = subprocess.run(
                    [sys.executable, "-m", "circhad", *argv],
                    cwd=self.cwd,
                    env=self.env,
                    capture_output=True,
                    text=True,
                    timeout=INVOCATION_TIMEOUT_S,
                )
            except subprocess.TimeoutExpired:
                proc = None
        if proc is None:
            run.fail(item, f"{span}: timed out", crashed=True)
            return None, None
        if "Traceback" in proc.stderr:
            last = proc.stderr.strip().splitlines()[-1]
            run.fail(item, f"{span}: crashed with {last}", crashed=True)
            return None, None
        if not report:
            return proc, None
        try:
            return proc, json.loads(proc.stdout)
        except json.JSONDecodeError:
            run.fail(item, f"{span}: no JSON report (exit code {proc.returncode})")
            return None, None

    def _expect(self, run: Pass, item: int, what: str, ok: bool) -> None:
        if not ok:
            run.fail(item, f"invocation {item}: {what}")

    # -- the cycle ----------------------------------------------------------

    def run_pass(self, tracer) -> Pass:
        run = Pass(kernel=STARTUP)
        steps = (
            self._verify, self._decompose, self._eqn1, self._match, self._chase,
            self._counterexample, self._search, self._ledger, self._malformed,
        )
        item = 0
        for step in steps:
            item = step(run, tracer, item)
        return run

    def _verify(self, run: Pass, tracer, item: int) -> int:
        argv = ["verify", "--format", "json", "--file", str(self.seqs_file)]
        proc, doc = self._invoke(run, tracer, item, "cli.verify", argv)
        if doc is not None:
            expected = []
            for h in self.rows:
                with tracer.span("seqcore.paf_spectrum", item):
                    spectrum = paf_spectrum(h)
                with tracer.span("seqcore.predicate", item):
                    hadamard = is_circulant_hadamard(h)
                expected.append({
                    "sequence": h.text,
                    "length": len(h),
                    "row_sum": h.row_sum(),
                    "paf_spectrum": list(spectrum),
                    "is_circulant_hadamard": hadamard,
                })
            code = 0 if all(e["is_circulant_hadamard"] for e in expected) else 1
            self._expect(run, item, "verify exit code", proc.returncode == code)
            self._expect(run, item, "verify report", doc["result"] == expected)
        return item + 1

    def _decompose(self, run: Pass, tracer, item: int) -> int:
        argv = ["decompose", "--format", "json", "--file", str(self.seqs_file)]
        proc, doc = self._invoke(run, tracer, item, "cli.decompose", argv)
        if doc is not None:
            expected = []
            for h in self.rows:
                with tracer.span("blockform.decompose", item):
                    bs = block_decompose(h)
                expected.append({
                    "sequence": h.text,
                    "blocks": bs.text,
                    "parities": [str(b.parity) for b in bs],
                    "even_count": even_count(bs),
                    "n": bs.n,
                    "even_blocks": [
                        {"index": i, "symmetric": is_symmetric_even(bs, i)}
                        for i in bs.even_indices()
                    ],
                })
            self._expect(run, item, "decompose exit code", proc.returncode == 0)
            self._expect(run, item, "decompose report", doc["result"] == expected)
        return item + 1

    def _eqn1(self, run: Pass, tracer, item: int) -> int:
        argv = ["eqn1", "--format", "json", "--file", str(self.blocks_file)]
        proc, doc = self._invoke(run, tracer, item, "cli.eqn1", argv)
        if doc is not None:
            holds = True
            for bs, entry in zip(self.block_rows, doc["result"]):
                for item_doc in entry["residuals"]:
                    with tracer.span("blockform.residual", item):
                        r = cancellation_residual(bs, item_doc["lag"])
                    holds &= r.is_zero
                    self._expect(
                        run, item, "eqn1 residual",
                        item_doc["matrix"] == [list(row) for row in r.rows()],
                    )
            self._expect(run, item, "eqn1 row count", len(doc["result"]) == len(self.block_rows))
            self._expect(run, item, "eqn1 exit code", proc.returncode == (0 if holds else 1))
        return item + 1

    def _match(self, run: Pass, tracer, item: int) -> int:
        bs = self.match_blocks
        argv = ["match", "--format", "json", "--", bs.text]
        proc, doc = self._invoke(run, tracer, item, "cli.match", argv)
        if doc is not None:
            perfect = []
            for entry in doc["result"]["lags"]:
                u = entry["lag"]
                with tracer.span("matchchase.find_matching", item):
                    found = find_matching(bs, u)
                pairs = [[[p.first, p.second], [q.first, q.second]] for p, q in found.pairs]
                self._expect(run, item, f"match pairs at lag {u}", entry["pairs"] == pairs)
                matched = set(found.index_pairs())
                perfect.append(all(p in matched for p in even_pairs_at_lag(bs, u)))
                self._expect(run, item, f"match perfect at lag {u}", entry["perfect"] == perfect[-1])
            self._expect(run, item, "match lag count", len(perfect) == len(bs) - 1)
            self._expect(run, item, "match exit code", proc.returncode == (0 if all(perfect) else 1))
        return item + 1

    def _chase(self, run: Pass, tracer, item: int) -> int:
        bs, start = self.chase_blocks, self.chase_start
        argv = [
            "chase", "--format", "json", "--matchings", str(self.book_file),
            "--start", f"{start.first},{start.second}", "--", bs.text,
        ]
        proc, doc = self._invoke(run, tracer, item, "cli.chase", argv)
        if doc is not None:
            with tracer.span("matchchase.find_book", item):
                book = find_book(bs)
            with tracer.span("matchchase.chase", item):
                trace = chase(bs, book, start)
            got = doc["result"]["trace"]
            self._expect(run, item, "chase outcome", got["outcome"] == str(trace.outcome))
            self._expect(run, item, "chase steps", len(got["steps"]) == len(trace.steps))
            code = 0 if trace.outcome in (ChaseOutcome.CYCLE, ChaseOutcome.DEGENERATE) else 1
            self._expect(run, item, "chase exit code", proc.returncode == code)
        return item + 1

    def _counterexample(self, run: Pass, tracer, item: int) -> int:
        argv = ["counterexample", "--format", "json"]
        proc, doc = self._invoke(run, tracer, item, "cli.counterexample", argv)
        if doc is not None:
            self._expect(run, item, "counterexample exit code", proc.returncode == 0)
            self._expect(run, item, "counterexample checks", doc["ok"] is True)
            outcome = doc["result"]["trace"]["outcome"]
            self._expect(run, item, "counterexample cycles", outcome == str(ChaseOutcome.CYCLE))
        return item + 1

    def _check_search(self, run: Pass, item: int, what: str, proc, doc) -> dict | None:
        if doc is None:
            return None
        result = doc["result"]
        self._expect(run, item, f"{what} exit code", proc.returncode == 0)
        self._expect(run, item, f"{what} finds nothing at order 16", result["solutions"] == [])
        self._expect(run, item, f"{what} complete", result["incomplete"] is False)
        return {k: result[k] for k in ("sequences_examined", "prune_cuts", "solutions")}

    def _search(self, run: Pass, tracer, item: int) -> int:
        argv = ["search", "--order", "16", "--format", "json"]
        proc, doc = self._invoke(run, tracer, item, "cli.search", argv)
        canonical = self._check_search(run, item, "search", proc, doc)
        if canonical is not None:
            run.counts["cli.search.examined"] = canonical["sequences_examined"]
            for prune, count in canonical["prune_cuts"].items():
                run.counts[f"cli.search.cuts.{prune}"] = count
        self.plain_search = canonical
        return item + 1

    def _ledger(self, run: Pass, tracer, item: int) -> int:
        self.ledger.unlink(missing_ok=True)
        argv = ["search", "--order", "16", "--format", "json", "--ledger", str(self.ledger)]
        for span in ("cli.search-ledger", "cli.search-resume"):
            proc, doc = self._invoke(run, tracer, item, span, argv)
            canonical = self._check_search(run, item, span, proc, doc)
            if canonical is not None:
                self._expect(run, item, f"{span} agrees with search", canonical == self.plain_search)
            item += 1
        return item

    def _torn_ledger(self) -> None:
        """The ledger just written, with its middle record torn as by a
        crash: the shard prefix kept, the status lost, later records after it."""
        lines = self.ledger.read_text(encoding="utf-8").splitlines() if self.ledger.exists() else []
        if len(lines) >= 3:
            middle = len(lines) // 2
            lines[middle] = lines[middle].split()[0]
        self.torn_ledger.write_text("".join(line + "\n" for line in lines), encoding="utf-8")

    def _malformed(self, run: Pass, tracer, item: int) -> int:
        self._torn_ledger()
        cases = (
            ["verify", "--format", "json", "--", self.bad_sign],
            ["match", "--format", "json", "--matchings", str(self.bad_matching_file),
             "--", self.match_blocks.text],
            ["eqn1", "--format", "json", "--lag", str(self.bad_lag), "--", self.match_blocks.text],
            ["search", "--order", "16", "--format", "json", "--ledger", str(self.torn_ledger)],
        )
        for argv in cases:
            proc, _ = self._invoke(run, tracer, item, "cli.malformed", argv, report=False)
            if proc is not None:
                self._expect(run, item, f"{argv[0]} on malformed input exits 2", proc.returncode == 2)
                self._expect(run, item, f"{argv[0]} explains the error", bool(proc.stderr.strip()))
            item += 1
        return item

    def layer_values(self, tracer, traced: list[Pass]) -> dict[str, float]:
        by_name = tracer.by_name()
        values = {}
        for name, (count, total) in by_name.items():
            if name.startswith("cli."):
                values[f"cli.invocation_ms.{name[4:]}"] = total / count * 1e3
        values["searcher.ledger_resume_ms"] = values.pop("cli.invocation_ms.search-resume")
        return values
