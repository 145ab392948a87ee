"""blockview: the paper's 2-block analysis on a seeded batch of rows.

Each pass runs the same batch of 96 rows: 32 at each of L = 16 and 36,
16 at each of L = 64 and 100, so that the median row is an L = 36 row and
the 90th-percentile row an L = 100 row, not the edge between two lengths.
For every row it computes the PAF spectrum and the predicate,
decomposes and recomposes, takes the cancellation residual at every lag,
finds the matching book and validates each matching, and chases from
every even-even start whose first block is not symmetric.  seqcore,
blockform and matchchase do the work and the searcher is idle.  Mixing
the lengths exposes the O(L^2) residual and book cost: the longest rows
set the tail of the row times.

Rows are drawn with exactly n of their 2n blocks even, so paf(h, 2n) = 0
as for a circulant Hadamard row, and with n - 2*(n//4) even blocks that
have no even partner half a turn away.  Every row of one length then asks
for the same number of chases, and seeds differ in where the blocks sit,
their signs and where the chases lead, not in how much chasing there is.
"""

from __future__ import annotations

import random

from circhad import (
    ChaseOutcome,
    IndexPair,
    SignSequence,
    block_decompose,
    cancellation_residual,
    chase,
    even_count,
    find_book,
    is_circulant_hadamard,
    is_symmetric_even,
    paf_spectrum,
    recompose,
    validate_matching,
)

from common import ItemTimer, Pass

# row length -> rows per batch
LENGTHS = {16: 32, 36: 32, 64: 16, 100: 16}
OUTCOMES = {
    ChaseOutcome.CYCLE: "matchchase.outcome.cycle",
    ChaseOutcome.MATCHING_UNAVAILABLE: "matchchase.outcome.unavailable",
    ChaseOutcome.DEGENERATE: "matchchase.outcome.degenerate",
}


def candidate_row(rng: random.Random, L: int) -> SignSequence:
    """A row of length L = 4n with the block profile described above."""
    n = L // 4
    both = n // 4
    kinds = [2] * both + [1] * (n - 2 * both) + [0] * both
    rng.shuffle(kinds)
    entries = [0] * L
    for d, kind in enumerate(kinds):
        evens = {2: (True, True), 0: (False, False)}.get(kind) or rng.choice(
            ((True, False), (False, True)))
        for j, even in zip((d, d + n), evens):
            diag = rng.choice((1, -1))
            entries[j] = diag
            entries[j + 2 * n] = diag if even else -diag
    return SignSequence(entries)


def make_batch(seed: int, smoke: bool) -> list[SignSequence]:
    rng = random.Random(f"blockview-{seed}")
    rows = [candidate_row(rng, L) for L, count in LENGTHS.items()
            for _ in range(1 if smoke else count)]
    rng.shuffle(rows)
    return rows


class Blockview:
    cpus = 1

    def __init__(self, seed: int, smoke: bool, workdir) -> None:
        self.rows = make_batch(seed, smoke)

    def run_pass(self, tracer) -> Pass:
        run = Pass()
        counts = dict.fromkeys(OUTCOMES.values(), 0)
        counts["matchchase.chase_steps"] = 0
        for item, h in enumerate(self.rows):
            with ItemTimer(run), tracer.span("harness.row", item):
                self._row(run, tracer, item, h, counts)
        run.counts = counts
        return run

    def _row(self, run: Pass, tracer, item: int, h: SignSequence, counts: dict) -> None:
        L = len(h)
        n = L // 4
        with tracer.span("seqcore.paf_spectrum", item):
            spectrum = paf_spectrum(h)
        with tracer.span("seqcore.predicate", item):
            hadamard = is_circulant_hadamard(h)
        if hadamard != spectrum.off_peak_zero():
            run.fail(item, f"row {item}: predicate disagrees with the spectrum")
        with tracer.span("blockform.decompose", item):
            bs = block_decompose(h)
        with tracer.span("blockform.recompose", item):
            back = recompose(bs)
        if back != h:
            run.fail(item, f"row {item}: recompose(block_decompose(h)) != h")
        if spectrum[2 * n] != 4 * even_count(bs) - 4 * n:
            run.fail(item, f"row {item}: paf(h, 2n) != 4*even_count - 4n")
        for u in range(1, 2 * n):
            with tracer.span("blockform.residual", item):
                residual = cancellation_residual(bs, u)
            expected = (spectrum[u] + spectrum[u + 2 * n]) // 2
            if residual.diag != expected or residual.offdiag != expected:
                run.fail(item, f"row {item}: residual at lag {u} is not {expected}*J")
        with tracer.span("matchchase.find_book", item):
            book = find_book(bs)
        for m in book.matchings():
            with tracer.span("matchchase.validate", item):
                verdict = validate_matching(bs, m)
            if not verdict.ok:
                run.fail(item, f"row {item}: matching at lag {m.lag} is invalid")
        with tracer.span("blockform.starts", item):
            evens = bs.even_indices()
            firsts = [a for a in evens if not is_symmetric_even(bs, a)]
        for a in firsts:
            for b in evens:
                if b == a:
                    continue
                with tracer.span("matchchase.chase", item):
                    trace = chase(bs, book, IndexPair(a, b))
                counts["matchchase.chase_steps"] += len(trace.steps)
                if trace.outcome not in OUTCOMES:
                    run.fail(item, f"row {item}: chase ended with {trace.outcome!r}")
                    continue
                counts[OUTCOMES[trace.outcome]] += 1

    def layer_values(self, tracer, traced: list[Pass]) -> dict[str, float]:
        return {}
