"""census: a fixed list of complete search() jobs.

The searcher does almost all the work.  The four order-16 jobs differ only
in the prune selection, which separates the cost of the pruning code from
the cost of the leaf predicate; the two order-20 jobs differ only in the
worker count, which is where a process pool can show.  ``eqn1-n4`` runs
``enumerate_block_sequences`` with ``cancellation_holds`` as its filter.
The job list does not depend on the seed.
"""

from __future__ import annotations

from circhad import (
    PRUNE_PREFIX_PAF,
    PRUNE_ROW_SUM,
    SearchConfig,
    SignSequence,
    cancellation_holds,
    enumerate_block_sequences,
    is_circulant_hadamard,
    search,
)

from common import ItemTimer, Pass

BOTH = frozenset({PRUNE_PREFIX_PAF, PRUNE_ROW_SUM})
PAF = frozenset({PRUNE_PREFIX_PAF})
ROWSUM = frozenset({PRUNE_ROW_SUM})
NONE = frozenset()

# job name -> the search configurations it runs, in order
SEARCH_JOBS: dict[str, tuple[SearchConfig, ...]] = {
    "o4-canon": (SearchConfig(order=4, canonicalize=True),),
    "o16-both": (SearchConfig(order=16, prunes=BOTH),),
    "o16-paf": (SearchConfig(order=16, prunes=PAF),),
    "o16-rowsum": (SearchConfig(order=16, prunes=ROWSUM),),
    "o16-none": (SearchConfig(order=16, prunes=NONE),),
    "o20-paf-w1": (SearchConfig(order=20, prunes=PAF, workers=1),),
    "o20-paf-w2": (SearchConfig(order=20, prunes=PAF, workers=2),),
    "nonsquare": tuple(SearchConfig(order=o) for o in (8, 12, 20, 24)),
}
EQN1_JOB = "eqn1-n4"
JOBS = (*SEARCH_JOBS, EQN1_JOB)

# the eight circulant Hadamard rows of order 4: one '-' or one '+'
ORDER4_ROWS = tuple(sorted(
    t for j in range(4) for t in ("+" * j + "-" + "+" * (3 - j), "-" * j + "+" + "-" * (3 - j))
))
ORDER4_CLASSES = ("+++-",)
EQN1_COUNT = 768


class Census:
    cpus = 2

    def __init__(self, seed: int, smoke: bool, workdir) -> None:
        self.jobs = JOBS

    def run_pass(self, tracer) -> Pass:
        run = Pass()
        reports = {}
        leaves = 0
        cuts = {PRUNE_PREFIX_PAF: 0, PRUNE_ROW_SUM: 0}
        for item, job in enumerate(self.jobs):
            with ItemTimer(run):
                if job == EQN1_JOB:
                    self._eqn1(run, tracer, item)
                    continue
                reports[job] = []
                for cfg in SEARCH_JOBS[job]:
                    with tracer.span("searcher.search", item):
                        report = search(cfg)
                    reports[job].append(report)
                    leaves += report.sequences_examined
                    for prune, count in report.prune_cuts.items():
                        cuts[prune] += count
                self._check_job(run, tracer, item, job, reports[job])
        o16 = {reports[j][0].solutions for j in reports if j.startswith("o16-")}
        if len(o16) != 1:
            run.fail(self.jobs.index("o16-none"), "order-16 solutions differ across prune selections")
        w1, w2 = reports["o20-paf-w1"][0], reports["o20-paf-w2"][0]
        if w1.canonical_json() != w2.canonical_json():
            run.fail(self.jobs.index("o20-paf-w2"), "o20-paf canonical_json differs between 1 and 2 workers")
        run.counts = {
            "searcher.leaves": leaves,
            "searcher.cuts.prefix-paf": cuts[PRUNE_PREFIX_PAF],
            "searcher.cuts.row-sum": cuts[PRUNE_ROW_SUM],
        }
        return run

    def _eqn1(self, run: Pass, tracer, item: int) -> None:
        def predicate(bs):
            with tracer.span("blockform.cancellation_holds", item):
                return cancellation_holds(bs)

        with tracer.span("searcher.enumerate_block_sequences", item):
            found = sum(1 for _ in enumerate_block_sequences(4, predicate))
        if found != EQN1_COUNT:
            run.fail(item, f"{EQN1_JOB}: {found} sequences, expected {EQN1_COUNT}")

    def _check_job(self, run: Pass, tracer, item: int, job: str, reports) -> None:
        for report in reports:
            if report.incomplete:
                run.fail(item, f"{job}: order {report.order} incomplete")
            if report.order != 4:
                if report.solutions:
                    run.fail(item, f"{job}: order {report.order} has solutions")
                continue
            if report.solutions != ORDER4_ROWS:
                run.fail(item, f"{job}: order-4 rows {report.solutions}")
            if report.canonical_classes != ORDER4_CLASSES:
                run.fail(item, f"{job}: order-4 classes {report.canonical_classes}")
            for text in report.solutions:
                with tracer.span("seqcore.predicate", item):
                    ok = is_circulant_hadamard(SignSequence.from_text(text))
                if not ok:
                    run.fail(item, f"{job}: {text} fails the predicate")

    def layer_values(self, tracer, traced: list[Pass]) -> dict[str, float]:
        passes = len(traced)
        job_seconds = tracer.seconds_by_item("searcher.")
        values = {
            f"searcher.search_s.{job}": job_seconds.get(item, 0.0) / passes
            for item, job in enumerate(self.jobs)
        }
        by_name = tracer.by_name()
        search_seconds = by_name.get("searcher.search", (0, 0.0))[1] / passes
        counts = traced[0].counts
        events = counts["searcher.leaves"] + counts["searcher.cuts.prefix-paf"] \
            + counts["searcher.cuts.row-sum"]
        values["searcher.events_per_s"] = events / search_seconds
        values["searcher.parallel_speedup"] = (
            values["searcher.search_s.o20-paf-w1"] / values["searcher.search_s.o20-paf-w2"]
        )
        return values
