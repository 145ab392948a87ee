"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every check is an exact integer comparison; the only tolerances are the
per-criterion wall-clock budgets, which are asserted as part of the
criterion itself.
"""

import json
import random
import time
from contextlib import contextmanager

from circhad.blockform import (
    all_block_sequences,
    block_decompose,
    cancellation_residual,
    even_count,
    is_symmetric_even,
)
from circhad.cli import main as cli_main
from circhad.matchchase import IndexPair, chase, even_pairs_at_lag, find_book, find_matching
from circhad.searcher import SearchConfig, search
from circhad.seqcore import SignSequence, paf, paf_spectrum

from helpers import (
    SEARCH_SECONDS,
    all_sign_texts,
    dense_hadamard_ok,
    random_sign_text,
    time_limit,
)


@contextmanager
def criterion(number, name, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    if elapsed >= budget_seconds:
        print(
            f"criterion {number} ({name}): FAIL "
            f"(took {elapsed:.2f}s, budget {budget_seconds:g}s)"
        )
        raise AssertionError(f"criterion {number} exceeded its runtime budget")
    print(f"criterion {number} ({name}): PASS ({elapsed:.2f}s)")


def test_criterion_1_counterexample_reproduction(capsys):
    with criterion(1, "counterexample reproduction", 1.0):
        code = cli_main(["counterexample", "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["ok"] is True
        result = doc["result"]
        assert result["even_indices"] == [0, 2, 4]
        by_name = {c["name"]: c for c in result["checks"]}
        assert by_name["even blocks are {0,2,4}"]["pass"]
        assert by_name["no even block is symmetric"]["pass"]
        assert by_name["matchings are valid with negating products"]["pass"]
        assert by_name["chase outcome is Cycle"]["pass"]
        trace = result["trace"]
        assert trace["steps"] == [
            {"obligation": [0, 2], "matched": [2, 4]},
            {"obligation": [0, 4], "matched": [4, 2]},
        ]
        assert trace["repeat"] == [0, 2]
        assert trace["outcome"] == "Cycle"


def test_criterion_2_order_four_census():
    with criterion(2, "order-4 census", 1.0):
        report = search(SearchConfig(order=4))
        oracle = sorted(t for t in all_sign_texts(4) if dense_hadamard_ok(t))
        assert len(oracle) == 8
        assert list(report.solutions) == oracle


def test_criterion_3_desk_scale_non_existence():
    with criterion(3, "non-existence at desk scale", 10.0):
        for order in (8, 12, 16, 20, 24):
            assert search(SearchConfig(order=order)).solutions == ()
        for order in (8, 12, 16):
            naive = search(SearchConfig(order=order, prunes=frozenset()))
            pruned = search(SearchConfig(order=order))
            assert naive.solutions == pruned.solutions == ()
            assert naive.sequences_examined == 2 ** (order - 1)
    # optional order 36: must either finish empty or report honestly incomplete
    report36 = search(SearchConfig(order=36, budget_seconds=1.0))
    assert report36.incomplete or report36.solutions == ()


def test_criterion_4_even_count_law():
    with criterion(4, "even-count law", 5.0):
        rng = random.Random(2026)
        lengths = (8, 12, 16, 20)
        accepted = 0
        while accepted < 10_000:
            L = lengths[accepted % len(lengths)]
            h = SignSequence.from_text(random_sign_text(rng, L))
            if paf(h, L // 2) != 0:
                continue
            assert even_count(block_decompose(h)) == L // 4
            accepted += 1


def test_criterion_5_matching_residual_duality():
    with criterion(5, "matching-residual duality", 10.0):
        for length in (4, 6):
            for bs in all_block_sequences(length):
                for u in range(1, length):
                    matching = find_matching(bs, u)
                    perfect = 2 * len(matching.pairs) == len(even_pairs_at_lag(bs, u))
                    assert perfect == cancellation_residual(bs, u).is_zero


def test_criterion_6_paf_identities():
    with criterion(6, "paf identities", 5.0):
        rng = random.Random(41)
        for _ in range(10_000):
            L = rng.randrange(1, 65)
            h = SignSequence.from_text(random_sign_text(rng, L))
            values = list(paf_spectrum(h))
            assert values[0] == L
            for u in range(1, L):
                assert values[u] == values[L - u]
            assert sum(values) == h.row_sum() ** 2


def test_criterion_7_chase_termination_and_determinism():
    with criterion(7, "chase termination and determinism", 30.0):
        for bs in all_block_sequences(6):
            evens = bs.even_indices()
            if len(evens) < 2:
                continue
            book = find_book(bs)
            bound = len(evens) ** 2 + 1
            for i in evens:
                if is_symmetric_even(bs, i):
                    continue
                for j in evens:
                    if j == i:
                        continue
                    start = IndexPair(i, j)
                    first = chase(bs, book, start)
                    second = chase(bs, book, start)
                    assert first == second
                    assert len(first.steps) <= bound


@time_limit(SEARCH_SECONDS)
def test_criterion_8_parallel_determinism():
    with criterion(8, "parallel determinism", 30.0):
        reports = [search(SearchConfig(order=16, workers=w)) for w in (1, 2, 8)]
        blobs = {r.canonical_json() for r in reports}
        assert len(blobs) == 1
