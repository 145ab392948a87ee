import errno
import os
import re
import time
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from circhad import searcher
from circhad.blockform import (
    BlockSequence,
    block_decompose,
    cancellation_holds,
    even_count,
    is_symmetric_even,
)
from circhad.matchchase import counterexample
from circhad.searcher import (
    ALL_PRUNES,
    SearchConfig,
    all_block_sequences,
    enumerate_block_sequences,
    rowsum_prune_applicable,
    _alternate,
    _alternate_result,
    _minus_targets,
    _PackedLags,
    _run_shard,
    _shard_prefixes,
    _shard_tables,
    _ShardResult,
    search,
)
from circhad.seqcore import SignSequence, is_circulant_hadamard

from helpers import (
    SEARCH_SECONDS,
    all_sign_texts,
    dense_hadamard_ok,
    reference_block_sequences,
    reference_residual,
    reference_search,
    time_limit,
)

PAF = frozenset({"prefix-paf"})
ROWSUM = frozenset({"row-sum"})
PRUNE_SELECTIONS = {"both": ALL_PRUNES, "paf": PAF, "rowsum": ROWSUM, "none": frozenset()}


class TestConfig:
    def test_order_validation(self):
        for bad in (0, -4, 3, 6, 10):
            with pytest.raises(ValueError):
                SearchConfig(order=bad)

    def test_worker_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(order=4, workers=0)

    def test_prune_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(order=4, prunes=frozenset({"magic"}))

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(order=4, budget_seconds=-1.0)

    @pytest.mark.parametrize("budget", [float("nan"), float("inf")])
    def test_non_finite_budget_refused(self, budget):
        # NaN slips past a plain "< 0" test and is never enforced
        with pytest.raises(ValueError, match="finite"):
            SearchConfig(order=4, budget_seconds=budget)


class TestRowSumPrune:
    def test_non_squares_rejected(self):
        assert rowsum_prune_applicable(8)
        assert rowsum_prune_applicable(12)
        assert rowsum_prune_applicable(24)

    def test_squares_proceed(self):
        assert not rowsum_prune_applicable(4)
        assert not rowsum_prune_applicable(16)
        assert not rowsum_prune_applicable(36)

    def test_requires_multiple_of_four(self):
        with pytest.raises(ValueError):
            rowsum_prune_applicable(9)
        with pytest.raises(ValueError):
            rowsum_prune_applicable(0)


class TestSearchResults:
    def test_order_four_census_matches_dense_oracle(self):
        report = search(SearchConfig(order=4))
        expected = sorted(t for t in all_sign_texts(4) if dense_hadamard_ok(t))
        assert list(report.solutions) == expected
        assert len(report.solutions) == 8
        assert not report.incomplete

    def test_known_rotations_present(self):
        report = search(SearchConfig(order=4))
        for text in ("-+++", "+-++", "++-+", "+++-", "+---", "-+--", "--+-", "---+"):
            assert text in report.solutions

    def test_solutions_verify_and_are_sorted(self):
        report = search(SearchConfig(order=4))
        assert all(is_circulant_hadamard(SignSequence.from_text(t)) for t in report.solutions)
        assert list(report.solutions) == sorted(report.solutions)

    def test_empty_orders(self):
        for order in (8, 12):
            assert search(SearchConfig(order=order)).solutions == ()

    def test_prune_soundness_small_orders(self):
        for order in (4, 8, 12):
            pruned = search(SearchConfig(order=order))
            naive = search(SearchConfig(order=order, prunes=frozenset()))
            assert pruned.solutions == naive.solutions

    def test_single_prune_selections_agree(self):
        for prunes in (frozenset({"row-sum"}), frozenset({"prefix-paf"})):
            report = search(SearchConfig(order=4, prunes=prunes))
            assert len(report.solutions) == 8

    def test_rowsum_rejects_whole_non_square_order(self):
        report = search(SearchConfig(order=8))
        assert report.sequences_examined == 0
        assert report.prune_cuts["row-sum"] == 1

    @time_limit(SEARCH_SECONDS)
    def test_parallel_determinism(self):
        reports = [search(SearchConfig(order=16, workers=w)) for w in (1, 2, 8)]
        first = reports[0].canonical_json()
        assert all(r.canonical_json() == first for r in reports[1:])

    @time_limit(SEARCH_SECONDS)
    def test_shard_tables_built_once_per_search(self):
        _shard_tables.cache_clear()
        # the parent builds the tables before any child forks
        search(SearchConfig(order=16, workers=2))
        assert _shard_tables.cache_info().misses == 1
        # every shard walked in-process reuses them: all 32 with row-sum,
        # the 16 with '+' at position 1 without it, which has tables of its own
        for prunes, misses, hits in ((ALL_PRUNES, 1, 1 + 32), (PAF, 2, 16)):
            before = _shard_tables.cache_info().hits
            search(SearchConfig(order=16, prunes=prunes))
            info = _shard_tables.cache_info()
            assert (info.misses, info.hits - before) == (misses, hits)

    @staticmethod
    def count_forks(monkeypatch, limit=None):
        """Record the pid of every child that os.fork starts, refusing any
        fork beyond the limit as fork does at a process limit."""
        forked = []
        real_fork = os.fork

        def fork():
            if limit is not None and len(forked) >= limit:
                raise BlockingIOError(errno.EAGAIN, "fork refused")
            pid = real_fork()
            if pid:
                forked.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", fork)
        return forked

    @staticmethod
    def assert_reaped(pids):
        for pid in pids:
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)

    @time_limit(SEARCH_SECONDS)
    def test_pool_never_exceeds_shard_count(self, monkeypatch):
        # 8 shards walked with row-sum, 4 without; the calling process is
        # the last of min(workers, walks) workers
        for prunes, walks in ((ALL_PRUNES, 8), (PAF, 4)):
            with monkeypatch.context() as patch:
                forked = self.count_forks(patch, limit=walks - 1)
                wide = search(SearchConfig(order=4, prunes=prunes, workers=10_000))
            assert len(forked) == walks - 1
            self.assert_reaped(forked)
            narrow = search(SearchConfig(order=4, prunes=prunes))
            assert wide.canonical_json() == narrow.canonical_json()

    @time_limit(SEARCH_SECONDS)
    def test_without_fork_every_shard_is_walked_here(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        alone = search(SearchConfig(order=16, workers=4))
        assert alone.canonical_json() == search(SearchConfig(order=16)).canonical_json()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    @time_limit(SEARCH_SECONDS)
    def test_child_exception_exits_one_with_traceback(self, monkeypatch, tmp_path, capfd):
        parent = os.getpid()
        died = tmp_path / "died"
        real_run_shard = searcher._run_shard

        def run_shard(*args):
            if os.getpid() != parent:
                died.touch()
                raise ValueError("shard walk failed in a child")
            while not died.exists():
                time.sleep(0.001)
            return real_run_shard(*args)

        monkeypatch.setattr(searcher, "_run_shard", run_shard)
        with pytest.raises(RuntimeError, match="exited with code 1"):
            search(SearchConfig(order=16, prunes=PAF, workers=2))
        err = capfd.readouterr().err
        assert "Traceback" in err
        assert "ValueError: shard walk failed in a child" in err

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    @time_limit(SEARCH_SECONDS)
    def test_torn_result_line_is_not_settled(self, monkeypatch, tmp_path):
        parent = os.getpid()
        died = tmp_path / "died"
        real_write = os.write

        def write(fd, data):
            if os.getpid() == parent:
                return real_write(fd, data)
            # the child dies halfway through sending its first result
            real_write(fd, data[: len(data) // 2])
            died.touch()
            os._exit(5)

        def walk(key):
            # the calling process holds its first key until the child died
            while os.getpid() == parent and not died.exists():
                time.sleep(0.001)
            return key

        monkeypatch.setattr(os, "write", write)
        settled = []
        with pytest.raises(RuntimeError, match="exited with code 5"):
            searcher._walk(walk, ["a", "b", "c"], 2, settled.append)
        # the child claimed one key and sent half a line for it
        assert len(settled) == 2

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    @time_limit(SEARCH_SECONDS)
    def test_failed_fork_reaps_children_and_closes_pipes(self, monkeypatch):
        open_fds = len(os.listdir("/proc/self/fd"))
        forked = self.count_forks(monkeypatch, limit=1)
        with pytest.raises(BlockingIOError):
            search(SearchConfig(order=16, prunes=PAF, workers=3))
        assert len(forked) == 1
        self.assert_reaped(forked)
        assert len(os.listdir("/proc/self/fd")) == open_fds

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    @time_limit(SEARCH_SECONDS)
    def test_parent_raising_mid_walk_reaps_children(self, monkeypatch, tmp_path):
        forked = self.count_forks(monkeypatch)
        real_record = searcher._ShardLedger.record
        records = []

        def record(ledger, result):
            if records:
                raise OSError("disk full")
            records.append(result)
            real_record(ledger, result)

        monkeypatch.setattr(searcher._ShardLedger, "record", record)
        cfg = SearchConfig(order=16, prunes=PAF, workers=3, ledger_path=tmp_path / "l")
        with pytest.raises(OSError, match="disk full"):
            search(cfg)
        assert len(forked) == 2
        self.assert_reaped(forked)

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize(
        "code, message", [(3, "exited with code 3"), (0, "ended early")], ids=["failed", "quiet"]
    )
    def test_dead_child_raises(self, monkeypatch, tmp_path, workers, code, message):
        parent = os.getpid()
        died = tmp_path / "died"
        real_run_shard = searcher._run_shard

        def run_shard(*args):
            if os.getpid() != parent:
                died.touch()
                os._exit(code)
            # hold the parent's first shard until a child has died, so a
            # child surely takes one
            while not died.exists():
                time.sleep(0.001)
            return real_run_shard(*args)

        monkeypatch.setattr(searcher, "_run_shard", run_shard)
        with time_limit(30):
            with pytest.raises(RuntimeError, match=message):
                search(SearchConfig(order=16, prunes=PAF, workers=workers))

    @time_limit(SEARCH_SECONDS)
    def test_workers_and_elapsed_excluded_from_canonical_form(self):
        report = search(SearchConfig(order=4, workers=3))
        doc = report.canonical_dict()
        assert "workers" not in doc
        assert "elapsed_seconds" not in doc
        assert report.to_dict()["workers"] == 3

    def test_canonicalization(self):
        report = search(SearchConfig(order=4, canonicalize=True))
        assert report.canonical_classes == ("+++-",)
        assert search(SearchConfig(order=4)).canonical_classes is None

    def test_order_four_solutions_obey_even_count_law(self):
        report = search(SearchConfig(order=4))
        for text in report.solutions:
            bs = block_decompose(SignSequence.from_text(text))
            assert even_count(bs) == 1


class TestWhatIsCut:
    @pytest.mark.parametrize("order", [4, 8, 12, 16])
    @pytest.mark.parametrize("selection", sorted(PRUNE_SELECTIONS))
    @time_limit(SEARCH_SECONDS)
    def test_matches_reference_dfs(self, order, selection):
        prunes = PRUNE_SELECTIONS[selection]
        examined, cuts, solutions = reference_search(order, prunes)
        for workers in (1, 2, 3):
            report = search(SearchConfig(order=order, prunes=prunes, workers=workers))
            assert report.sequences_examined == examined, workers
            assert report.prune_cuts == cuts, workers
            assert report.solutions == solutions, workers

    @pytest.mark.parametrize(
        "order, selection, examined, cuts",
        [
            (16, "both", 0, {"prefix-paf": 6185, "row-sum": 2672}),
            (16, "paf", 0, {"prefix-paf": 9270}),
            (16, "rowsum", 8008, {"row-sum": 14092}),
            (16, "none", 32768, {}),
            (20, "paf", 0, {"prefix-paf": 99484}),
        ],
    )
    def test_golden_counts(self, order, selection, examined, cuts):
        report = search(SearchConfig(order=order, prunes=PRUNE_SELECTIONS[selection]))
        assert report.sequences_examined == examined
        assert report.prune_cuts == cuts


class TestAlternation:
    @staticmethod
    def walk(order, prefix, prunes):
        targets = _minus_targets(order) if "row-sum" in prunes else None
        return _run_shard(order, prefix, prunes, targets, None)

    @given(st.data())
    @settings(deadline=None)
    def test_partner_shard_is_isomorphic(self, data):
        order = data.draw(st.sampled_from(range(4, 41, 4)), label="order")
        # at most 10 free positions keep an unpruned shard small
        length = data.draw(st.integers(max(2, order - 10), order), label="length")
        tail = data.draw(st.text("+-", min_size=length - 1, max_size=length - 1))
        prefix = "+" + tail
        for prunes in (PAF, frozenset()):
            shard = self.walk(order, prefix, prunes)
            partner = self.walk(order, _alternate(prefix), prunes)
            assert partner.completed == shard.completed
            assert partner.examined == shard.examined
            assert partner.cuts == shard.cuts
            assert partner.hits == tuple(sorted(map(_alternate, shard.hits)))
            assert _alternate_result(shard) == partner

    @pytest.mark.parametrize("prunes", [PAF, frozenset()], ids=["paf", "none"])
    def test_order_four_partners_alternate_hits(self, prunes):
        derived = []
        for prefix in _shard_prefixes(4)[:4]:
            shard = self.walk(4, prefix, prunes)
            partner = self.walk(4, _alternate(prefix), prunes)
            assert _alternate_result(shard) == partner
            derived += partner.hits
        assert derived == ["+-++", "+---"]
        # the one-entry prefix is its own partner; alt reverses the walk
        # order of its four hits, which must be sorted back
        whole = self.walk(4, "+", prunes)
        assert len(whole.hits) == 4
        assert _alternate_result(whole) == whole

    def test_row_sum_pair_differs(self):
        # alt changes the number of '-' entries, so row-sum walks both
        shard = self.walk(16, "++++++", ROWSUM)
        partner = self.walk(16, "+-+-+-", ROWSUM)
        assert (shard.examined, shard.cuts) == (211, {"row-sum": 374})
        assert (partner.examined, partner.cuts) == (240, {"row-sum": 440})

    def test_aborted_shard_gives_unstarted_partner(self):
        aborted = _run_shard(16, "++++++", PAF, None, 0.0)
        assert not aborted.completed
        partner = _alternate_result(aborted)
        assert partner == _ShardResult("+-+-+-", False, 0, {"prefix-paf": 0}, ())

    @pytest.mark.parametrize("kept", ["+", "-"], ids=["representatives", "partners"])
    @pytest.mark.parametrize("order, prunes", [(4, PAF), (16, frozenset())], ids=["o4", "o16"])
    def test_resume_from_one_member_of_each_pair(self, tmp_path, monkeypatch, kept, order, prunes):
        ledger = tmp_path / "shards.ledger"
        whole = search(SearchConfig(order=order, prunes=prunes, ledger_path=ledger))
        header, *records = ledger.read_text().splitlines(keepends=True)
        ledger.write_text(header + "".join(r for r in records if r[1] == kept))

        def refuse(*args):
            raise AssertionError("every shard is in the ledger or derived from it")

        monkeypatch.setattr(searcher, "_run_shard", refuse)
        resumed = search(SearchConfig(order=order, prunes=prunes, ledger_path=ledger))
        assert resumed.canonical_json() == whole.canonical_json()
        header_after, *after = ledger.read_text().splitlines(keepends=True)
        assert header_after == header
        if kept == "+":
            # representatives come first in prefix order, so their partners
            # are appended after them exactly as an uninterrupted run writes
            assert after == records
        else:
            assert sorted(after) == sorted(records)


@st.composite
def sign_rows(draw):
    length = draw(st.sampled_from(range(8, 41, 4)))
    return draw(st.lists(st.sampled_from((1, -1)), min_size=length, max_size=length))


def _check_packed_lags(row) -> bool:
    """Settle the row one position at a time, checking every lag counter
    and the cut verdict against a direct count; return the leaf verdict."""
    L = len(row)
    lags = _PackedLags(L)
    field = (1 << lags.width) - 1
    rev = fwd = neg = 0
    for p, s in enumerate(row):
        rev, fwd, neg = lags.settle(p, int(s < 0), rev, fwd, neg)
        direct = False
        for u in range(1, L // 2 + 1):
            settled = [
                row[k] * row[(k + u) % L] for k in range(p + 1) if (k + u) % L <= p
            ]
            assert neg >> lags.width * (u - 1) & field == settled.count(-1)
            direct = direct or abs(sum(settled)) > L - len(settled)
        assert lags.cut(p, neg) == direct
    balanced = neg == lags.balanced
    assert balanced == is_circulant_hadamard(SignSequence(row))
    return balanced


@given(sign_rows())
def test_packed_lag_verdict_matches_direct_check(row):
    _check_packed_lags(row)


def test_packed_leaf_verdict_exhaustive_length_four():
    verdicts = [
        _check_packed_lags([1 if ch == "+" else -1 for ch in text])
        for text in all_sign_texts(4)
    ]
    assert sum(verdicts) == 8


class TestBudgetAndLedger:
    def test_zero_budget_is_incomplete(self):
        report = search(SearchConfig(order=16, budget_seconds=0.0))
        assert report.incomplete

    def test_ledger_resume_reproduces_report(self, tmp_path):
        ledger = tmp_path / "shards.ledger"
        first = search(SearchConfig(order=16, ledger_path=ledger))
        recorded = ledger.read_text()
        second = search(SearchConfig(order=16, ledger_path=ledger))
        assert first.canonical_json() == second.canonical_json()
        assert ledger.read_text() == recorded

    def test_ledger_records_hits(self, tmp_path):
        ledger = tmp_path / "hits.ledger"
        report = search(SearchConfig(order=4, ledger_path=ledger))
        body = ledger.read_text()
        hits = [ln for ln in body.splitlines() if " hit " in ln]
        # four found directly; the other four solutions are their negations
        assert len(hits) == 4
        assert len(report.solutions) == 8

    @pytest.mark.parametrize(
        "order, selection",
        [
            (order, selection)
            for order in (4, 8, 12, 16)
            for selection in sorted(PRUNE_SELECTIONS)
            # a non-square order under row-sum writes no ledger at all
            if "row-sum" not in PRUNE_SELECTIONS[selection] or order in (4, 16)
        ],
    )
    @time_limit(SEARCH_SECONDS)
    def test_ledger_is_in_prefix_order_for_any_worker_count(self, tmp_path, order, selection):
        prunes = PRUNE_SELECTIONS[selection]
        ledgers = set()
        for workers in (1, 2, 3):
            ledger = tmp_path / f"w{workers}.ledger"
            search(SearchConfig(order=order, prunes=prunes, workers=workers, ledger_path=ledger))
            ledgers.add(ledger.read_bytes())
        assert len(ledgers) == 1
        records = [
            line.split()[0] for line in ledgers.pop().decode().splitlines()[1:] if " done " in line
        ]
        assert records == list(_shard_prefixes(order))

    def test_ledger_config_mismatch_refused(self, tmp_path):
        ledger = tmp_path / "shards.ledger"
        search(SearchConfig(order=16, ledger_path=ledger))
        with pytest.raises(ValueError):
            search(SearchConfig(order=16, prunes=frozenset(), ledger_path=ledger))

    @pytest.mark.parametrize("prunes", [PAF, ALL_PRUNES], ids=["paf", "both"])
    def test_torn_final_record_is_dropped_and_rerun(self, tmp_path, prunes):
        ledger = tmp_path / "shards.ledger"
        whole = search(SearchConfig(order=16, prunes=prunes, ledger_path=ledger))
        recorded = ledger.read_bytes()
        final = recorded.rstrip(b"\n").rfind(b"\n") + 1
        # every cut from "final record lost" to "only its newline lost",
        # through cuts inside a counter's digits that still parse
        for cut in range(final, len(recorded)):
            ledger.write_bytes(recorded[:cut])
            resumed = search(SearchConfig(order=16, prunes=prunes, ledger_path=ledger))
            assert resumed.canonical_json() == whole.canonical_json(), recorded[final:cut]
            assert ledger.read_bytes() == recorded, recorded[final:cut]

    def test_torn_hit_bearing_record_is_not_repeated(self, tmp_path):
        # order 4 has hits, so cuts fall inside a record's hit lines and
        # between them and its done line; the rerun must not repeat them
        ledger = tmp_path / "hits.ledger"
        whole = search(SearchConfig(order=4, ledger_path=ledger))
        recorded = ledger.read_bytes()
        assert b" hit " in recorded
        # a cut inside the header line, an empty file included, leaves a
        # header torn before any record, which is written afresh
        for cut in range(len(recorded)):
            ledger.write_bytes(recorded[:cut])
            resumed = search(SearchConfig(order=4, ledger_path=ledger))
            assert resumed.canonical_json() == whole.canonical_json(), cut
            assert ledger.read_bytes() == recorded, recorded[:cut]

    def test_malformed_hit_after_last_done_refused(self, tmp_path):
        ledger = tmp_path / "hits.ledger"
        search(SearchConfig(order=4, ledger_path=ledger))
        recorded = ledger.read_bytes()
        ledger.write_bytes(recorded + b"+--- hit +-\n+--- done")
        lines = recorded.count(b"\n")
        with pytest.raises(ValueError, match=re.escape(f"ledger {ledger} line {lines + 1}: ")):
            search(SearchConfig(order=4, ledger_path=ledger))

    def test_unterminated_foreign_file_refused_untouched(self, tmp_path):
        ledger = tmp_path / "notes.txt"
        ledger.write_bytes(b"not a ledger")
        with pytest.raises(ValueError, match="does not match"):
            search(SearchConfig(order=16, ledger_path=ledger))
        assert ledger.read_bytes() == b"not a ledger"


    @pytest.mark.parametrize(
        "record",
        [
            "+-+-+-",
            "+-+-+- hit",
            "+-+-+- hit +-+-",
            "+-+-+- hit " + "+-x" * 5 + "+",
            "+-+-+- hit " + "+" * 16 + " " + "+" * 16,
            "+-+-+- done examined=x prefix-paf=1 row-sum=2",
            "+-+-+- done examined=1 prefix-paf=-1 row-sum=2",
            "+-+-+- done examined",
            "+-+-+- done examined=1",
            "+-+-+- done examined=1 prefix-paf=1 row-sum=2 magic=3",
            "+-+-+- done examined=1 examined=1 prefix-paf=1",
            "+-+-+- finished",
            # records a resume must not trust: a prefix that is not a shard
            # of this search, a hit outside its shard, a hit that fails the
            # predicate (order 16 has no circulant Hadamard rows)
            "+-+-+ done examined=1 prefix-paf=1 row-sum=2",
            "--+-+- done examined=1 prefix-paf=1 row-sum=2",
            "+-+-+- hit " + "-" * 16,
            "+-+-+- hit " + "+-+-+-" + "+" * 10,
        ],
    )
    def test_malformed_record_names_file_and_line(self, tmp_path, record):
        ledger = tmp_path / "shards.ledger"
        search(SearchConfig(order=16, ledger_path=ledger))
        lines = ledger.read_text().splitlines()
        lines.insert(3, record)
        ledger.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"ledger {ledger} line 4: ")):
            search(SearchConfig(order=16, ledger_path=ledger))


class TestBlockEnumeration:
    def test_exactly_n_even_count_n1(self):
        out = list(enumerate_block_sequences(1))
        assert len(out) == 8
        assert all(even_count(bs) == 1 for bs in out)

    def test_count_n2(self):
        # C(4,2) placements * 2 even values * 2 odd values per slot
        assert sum(1 for _ in enumerate_block_sequences(2)) == 6 * 2 * 2 * 2 * 2

    def test_lexicographic_order(self):
        texts = [bs.text for bs in enumerate_block_sequences(1)]
        assert texts == sorted(texts)

    def test_cancellation_filter_is_vacuous_at_n1(self):
        filtered = list(enumerate_block_sequences(1, predicate=cancellation_holds))
        assert len(filtered) == 8

    @pytest.mark.parametrize("n,count", [(3, 0), (4, 768)])
    def test_cancellation_census_matches_reference(self, n, count):
        def reference_holds(bs):
            return all(reference_residual(bs, u).is_zero for u in range(1, len(bs)))

        filtered = list(enumerate_block_sequences(n, predicate=cancellation_holds))
        expected = [bs for bs in enumerate_block_sequences(n) if reference_holds(bs)]
        assert filtered == expected
        assert len(filtered) == count

    def test_cancellation_census_empty_at_n5(self):
        # eq. (1) with n even blocks forces (sum of the compression)^2 = n
        assert list(enumerate_block_sequences(5, cancellation_holds)) == []

    def test_cancellation_census_facts_at_n4(self):
        rows = list(enumerate_block_sequences(4, cancellation_holds))
        assert len(rows) == 768
        # the chase premise, an even block without an even partner half a
        # turn away, never holds on an order-16 row that satisfies eq. (1)
        assert all(is_symmetric_even(bs, i) for bs in rows for i in bs.even_indices())
        # 48 compressions c_d = diag if even else 0, each lifted by the 2^4
        # sign choices of the odd blocks
        compressions = Counter(tuple(b.diag if b.is_even else 0 for b in bs) for bs in rows)
        assert len(compressions) == 48
        assert set(compressions.values()) == {16}

    def test_counterexample_reachable_at_n3(self):
        def has_unsymmetric_even(bs):
            return any(not is_symmetric_even(bs, i) for i in bs.even_indices())

        wanted = counterexample().blocks
        assert any(
            bs == wanted for bs in enumerate_block_sequences(3, predicate=has_unsymmetric_even)
        )

    def test_range_validation(self):
        for bad in (0, 7, -1):
            with pytest.raises(ValueError):
                list(enumerate_block_sequences(bad))

    @staticmethod
    def assert_same_rows(rows, reference):
        """Same rows in the same order, each with the masks that the
        validating constructor computes."""
        rows = list(rows)
        assert rows == list(reference)
        for bs in rows:
            checked = BlockSequence(bs.blocks)
            assert (bs._even, bs._minus) == (checked._even, checked._minus)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_reference_walk(self, n):
        self.assert_same_rows(enumerate_block_sequences(n), reference_block_sequences(2 * n, n))

    @pytest.mark.parametrize("length", [2, 4, 6, 8])
    def test_all_block_sequences_match_reference_walk(self, length):
        self.assert_same_rows(all_block_sequences(length), reference_block_sequences(length))

    def test_all_block_sequences(self):
        out = list(all_block_sequences(2))
        assert len(out) == 16
        texts = [bs.text for bs in out]
        assert texts == sorted(texts)
        with pytest.raises(ValueError):
            list(all_block_sequences(3))


def test_default_prunes_are_both():
    assert SearchConfig(order=4).prunes == ALL_PRUNES
