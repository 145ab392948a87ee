import errno
import hashlib
import os
import re
import sys
import time
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from circhad import searcher
from circhad.blockform import (
    BlockSequence,
    all_block_sequences,
    block_decompose,
    cancellation_holds,
    enumerate_block_sequences,
    even_count,
    is_symmetric_even,
)
from circhad.matchchase import counterexample
from circhad.searcher import (
    ALL_PRUNES,
    SearchConfig,
    rowsum_prune_applicable,
    _alternate,
    _alternate_result,
    _minus_ok_ends,
    _minus_targets,
    _PackedLags,
    _run_shard,
    _shard_prefixes,
    _ShardResult,
    search,
)
from circhad.seqcore import SignSequence, is_circulant_hadamard

from helpers import (
    ALLOWED_CPUS,
    SEARCH_SECONDS,
    all_sign_texts,
    assert_reaped,
    count_forks,
    current_cpu,
    dense_hadamard_ok,
    fail_appends,
    reference_block_sequences,
    reference_minus_ok_table,
    reference_packed_lag_tables,
    reference_residual,
    reference_search,
    reference_shard,
    stop_after_reads,
    time_limit,
)

PAF = frozenset({"prefix-paf"})
ROWSUM = frozenset({"row-sum"})
PRUNE_SELECTIONS = {"both": ALL_PRUNES, "paf": PAF, "rowsum": ROWSUM, "none": frozenset()}


class TestConfig:
    def test_order_validation(self):
        for bad in (0, -4, 3, 6, 10, 16.0, "16"):
            with pytest.raises(ValueError):
                SearchConfig(order=bad)

    def test_worker_validation(self):
        for bad in (0, 2.0):
            with pytest.raises(ValueError):
                SearchConfig(order=4, workers=bad)

    @pytest.mark.parametrize("field", ["order", "workers"])
    @pytest.mark.parametrize("flag", [True, False])
    def test_bool_order_or_worker_count_refused(self, field, flag):
        # bool is an int subclass, but neither flag is a count
        with pytest.raises(ValueError):
            SearchConfig(**{"order": 4, field: flag})

    @pytest.mark.parametrize("flag", [1, 0, "yes", None])
    def test_non_bool_canonicalize_refused(self, flag):
        # 1 would search the same rows but read "canonicalize":1 in the report
        with pytest.raises(ValueError, match="canonicalize"):
            SearchConfig(order=4, canonicalize=flag)

    @pytest.mark.parametrize("budget", [True, False, "1", [1.0], 1j])
    def test_bool_or_non_number_budget_refused(self, budget):
        # True is not one second, and "1" is not compared with 0
        with pytest.raises(ValueError, match="budget_seconds"):
            SearchConfig(order=4, budget_seconds=budget)

    def test_int_budget_accepted(self):
        assert SearchConfig(order=4, budget_seconds=3).budget_seconds == 3

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
        with pytest.raises(ValueError):
            rowsum_prune_applicable(16.0)


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
    def test_shard_tables_built_once_per_search(self, monkeypatch):
        built = []

        class Counted(_PackedLags):
            def __init__(self, order, prunes):
                built.append(order)
                super().__init__(order, prunes)

        monkeypatch.setattr(searcher, "_PackedLags", Counted)
        # one build before any child forks; a build per shard would show
        # here too, since the calling process also walks shards
        for workers in (1, 2):
            for prunes in (ALL_PRUNES, PAF):
                built.clear()
                report = search(SearchConfig(order=16, prunes=prunes, workers=workers))
                assert report.sequences_examined == 0
                assert built == [16]

    @time_limit(SEARCH_SECONDS)
    def test_pool_never_exceeds_shard_count(self, monkeypatch):
        # 4 pairs walked with row-sum or without; the calling process is the
        # last of min(workers, walks) workers
        for prunes, walks in ((ALL_PRUNES, 4), (PAF, 4)):
            with monkeypatch.context() as patch:
                forked = count_forks(patch, limit=walks - 1)
                wide = search(SearchConfig(order=4, prunes=prunes, workers=10_000))
            assert len(forked) == walks - 1
            assert_reaped(forked)
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
        forked = count_forks(monkeypatch, limit=1)
        with pytest.raises(BlockingIOError):
            search(SearchConfig(order=16, prunes=PAF, workers=3))
        assert len(forked) == 1
        assert_reaped(forked)
        assert len(os.listdir("/proc/self/fd")) == open_fds

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    @time_limit(SEARCH_SECONDS)
    def test_parent_raising_mid_walk_reaps_children(self, monkeypatch, tmp_path):
        forked = count_forks(monkeypatch)
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
        assert_reaped(forked)

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs sched_setaffinity")
    @time_limit(SEARCH_SECONDS)
    def test_two_workers_leave_the_affinity_mask_as_found(self):
        before = os.sched_getaffinity(0)
        search(SearchConfig(order=16, workers=2))
        assert os.sched_getaffinity(0) == before

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs sched_setaffinity")
    @time_limit(SEARCH_SECONDS)
    def test_refused_cpu_move_changes_no_output(self, monkeypatch, tmp_path):
        refused = []

        def refuse(pid, cpus):
            refused.append(cpus)
            raise OSError(errno.EPERM, "not permitted")

        def run(workers):
            path = tmp_path / f"ledger-{workers}"
            report = search(SearchConfig(order=16, prunes=PAF, workers=workers, ledger_path=path))
            return report.canonical_json(), path.read_bytes()

        alone = run(1)
        monkeypatch.setattr(os, "sched_setaffinity", refuse)
        for workers in (2, 3):
            assert run(workers) == alone
        # the calling process places every process of the walk, itself
        # included, and a refused move is not followed by the mask restore
        assert len(refused) == (2 + 3 if len(os.sched_getaffinity(0)) > 1 else 0)

    @pytest.mark.skipif(
        len(ALLOWED_CPUS) < 2 or not os.path.exists("/proc/self/stat"),
        reason="needs two allowed CPUs and /proc/self/stat",
    )
    @time_limit(SEARCH_SECONDS)
    def test_each_process_of_the_walk_starts_on_its_own_cpu(self, tmp_path):
        cpus = sorted(os.sched_getaffinity(0))
        parent = os.getpid()

        def walk(key):
            cpu = current_cpu()
            # each process holds its first key until the other has one, so
            # both walk one however the two are scheduled
            (tmp_path / str(os.getpid())).touch()
            while len(list(tmp_path.iterdir())) < 2:
                time.sleep(0.001)
            return os.getpid(), cpu

        settled = []
        searcher._walk(walk, list(range(4)), 2, settled.append)
        mine = [cpu for pid, cpu in settled if pid == parent]
        theirs = [cpu for pid, cpu in settled if pid != parent]
        assert (mine[0], theirs[0]) == (cpus[0], cpus[1])
        assert os.sched_getaffinity(0) == set(cpus)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    @pytest.mark.parametrize("workers", [2, 3])
    @time_limit(SEARCH_SECONDS)
    def test_walk_asks_for_each_placement_in_order(self, monkeypatch, tmp_path, workers):
        # the sampled test above needs a second free CPU; this one fixes the
        # CPU set and records the moves each process asks for, so it reads
        # the placement itself, whatever the host and its load
        cpus = [3, 5]
        parent = os.getpid()
        moves, forked = [], []
        real_fork = os.fork

        def fork():
            pid = real_fork()
            if pid:
                forked.append(pid)
            return pid

        def walk(key):
            # each process holds its first key until every process has one,
            # and hands back the moves it has asked for: a child's copy of
            # the list starts with those of the calling process before its fork
            (tmp_path / str(os.getpid())).touch()
            while len(list(tmp_path.iterdir())) < workers:
                time.sleep(0.001)
            return os.getpid(), key, list(moves)

        monkeypatch.setattr(os, "fork", fork)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus), raising=False)
        monkeypatch.setattr(
            os, "sched_setaffinity", lambda pid, mask: moves.append((pid, set(mask))), raising=False
        )
        settled = []
        searcher._walk(walk, list(range(4)), workers, settled.append)
        assert sorted(key for _, key, _ in settled) == [0, 1, 2, 3]
        assert len(forked) == workers - 1
        assert {pid for pid, _, _ in settled} == {parent, *forked}
        # before fork k the calling process moves to child k's CPU, so the
        # child is born there; the child takes its whole mask back before
        # its first claim, and the calling process moves to the first CPU
        # and takes its mask back after the last fork, before its first claim
        whole = (0, set(cpus))
        born = [(0, {cpus[k % len(cpus)]}) for k in range(1, workers)]
        assert moves == born + [(0, {cpus[0]}), whole]
        for pid, _, asked in settled:
            if pid == parent:
                assert asked == moves
            else:
                assert asked == born[: forked.index(pid) + 1] + [whole]

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs sched_setaffinity")
    @time_limit(SEARCH_SECONDS)
    def test_failed_fork_leaves_the_affinity_mask_as_found(self, monkeypatch):
        # the calling process narrows its mask to fork a child, and a refused
        # fork gives the mask back
        before = os.sched_getaffinity(0)
        forked = count_forks(monkeypatch, limit=1)
        with pytest.raises(BlockingIOError):
            search(SearchConfig(order=16, prunes=PAF, workers=3))
        assert_reaped(forked)
        assert os.sched_getaffinity(0) == before

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

    @pytest.mark.parametrize(
        "selection, examined, cuts",
        [
            ("both", 0, {"prefix-paf": 31338, "row-sum": 5533}),
            ("paf", 0, {"prefix-paf": 37314}),
            ("rowsum", 63648, {"row-sum": 111774}),
            ("none", 262144, {}),
        ],
    )
    def test_golden_shard_counts(self, selection, examined, cuts):
        # one order-24 shard walked directly; row-sum targets apply though
        # 24 is not a square, so every selection walks it
        result = TestAlternation.walk(24, "++-+--", PRUNE_SELECTIONS[selection])[0]
        assert result == _ShardResult("++-+--", True, examined, cuts, ())


class TestAlternation:
    @staticmethod
    def walk(order, prefix, prunes, deadline=None):
        """The records of one walk from prefix: that of its shard, and with
        row-sum also that of its alternate's."""
        return _run_shard(_PackedLags(order, prunes), prefix, deadline)

    @pytest.mark.parametrize("selection", sorted(PRUNE_SELECTIONS))
    def test_walk_returns_the_records_it_walked(self, selection):
        # without row-sum the partner's record is derived in search(), not
        # by the walk
        prunes = PRUNE_SELECTIONS[selection]
        walked = self.walk(16, "++-+-+", prunes)
        keys = ("++-+-+", _alternate("++-+-+")) if "row-sum" in prunes else ("++-+-+",)
        assert tuple(result.prefix for result in walked) == keys

    @given(st.data())
    @settings(deadline=None)
    def test_partner_shard_is_isomorphic(self, data):
        order = data.draw(st.sampled_from(range(4, 41, 4)), label="order")
        # at most 10 free positions keep an unpruned shard small
        length = data.draw(st.integers(max(2, order - 10), order), label="length")
        tail = data.draw(st.text("+-", min_size=length - 1, max_size=length - 1))
        prefix = "+" + tail
        for prunes in (PAF, frozenset()):
            (shard,) = self.walk(order, prefix, prunes)
            (partner,) = self.walk(order, _alternate(prefix), prunes)
            assert partner.completed == shard.completed
            assert partner.examined == shard.examined
            assert partner.cuts == shard.cuts
            assert partner.hits == tuple(sorted(map(_alternate, shard.hits)))
            assert _alternate_result(shard) == partner

    @given(st.data())
    @settings(deadline=None, max_examples=40)
    def test_paired_walk_matches_two_reference_walks(self, data):
        # with row-sum the two trees differ, and one walk over their union
        # gives both records.  Targets other than the order's own, at square
        # orders or not, make the trees part sooner and one outlive the
        # other by more levels.  Any targets L/2 - a and L/2 + b with a, b at
        # most L/4 leave every '-' count reachable below L/2, as the walk
        # assumes (see test_no_cut_falls_below_half_exhaustive)
        order = data.draw(st.sampled_from(range(4, 41, 4)), label="order")
        # 3 to 8 free positions keep the reference walk small
        length = data.draw(st.integers(max(1, order - 8), max(1, order - 3)), label="length")
        tail = data.draw(st.text("+-", min_size=length - 1, max_size=length - 1))
        prefix = "+" + tail
        spread = st.integers(0, order // 4)
        targets = data.draw(st.one_of(
            st.just(_minus_targets(order)),
            st.tuples(spread, spread).map(lambda ab: (order // 2 - ab[0], order // 2 + ab[1])),
        ), label="targets")
        for prunes in (ALL_PRUNES, ROWSUM):
            # the one place where targets other than the order's own enter a walk
            lags = _PackedLags(order, prunes)
            lags.ends = _minus_ok_ends(order, targets)
            pair = _run_shard(lags, prefix, None)
            assert len(pair) == 2
            for result, key in zip(pair, (prefix, _alternate(prefix))):
                examined, cuts, hits = reference_shard(order, key, "prefix-paf" in prunes, targets)
                expected = {name: cuts[name] for name in sorted(prunes)}
                assert result == _ShardResult(key, True, examined, expected, tuple(hits))

    @pytest.mark.parametrize("prunes", [PAF, frozenset()], ids=["paf", "none"])
    def test_order_four_partners_alternate_hits(self, prunes):
        derived = []
        for prefix in _shard_prefixes(4)[:4]:
            (shard,) = self.walk(4, prefix, prunes)
            (partner,) = self.walk(4, _alternate(prefix), prunes)
            assert _alternate_result(shard) == partner
            derived += partner.hits
        assert derived == ["+-++", "+---"]
        # the one-entry prefix is its own partner; alt reverses the walk
        # order of its four hits, which must be sorted back
        (whole,) = self.walk(4, "+", prunes)
        assert len(whole.hits) == 4
        assert _alternate_result(whole) == whole

    def test_row_sum_pair_differs(self):
        # alt changes the number of '-' entries, so the two records differ;
        # each is the one a walk from that member gives
        shard, partner = self.walk(16, "++++++", ROWSUM)
        assert (shard.examined, shard.cuts) == (211, {"row-sum": 374})
        assert (partner.examined, partner.cuts) == (240, {"row-sum": 440})
        assert self.walk(16, "+-+-+-", ROWSUM) == (partner, shard)

    def test_aborted_shard_gives_unstarted_partner(self):
        (aborted,) = self.walk(16, "++++++", PAF, deadline=0.0)
        assert not aborted.completed
        partner = _alternate_result(aborted)
        assert partner == _ShardResult("+-+-+-", False, 0, {"prefix-paf": 0}, ())

    def test_aborted_pair_walk_reports_both_members(self):
        # a paired walk stopped at its start has reached no node of either tree
        pair = self.walk(16, "++++++", ALL_PRUNES, deadline=0.0)
        cuts = {"prefix-paf": 0, "row-sum": 0}
        assert pair == tuple(_ShardResult(p, False, 0, cuts, ()) for p in ("++++++", "+-+-+-"))

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

    @pytest.mark.parametrize("kept", ["+", "-"], ids=["representatives", "partners"])
    @pytest.mark.parametrize("prunes", [ALL_PRUNES, ROWSUM], ids=["both", "rowsum"])
    def test_row_sum_resume_records_only_the_missing_member(self, tmp_path, kept, prunes):
        # with row-sum a member does not supply its partner: the pair is
        # walked again, and only the member the ledger lacks is appended
        ledger = tmp_path / "shards.ledger"
        whole = search(SearchConfig(order=16, prunes=prunes, ledger_path=ledger))
        header, *records = ledger.read_text().splitlines(keepends=True)
        kept_records = [r for r in records if r[1] == kept]
        ledger.write_text(header + "".join(kept_records))
        resumed = search(SearchConfig(order=16, prunes=prunes, ledger_path=ledger))
        assert resumed.canonical_json() == whole.canonical_json()
        header_after, *after = ledger.read_text().splitlines(keepends=True)
        assert after[: len(kept_records)] == kept_records
        assert sorted(after) == sorted(records)


class TestStop:
    """Where a budget stops a shard.  The clock reads 0.0 for its first
    `reads` calls and 1.0 after, against deadline 0.5, so the stop falls at
    a fixed node; the counts are those reached there.  With row-sum the
    node is one of the walk over the union of a pair's two trees."""

    @pytest.mark.parametrize(
        "order, prefix, prunes, reads, completed, examined, cuts",
        [
            (24, "+++---", PAF, 1, False, 0, {"prefix-paf": 4084}),
            (24, "+++---", PAF, 2, False, 0, {"prefix-paf": 8182}),
            (36, "+-+-+-", ALL_PRUNES, 1, False, 0, {"prefix-paf": 3080, "row-sum": 782}),
            (36, "+-+-+-", ALL_PRUNES, 3, False, 0, {"prefix-paf": 9444, "row-sum": 2247}),
            (20, "++++++", frozenset(), 1, False, 4092, {}),
            (20, "++++++", frozenset(), 2, False, 8190, {}),
            (20, "+-++-+", ROWSUM, 1, False, 1153, {"row-sum": 1967}),
            # at a node below L/2, where fwd is still set: position 19 of 40
            # and position 13 of 28
            (40, "+", ALL_PRUNES, 2, False, 0, {"prefix-paf": 6279, "row-sum": 1521}),
            (28, "++++++", ALL_PRUNES, 28, False, 0, {"prefix-paf": 96258, "row-sum": 16467}),
            # at position 28 of 40, in the back half
            (40, "++++++", PAF, 1, False, 0, {"prefix-paf": 4079}),
            # out of time at its start: the shard never starts
            (16, "++++++", PAF, 0, False, 0, {"prefix-paf": 0}),
            # 1024 leaves, fewer than one poll's worth of nodes
            (16, "++++++", frozenset(), 1, True, 1024, {}),
        ],
        ids=["o24-1", "o24-2", "o36-1", "o36-3", "o20-1", "o20-2", "o20-rowsum", "o40-front",
             "o28-front", "o40-back", "unstarted", "finished"],
    )
    def test_stop_falls_at_a_fixed_node(
        self, monkeypatch, order, prefix, prunes, reads, completed, examined, cuts
    ):
        limit = sys.getrecursionlimit()
        runs = []
        for _ in range(2):
            with monkeypatch.context() as patch:
                stop_after_reads(patch, reads)
                runs.append(TestAlternation.walk(order, prefix, prunes, deadline=0.5))
        assert runs[0] == runs[1]
        shard, *walked = runs[0]
        assert shard == _ShardResult(prefix, completed, examined, cuts, ())
        # a stopped walk stops both members of its pair, walked or derived
        (partner,) = walked or [_alternate_result(shard)]
        assert partner.completed == completed
        assert sys.getrecursionlimit() == limit

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("selection", sorted(PRUNE_SELECTIONS))
    @time_limit(SEARCH_SECONDS)
    def test_stopped_searches_resume_to_the_whole_report(
        self, monkeypatch, tmp_path, selection, workers
    ):
        # each stopped run records the pairs it finished before its clock
        # ran out; the last run resumes from the ledger without a budget
        prunes = PRUNE_SELECTIONS[selection]
        ledger = tmp_path / "shards.ledger"
        for reads in (2, 3):
            with monkeypatch.context() as patch:
                stop_after_reads(patch, reads)
                stopped = search(SearchConfig(
                    order=16, prunes=prunes, workers=workers, budget_seconds=0.5,
                    ledger_path=ledger,
                ))
            assert stopped.incomplete
        resumed = search(SearchConfig(order=16, prunes=prunes, workers=workers, ledger_path=ledger))
        whole = search(SearchConfig(order=16, prunes=prunes))
        assert resumed.canonical_json() == whole.canonical_json()


@st.composite
def sign_rows(draw):
    length = draw(st.sampled_from(range(8, 41, 4)))
    return draw(st.lists(st.sampled_from((1, -1)), min_size=length, max_size=length))


def _check_packed_lags(row) -> bool:
    """Settle the row one position at a time, checking every lag counter
    (a field of m - upper) and the cut verdict against a direct count;
    return the leaf verdict.  From L/2 on, also check the back half of the
    walk: fwd no longer changes, and the wrap terms taken once at L/2 give
    each increment."""
    L = len(row)
    lags = _PackedLags(L, PAF)
    field = (1 << lags.width) - 1
    rev = fwd = 0
    m = lags.upper
    for p, s in enumerate(row):
        bit = int(s < 0)
        if p == L // 2:
            terms = [lags.wrap_term(q, fwd) for q in range(L)]
        if p < L // 2:
            assert lags.wrap_term(p, fwd) == 0
            rev, fwd, m = lags.settle(p, bit, rev, fwd, m)
            assert not lags.cut(p, m)
        else:
            back, _, both = lags.rows[p]
            inc = (rev & back) + terms[p]
            before, final = m, fwd
            rev, fwd, m = lags.settle(p, bit, rev, fwd, m)
            assert fwd == final
            assert m - before == (both - inc if bit else inc)
        neg = m - lags.upper
        direct = False
        for u in range(1, L // 2 + 1):
            settled = [
                row[k] * row[(k + u) % L] for k in range(p + 1) if (k + u) % L <= p
            ]
            assert neg >> lags.width * (u - 1) & field == settled.count(-1)
            direct = direct or abs(sum(settled)) > L - len(settled)
        assert lags.cut(p, m) == direct
    # the whole row reads back from rev alone
    assert lags.row_bits(rev) == SignSequence(row).bits
    balanced = m == lags.target
    assert balanced == is_circulant_hadamard(SignSequence(row))
    return balanced


@given(sign_rows())
def test_packed_lag_verdict_matches_direct_check(row):
    _check_packed_lags(row)


def test_no_cut_falls_below_half_exhaustive():
    # below L/2 every lag has at most L/2 - 1 products settled, so neither
    # sign can outnumber L/2, and every '-' count still reaches a row-sum
    # target of the order: the walk sets these positions without a cut test
    for L in range(4, 17, 4):
        lags = _PackedLags(L, PAF)
        for text in all_sign_texts(L // 2):
            rev = fwd = 0
            m = lags.upper
            for p, ch in enumerate(text):
                rev, fwd, m = lags.settle(p, int(ch == "-"), rev, fwd, m)
                assert not lags.cut(p, m), (L, text, p)
    # the binding position is p = L/2 - 1, with the most counts and the
    # fewest positions left: where every count reaches a target there, it
    # does at every earlier position too
    for L in range(4, searcher._MAX_ORDER + 1, 4):
        ends = _minus_ok_ends(L, _minus_targets(L))
        p = L // 2 - 1
        assert all(p < ends[m] for m in range(p + 2)), L
        if L in (4, 16, 36, 64, 100):
            # the walk's table is this one, from the order's own targets
            for selection, prunes in PRUNE_SELECTIONS.items():
                expected = ends if "row-sum" in prunes else _minus_ok_ends(L, None)
                assert _PackedLags(L, prunes).ends == expected, (L, selection)


def test_packed_lag_tables_match_direct_definition():
    # the tables are built one position at a time; the oracle sums every
    # field of every position afresh
    # the ceiling of _PackedLags is offset by upper, as the state is
    for L in range(4, 201):
        lags = _PackedLags(L, PAF)
        back, ceil, _ = zip(*lags.rows)
        offset = tuple(c - lags.upper for c in ceil)
        assert (back, lags.wrap, offset) == reference_packed_lag_tables(L), L


def test_minus_ok_table_matches_direct_definition():
    # the ends give every entry of the table by position and '-' count
    for L in range(4, 101, 4):
        for targets in (None, _minus_targets(L), (0,), (L,), (1, L - 1)):
            ends = _minus_ok_ends(L, targets)
            for p, row in enumerate(reference_minus_ok_table(L, targets)):
                assert tuple(p < ends[m] for m in range(p + 2)) == row, (L, targets, p)


def test_packed_leaf_verdict_exhaustive_length_four():
    verdicts = [
        _check_packed_lags([1 if ch == "+" else -1 for ch in text])
        for text in all_sign_texts(4)
    ]
    assert sum(verdicts) == 8


@pytest.mark.parametrize("selection", sorted(PRUNE_SELECTIONS))
def test_walk_leaves_report_the_order_four_hits(selection):
    # with prefix "+" the last three positions are set inside the walk, so
    # each hit is read back from a leaf's rev, not from the prefix loop
    result = TestAlternation.walk(4, "+", PRUNE_SELECTIONS[selection])[0]
    assert result.completed
    assert result.hits == ("+++-", "++-+", "+-++", "+---")


@pytest.mark.parametrize("selection", ["none", "rowsum"])
def test_walk_leaves_report_the_rows_of_the_balanced_state(monkeypatch, selection):
    # a chosen row's final state stands in for the balanced one and the
    # predicate accepts every leaf that reaches found, so the hits are the
    # rows that the walk reads back from rev at those leaves
    L, prunes = 12, PRUNE_SELECTIONS[selection]
    lags = _PackedLags(L, prunes)

    def state(text):
        rev = fwd = 0
        m = lags.upper
        for p, ch in enumerate(text):
            rev, fwd, m = lags.settle(p, int(ch == "-"), rev, fwd, m)
        return m

    chosen = "++-+--+-++++"  # four '-' entries, a row-sum target at order 12
    targets = _minus_targets(L) if "row-sum" in prunes else None
    expected = tuple(
        text
        for text in all_sign_texts(L)
        if text[0] == "+"
        and state(text) == state(chosen)
        and (targets is None or text.count("-") in targets)
    )
    assert chosen in expected and len(expected) > 1
    lags.target = state(chosen)
    monkeypatch.setattr(searcher, "is_circulant_hadamard", lambda seq: True)
    result = _run_shard(lags, "+", None)[0]
    assert result.completed
    assert result.hits == expected


class TestBudgetAndLedger:
    def test_zero_budget_is_incomplete(self):
        report = search(SearchConfig(order=16, budget_seconds=0.0))
        assert report.incomplete

    @pytest.mark.parametrize("order, prunes", [(2000, PAF), (1936, ALL_PRUNES)])
    def test_budget_holds_at_a_large_order(self, order, prunes):
        # the shard tables are built inside the budget, and the walk goes
        # deeper than the interpreter's default recursion limit
        report = search(SearchConfig(order=order, prunes=prunes, budget_seconds=0.2))
        assert report.incomplete
        assert report.elapsed_seconds < 1.5

    @pytest.mark.parametrize("prunes", [ALL_PRUNES, PAF], ids=["all", "prefix-paf"])
    def test_order_above_the_largest_is_refused_at_once(self, tmp_path, prunes):
        # its shard tables alone would take gigabytes: the search is refused
        # before they are built, and before the ledger is opened
        ledger = tmp_path / "shards.ledger"
        cfg = SearchConfig(order=16384, prunes=prunes, budget_seconds=0.1, ledger_path=ledger)
        refusal = "^order 16384 is too large to search; the largest is 4096$"
        started = time.monotonic()
        with time_limit(10), pytest.raises(ValueError, match=refusal):
            search(cfg)
        assert time.monotonic() - started < 1.5
        assert not ledger.exists()

    def test_largest_order_is_searched(self, monkeypatch):
        monkeypatch.setattr(searcher, "_MAX_ORDER", 16)
        assert not search(SearchConfig(order=16, prunes=PAF)).incomplete
        with pytest.raises(ValueError, match="order 20 is too large"):
            search(SearchConfig(order=20, prunes=PAF))

    @pytest.mark.parametrize(
        "text",
        ["garbage\n", "# circhad shard ledger order=16 prunes=prefix-paf,row-sum\n"],
        ids=["garbage", "order-16"],
    )
    def test_row_sum_answer_refuses_a_foreign_ledger(self, tmp_path, text):
        # the ledger is read before row-sum settles the order, so a file that
        # is not this search's ledger is refused as it is where shards run
        ledger = tmp_path / "shards.ledger"
        ledger.write_text(text)
        for prunes in (ALL_PRUNES, PAF):
            with pytest.raises(ValueError, match="does not match this search configuration"):
                search(SearchConfig(order=8, prunes=prunes, ledger_path=ledger))
        assert ledger.read_text() == text

    def test_row_sum_answer_writes_a_fresh_ledger_header(self, tmp_path):
        ledger = tmp_path / "shards.ledger"
        cfg = SearchConfig(order=8, ledger_path=ledger)
        first = search(cfg)
        header = "# circhad shard ledger order=8 prunes=prefix-paf,row-sum\n"
        assert ledger.read_text() == header
        again = search(cfg)
        assert again.canonical_json() == first.canonical_json()
        assert again.prune_cuts == {"prefix-paf": 0, "row-sum": 1}
        assert ledger.read_text() == header

    def test_row_sum_still_settles_a_large_nonsquare_order(self):
        # 16388 = 4 * 4097 is not a square, so row-sum answers before the refusal
        report = search(SearchConfig(order=16388, budget_seconds=0.1))
        assert (report.incomplete, report.sequences_examined) == (False, 0)
        assert report.prune_cuts == {"prefix-paf": 0, "row-sum": 1}

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

    @pytest.mark.parametrize("workers", [1, 2])
    @time_limit(SEARCH_SECONDS)
    def test_failed_append_is_value_error(self, monkeypatch, tmp_path, workers):
        forked = count_forks(monkeypatch)
        fail_appends(monkeypatch)
        ledger = tmp_path / "shards.ledger"
        cfg = SearchConfig(order=8, prunes=PAF, workers=workers, ledger_path=ledger)
        with pytest.raises(ValueError) as info:
            search(cfg)
        assert str(info.value) == f"ledger {ledger}: No space left on device"
        assert len(forked) == workers - 1
        assert_reaped(forked)
        assert ledger.read_text() == "# circhad shard ledger order=8 prunes=prefix-paf\n"

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
        "record", ["+--+ done examined=7 prefix-paf=0", "+--- hit +---"], ids=["done", "hit"]
    )
    def test_shard_recorded_twice_refused(self, tmp_path, record):
        # search() never records a shard twice, so only a damaged ledger
        # does; a resume must not add the second record to the first
        ledger = tmp_path / "shards.ledger"
        search(SearchConfig(order=4, prunes=PAF, ledger_path=ledger))
        damaged = ledger.read_bytes() + record.encode() + b"\n"
        ledger.write_bytes(damaged)
        line = damaged.count(b"\n")
        prefix = record.split()[0]
        with pytest.raises(ValueError) as refused:
            search(SearchConfig(order=4, prunes=PAF, ledger_path=ledger))
        assert str(refused.value) == f"ledger {ledger} line {line}: shard '{prefix}' is recorded twice"
        assert ledger.read_bytes() == damaged

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

    @staticmethod
    def texts_digest(runs):
        digest = hashlib.sha256()
        for rows in runs:
            for bs in rows:
                digest.update(bs.text.encode() + b"\n")
            digest.update(b"end\n")
        return digest.hexdigest()

    def test_enumeration_texts_unchanged(self):
        # rows, then the eq. (1) rows, for n = 1..5; the digest was taken
        # before the rows of one compression shared a lag table
        runs = []
        for n in range(1, 6):
            runs += [enumerate_block_sequences(n), enumerate_block_sequences(n, cancellation_holds)]
        assert self.texts_digest(runs) == (
            "d1337e832911baa747a1708485bea84cd8677d08f0b2710f22e85ca9710efd64"
        )

    def test_all_block_sequences_texts_unchanged(self):
        # every row of 2 to 10 blocks; the digest was taken before the rows
        # of one compression shared a lag table
        runs = [all_block_sequences(length) for length in range(2, 11, 2)]
        assert self.texts_digest(runs) == (
            "2211660ebdcad5d2f130390613f1a7af286c8d5e9c5c6c4b1f8ac14afb498756"
        )

    def test_all_block_sequences(self):
        out = list(all_block_sequences(2))
        assert len(out) == 16
        texts = [bs.text for bs in out]
        assert texts == sorted(texts)
        with pytest.raises(ValueError):
            list(all_block_sequences(3))


def test_default_prunes_are_both():
    assert SearchConfig(order=4).prunes == ALL_PRUNES
