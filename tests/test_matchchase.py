import random

import pytest
from hypothesis import assume, given, strategies as st

from circhad.blockform import (
    BlockSequence,
    TwoBlock,
    all_block_sequences,
    block_decompose,
    cancellation_residual,
    is_symmetric_even,
)
from circhad.matchchase import (
    ChaseOutcome,
    ChaseStep,
    IndexPair,
    LagMatching,
    MatchingBook,
    chase,
    counterexample,
    even_pairs_at_lag,
    find_book,
    find_matching,
    parse_matching_lines,
    render_matching_lines,
    validate_matching,
)
from circhad.seqcore import SignSequence

from helpers import (
    random_sign_text,
    reference_chase,
    reference_even_pairs_at_lag,
    reference_find_matching,
    reference_validate_matching,
)


def blocks(text):
    return BlockSequence.from_text(text)


def pair(i, j):
    return IndexPair(i, j)


def random_blocks(rng, length):
    # a block sequence is just two stacked sign rows
    return BlockSequence.from_text(
        ",".join(random_sign_text(rng, 2) for _ in range(length))
    )


class TestIndexPair:
    def test_validation(self):
        with pytest.raises(ValueError):
            IndexPair(2, 2)
        with pytest.raises(ValueError):
            IndexPair(-1, 1)

    def test_lag(self):
        assert pair(4, 2).lag(6) == 4
        assert pair(0, 2).lag(6) == 2


class TestLagMatching:
    def test_involutive_representation(self):
        a = LagMatching.of(2, [(pair(0, 2), pair(2, 4))])
        b = LagMatching.of(2, [(pair(2, 4), pair(0, 2))])
        assert a == b
        book = MatchingBook([a])
        assert book.partner_of(pair(0, 2), 6) == pair(2, 4)
        assert book.partner_of(pair(2, 4), 6) == pair(0, 2)
        assert book.partner_of(pair(4, 0), 6) is None

    def test_reuse_rejected(self):
        with pytest.raises(ValueError):
            LagMatching.of(2, [(pair(0, 2), pair(2, 4)), (pair(0, 2), pair(4, 0))])

    def test_self_match_rejected(self):
        with pytest.raises(ValueError):
            LagMatching.of(2, [(pair(0, 2), pair(0, 2))])


class TestMatchingBook:
    def test_duplicate_lag_rejected(self):
        m = LagMatching.of(2, [(pair(0, 2), pair(2, 4))])
        with pytest.raises(ValueError):
            MatchingBook([m, m])

    def test_partner_lookup_routes_by_lag(self):
        _, book, _ = counterexample()
        assert book.partner_of(pair(0, 2), 6) == pair(2, 4)
        assert book.partner_of(pair(0, 4), 6) == pair(4, 2)
        assert book.partner_of(pair(2, 0), 6) is None
        assert book.lags() == (2, 4)


class TestValidateMatching:
    def test_counterexample_matchings_are_valid(self):
        bs, book, _ = counterexample()
        for m in book.matchings():
            verdict = validate_matching(bs, m)
            assert verdict.ok, verdict.violations

    def test_non_negating_products_rejected(self):
        bs, _, _ = counterexample()
        bad = LagMatching.of(2, [(pair(0, 2), pair(4, 0))])
        verdict = validate_matching(bs, bad)
        assert not verdict.ok
        assert any("not negatives" in v for v in verdict.violations)

    def test_odd_blocks_rejected(self):
        bs, _, _ = counterexample()
        bad = LagMatching.of(2, [(pair(1, 3), pair(3, 5))])
        verdict = validate_matching(bs, bad)
        assert any("odd" in v for v in verdict.violations)

    def test_wrong_lag_rejected(self):
        bs, _, _ = counterexample()
        bad = LagMatching.of(2, [(pair(0, 4), pair(2, 4))])
        assert any("lag" in v for v in validate_matching(bs, bad).violations)

    def test_out_of_range_rejected(self):
        bs, _, _ = counterexample()
        bad = LagMatching.of(2, [(pair(6, 8), pair(0, 2))])
        assert any("out of range" in v for v in validate_matching(bs, bad).violations)

    def test_zero_lag_rejected(self):
        bs, _, _ = counterexample()
        assert not validate_matching(bs, LagMatching.of(6, [])).ok

    @pytest.mark.parametrize("lag", [8, 7, 13, -4])
    def test_unreduced_lag_rejected(self, lag):
        # lag 8 would be read as lag 2, but the chase only ever looks up
        # lags 1..2n-1, so the matching would never be used
        bs, _, _ = counterexample()
        bad = LagMatching.of(lag, [(pair(0, 2), pair(2, 4))])
        assert validate_matching(bs, bad).violations == (
            f"lag {lag} is outside 1..5 for 6 blocks",
        )


class TestFindMatching:
    def test_counterexample_lag_two(self):
        bs, _, _ = counterexample()
        m = find_matching(bs, 2)
        assert m.pairs == ((pair(0, 2), pair(2, 4)),)
        assert pair(4, 0) in even_pairs_at_lag(bs, 2)
        assert MatchingBook([m]).partner_of(pair(4, 0), 6) is None

    def test_no_even_blocks(self):
        m = find_matching(blocks("+-,-+,+-,-+"), 1)
        assert m.pairs == ()

    def test_single_even_block(self):
        bs = blocks("-+,++")
        assert find_matching(bs, 1).pairs == ()

    def test_lag_validation(self):
        bs, _, _ = counterexample()
        with pytest.raises(ValueError):
            find_matching(bs, 0)
        with pytest.raises(ValueError):
            find_matching(bs, 6)

    def test_duality_and_validity_exhaustive_small(self):
        for length in (2, 4, 6):
            for bs in all_block_sequences(length):
                for u in range(1, length):
                    m = find_matching(bs, u)
                    verdict = validate_matching(bs, m)
                    assert verdict.ok, (bs.text, u, verdict.violations)
                    perfect = 2 * len(m.pairs) == len(even_pairs_at_lag(bs, u))
                    assert perfect == cancellation_residual(bs, u).is_zero

    def test_duality_and_validity_exhaustive_length_eight(self):
        for bs in all_block_sequences(8):
            for u in range(1, 8):
                m = find_matching(bs, u)
                assert validate_matching(bs, m).ok
                perfect = 2 * len(m.pairs) == len(even_pairs_at_lag(bs, u))
                assert perfect == cancellation_residual(bs, u).is_zero

    def test_validity_random_larger(self):
        rng = random.Random(31)
        for _ in range(100):
            length = rng.choice((8, 10, 12, 16))
            bs = random_blocks(rng, length)
            u = rng.randrange(1, length)
            assert validate_matching(bs, find_matching(bs, u)).ok


class TestReferenceEquivalence:
    """The mask-based functions against the object-based oracles."""

    @pytest.mark.parametrize("length", [2, 4, 6])
    def test_find_matching_exhaustive_small(self, length):
        for bs in all_block_sequences(length):
            for u in range(1, length):
                assert find_matching(bs, u) == reference_find_matching(bs, u), (bs.text, u)
                assert even_pairs_at_lag(bs, u) == reference_even_pairs_at_lag(bs, u)

    @pytest.mark.parametrize(
        "name, lag, pairs",
        [
            ("out of range", 2, [((6, 8), (0, 2)), ((0, 2), (4, 6))]),
            ("wrong lag", 2, [((0, 4), (2, 4)), ((4, 0), (2, 0))]),
            ("odd block", 2, [((1, 3), (3, 5)), ((0, 2), (5, 1))]),
            ("not negating", 2, [((0, 2), (4, 0))]),
            ("reused pair", 2, [((0, 2), (2, 4)), ((2, 4), (4, 0)), ((0, 2), (0, 2))]),
            ("lag zero", 0, [((0, 2), (2, 4))]),
            ("lag 2n", 6, []),
            ("unreduced lag", 8, [((0, 2), (2, 4))]),
            ("negative lag", -4, [((0, 2), (2, 4))]),
        ],
    )
    def test_bad_matching_violations_identical(self, name, lag, pairs):
        bs, _, _ = counterexample()
        # built directly, so that a reused pair gets past LagMatching.of
        m = LagMatching(lag, tuple((pair(*p), pair(*q)) for p, q in pairs))
        verdict = validate_matching(bs, m)
        assert not verdict.ok
        assert verdict == reference_validate_matching(bs, m)

    @pytest.mark.parametrize(
        "pairs, expected",
        [
            # (0,2) first as the left member, then again on the left
            ([((0, 2), (2, 4)), ((0, 2), (4, 0))], {(0, 2): (2, 4), (4, 0): (0, 2)}),
            # (2,4) first as the right member, then on the right
            ([((0, 2), (2, 4)), ((4, 0), (2, 4))], {(2, 4): (0, 2), (4, 0): (2, 4)}),
            # (2,4) first as the right member, then on the left
            ([((0, 2), (2, 4)), ((2, 4), (4, 0))], {(2, 4): (0, 2), (4, 0): (2, 4)}),
        ],
    )
    def test_partner_first_occurrence_wins(self, pairs, expected):
        # built directly, so that a reused pair gets past LagMatching.of
        m = LagMatching(2, tuple((pair(*p), pair(*q)) for p, q in pairs))
        book = MatchingBook([m])
        for p, q in expected.items():
            assert book.partner_of(pair(*p), 6) == pair(*q)
        assert book.partner_of(pair(1, 3), 6) is None

    def test_partner_table_is_not_a_field(self):
        m = LagMatching.of(2, [(pair(0, 2), pair(2, 4))])
        assert MatchingBook([m]).partner_of(pair(0, 2), 6) == pair(2, 4)
        assert m == LagMatching.of(2, [(pair(0, 2), pair(2, 4))])
        # the fields are exactly lag and pairs
        assert LagMatching.__match_args__ == ("lag", "pairs")
        assert repr(m) == (
            "LagMatching(lag=2, pairs=((IndexPair(first=0, second=2), IndexPair(first=2, second=4)),))"
        )


ALL_BLOCKS = tuple(TwoBlock.from_text(t) for t in ("++", "+-", "-+", "--"))


@st.composite
def block_rows(draw):
    length = 2 * draw(st.integers(1, 25))
    return BlockSequence(draw(st.lists(st.sampled_from(ALL_BLOCKS), min_size=length, max_size=length)))


@given(block_rows())
def test_matching_book_and_chase_match_reference(bs):
    mod = len(bs)
    found = []
    for u in range(1, mod):
        m = find_matching(bs, u)
        assert m == reference_find_matching(bs, u)
        assert even_pairs_at_lag(bs, u) == reference_even_pairs_at_lag(bs, u)
        assert validate_matching(bs, m) == reference_validate_matching(bs, m)
        found.append(m)
    book = find_book(bs)
    assert book == MatchingBook(m for m in found if m.pairs)
    evens = bs.even_indices()
    for a in evens:
        if is_symmetric_even(bs, a):
            continue
        for b in evens:
            if b != a:
                start = pair(a, b)
                assert chase(bs, book, start) == reference_chase(bs, book, start)


def chase_starts(bs):
    evens = bs.even_indices()
    return [pair(a, b) for a in evens if not is_symmetric_even(bs, a) for b in evens if b != a]


@given(block_rows(), block_rows())
def test_warm_step_table_matches_reference(row, other):
    # one book serves every start of its own row, and then of a row of
    # another length, so later chases take their steps from the table
    assume(len(row) != len(other))
    for bs, companion in ((row, other), (other, row)):
        mod = len(bs)
        found = [find_matching(bs, u) for u in range(1, mod)]
        book = find_book(bs)
        assert book == MatchingBook(m for m in found if m.pairs)
        for rows in (bs, companion):
            for start in chase_starts(rows):
                assert chase(rows, book, start) == reference_chase(rows, book, start)


def test_outcomes_as_keys():
    tally = dict.fromkeys(ChaseOutcome, 0)
    for outcome in (*ChaseOutcome, ChaseOutcome("Cycle"), ChaseOutcome["DEGENERATE"]):
        tally[outcome] += 1
    assert list(tally.values()) == [2, 1, 2]
    assert set(ChaseOutcome) | {ChaseOutcome("Cycle")} == set(ChaseOutcome)
    assert ChaseOutcome.CYCLE not in {ChaseOutcome.DEGENERATE}


@st.composite
def arbitrary_matchings(draw):
    bs = draw(block_rows())
    mod = len(bs)
    # mostly lags in range and pairs at the lag, so the later checks are reached
    lag = draw(st.one_of(st.integers(1, mod - 1), st.integers(-1, 2 * mod)))
    index = st.integers(0, mod + 1)
    at_lag = index.map(lambda i: (i, (i + lag) % mod))
    index_pairs = (
        st.one_of(at_lag, at_lag, st.tuples(index, index))
        .filter(lambda t: t[0] != t[1])
        .map(lambda t: pair(*t))
    )
    pairs = draw(st.lists(st.tuples(index_pairs, index_pairs), min_size=1, max_size=6))
    return bs, LagMatching(lag, tuple(pairs))


@given(arbitrary_matchings())
def test_validate_arbitrary_matching_matches_reference(case):
    bs, m = case
    assert validate_matching(bs, m) == reference_validate_matching(bs, m)


@given(arbitrary_matchings())
def test_chase_on_arbitrary_book_matches_reference(case):
    # an unvalidated book: pairs at any lag, some repeated or out of range
    bs, m = case
    book = MatchingBook([m, LagMatching(m.lag + 1, m.pairs)])
    evens = bs.even_indices()
    for a in evens:
        if is_symmetric_even(bs, a):
            continue
        for b in evens:
            if b != a:
                assert chase(bs, book, pair(a, b)) == reference_chase(bs, book, pair(a, b))


class TestChase:
    def test_counterexample_cycles(self):
        bs, book, start = counterexample()
        trace = chase(bs, book, start)
        assert trace.steps == (
            ChaseStep(pair(0, 2), pair(2, 4)),
            ChaseStep(pair(0, 4), pair(4, 2)),
        )
        assert trace.outcome is ChaseOutcome.CYCLE
        assert trace.repeat == pair(0, 2)

    def test_empty_book_is_unavailable_immediately(self):
        bs, _, start = counterexample()
        trace = chase(bs, MatchingBook(), start)
        assert trace.outcome is ChaseOutcome.MATCHING_UNAVAILABLE
        assert trace.successful_steps() == 0
        assert trace.steps == (ChaseStep(start, None),)

    def test_unavailable_after_progress(self):
        # frozen witness: evens 0,1,2 with signs +,+,-; lag 1 matches
        # (0,1)~(1,2), lag 2 has a lone candidate (0,2), so the chase makes
        # one step and then finds no matching for (0,2)
        bs = blocks("++,++,--,+-,+-,+-")
        book = find_book(bs)
        trace = chase(bs, book, pair(0, 1))
        assert trace.steps == (
            ChaseStep(pair(0, 1), pair(1, 2)),
            ChaseStep(pair(0, 2), None),
        )
        assert trace.outcome is ChaseOutcome.MATCHING_UNAVAILABLE
        assert trace.successful_steps() == 1

    def test_degenerate_when_next_obligation_collapses(self):
        # frozen witness: evens 0,2,4 with signs +,+,-; at lag 4 the found
        # matching pairs (0,4) with (2,0), whose endpoint is the start index
        bs = blocks("++,+-,++,+-,--,+-")
        book = find_book(bs)
        trace = chase(bs, book, pair(0, 2))
        assert trace.steps == (
            ChaseStep(pair(0, 2), pair(2, 4)),
            ChaseStep(pair(0, 4), pair(2, 0)),
        )
        assert trace.outcome is ChaseOutcome.DEGENERATE

    def test_start_validation(self):
        bs, book, _ = counterexample()
        with pytest.raises(ValueError):
            chase(bs, book, pair(1, 3))  # odd blocks
        with pytest.raises(ValueError):
            chase(bs, book, pair(0, 8))  # out of range
        # block 0 is symmetric here because block 3 = block 0+n is even too
        symmetric_bs = blocks("++,+-,--,++,--,+-")
        assert is_symmetric_even(symmetric_bs, 0)
        with pytest.raises(ValueError):
            chase(symmetric_bs, find_book(symmetric_bs), pair(0, 2))

    def test_deterministic_and_bounded(self):
        rng = random.Random(37)
        for _ in range(50):
            bs = random_blocks(rng, 8)
            evens = bs.even_indices()
            if len(evens) < 2:
                continue
            book = find_book(bs)
            starts = [
                pair(i, j)
                for i in evens
                if not is_symmetric_even(bs, i)
                for j in evens
                if j != i
            ]
            for start in starts:
                first = chase(bs, book, start)
                second = chase(bs, book, start)
                assert first == second
                assert len(first.steps) <= len(evens) ** 2 + 1

    def test_book_builds_each_step_once(self):
        # a second chase from every start finds each of its steps in the
        # book's step table, as the very objects the first pass built
        rng = random.Random(36)
        row = block_decompose(SignSequence.from_text(random_sign_text(rng, 36)))
        assert len(row) == 18 and chase_starts(row)
        cx = counterexample()
        for bs, book in ((cx.blocks, cx.book), (row, find_book(row))):
            built = {}
            first = [chase(bs, book, start) for start in chase_starts(bs)]
            second = [chase(bs, book, start) for start in chase_starts(bs)]
            for old, new in zip(first, second):
                assert new == old and len(new.steps) == len(old.steps)
                assert all(s is t for s, t in zip(new.steps, old.steps))
                for step in old.steps:
                    assert built.setdefault(step.obligation, step) is step


class TestCounterexampleData:
    def test_block_content(self):
        bs, book, start = counterexample()
        assert bs.text == "++,+-,--,+-,--,+-"
        assert bs.even_indices() == (0, 2, 4)
        assert all(not is_symmetric_even(bs, i) for i in (0, 2, 4))
        assert start == pair(0, 2)
        assert book.lags() == (2, 4)
        assert book.matching_at(2).pairs == ((pair(0, 2), pair(2, 4)),)
        assert book.matching_at(4).pairs == ((pair(0, 4), pair(4, 2)),)


class TestMatchingLines:
    def test_parse_and_render_roundtrip(self):
        lines = ["u=2: (0,2)~(2,4)", "u=4: (0,4)~(4,2)"]
        book = parse_matching_lines(lines)
        assert render_matching_lines(book) == lines

    def test_whitespace_insensitive(self):
        book = parse_matching_lines(["  u = 2 :  ( 0 , 2 ) ~ ( 2 , 4 )  "])
        assert book.matching_at(2).pairs == ((pair(0, 2), pair(2, 4)),)

    @pytest.mark.parametrize(
        "line", ["u=1 0: (0,2)~(2,4)", "u=2: (0 1,2)~(2,4)", "u=2: (0,2)~(2,4 1)", "u 2: (0,2)~(2,4)"]
    )
    def test_whitespace_inside_a_number_rejected(self, line):
        # whitespace parts the fields only next to a separator; elsewhere it
        # would join two numbers into one
        with pytest.raises(ValueError, match=r"^line 2: cannot parse matching "):
            parse_matching_lines(["u=2: (0,2)~(2,4)", "\t" + line + " "])

    def test_blank_lines_skipped(self):
        book = parse_matching_lines(["", "u=2: (0,2)~(2,4)", "   "])
        assert len(book) == 1

    def test_same_lag_accumulates(self):
        book = parse_matching_lines(["u=1: (0,1)~(1,2)", "u=1: (2,3)~(3,4)"])
        assert len(book.matching_at(1).pairs) == 2

    def test_malformed_line_reports_position(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_matching_lines(["u=2: (0,2)~(2,4)", "nonsense"])

    @pytest.mark.parametrize(
        "line", ["u=٢: (0,2)~(2,4)", "u=2: (0,٢)~(2,4)", "u=2: (0,2)~(2,4"]
    )
    def test_only_ascii_digits_and_closed_parentheses(self, line):
        with pytest.raises(ValueError, match="line 1: cannot parse matching"):
            parse_matching_lines([line])

    def test_reused_pair_rejected(self):
        reused = r"^line 2: index pair \(0,2\) is matched more than once$"
        with pytest.raises(ValueError, match=reused):
            parse_matching_lines(["u=2: (0,2)~(2,4)", "u=2: (0,2)~(4,0)"])

    def test_self_match_names_its_line(self):
        with pytest.raises(ValueError, match=r"^line 3: \(0,2\) cannot be matched with itself$"):
            parse_matching_lines(["u=2: (0,2)~(2,4)", "", "u=4: (0,2)~(0,2)"])

    def test_pairs_are_claimed_per_lag(self):
        book = parse_matching_lines(["u=2: (0,2)~(2,4)", "u=4: (2,4)~(0,2)"])
        matched = ((pair(0, 2), pair(2, 4)),)
        assert book.matching_at(2).pairs == book.matching_at(4).pairs == matched
