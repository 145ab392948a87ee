import itertools
import random

import pytest
from hypothesis import given, strategies as st

from circhad.blockform import (
    BlockSequence,
    Parity,
    SymBlockMatrix,
    TwoBlock,
    _residual,
    all_block_sequences,
    block_decompose,
    block_product,
    cancellation_holds,
    cancellation_residual,
    enumerate_block_sequences,
    even_count,
    is_symmetric_even,
    recompose,
)
from circhad import blockform
from circhad.seqcore import SignSequence, _lag_masks, _paf_vanishes, paf

from helpers import (
    all_sign_texts,
    random_sign_text,
    reference_residual,
    reference_ternary_paf,
)

COUNTEREXAMPLE_BLOCKS = "++,+-,--,+-,--,+-"

EVEN_BLOCKS = (TwoBlock(1, 1), TwoBlock(-1, -1))
ODD_BLOCKS = (TwoBlock(1, -1), TwoBlock(-1, 1))
ALL_BLOCKS = EVEN_BLOCKS + ODD_BLOCKS


def seq(text):
    return SignSequence.from_text(text)


def blocks(text):
    return BlockSequence.from_text(text)


class TestTwoBlock:
    def test_parity(self):
        assert TwoBlock(1, 1).parity is Parity.EVEN
        assert TwoBlock(1, -1).parity is Parity.ODD
        assert TwoBlock(-1, -1).parity is Parity.EVEN

    def test_entry_validation(self):
        with pytest.raises(ValueError):
            TwoBlock(0, 1)
        with pytest.raises(ValueError):
            TwoBlock(1, 2)

    def test_text_roundtrip(self):
        for b in ALL_BLOCKS:
            assert TwoBlock.from_text(b.text) == b
        with pytest.raises(ValueError):
            TwoBlock.from_text("+")
        with pytest.raises(ValueError):
            TwoBlock.from_text("+x")


class TestBlockSequence:
    def test_parse_and_render(self):
        bs = blocks(COUNTEREXAMPLE_BLOCKS)
        assert bs.text == COUNTEREXAMPLE_BLOCKS
        assert len(bs) == 6
        assert bs.n == 3

    def test_whitespace_tolerated_between_blocks(self):
        assert blocks("++, +-").text == "++,+-"

    def test_rejects_odd_or_short_counts(self):
        with pytest.raises(ValueError):
            blocks("++")
        with pytest.raises(ValueError):
            blocks("++,+-,--")
        with pytest.raises(ValueError):
            blocks("")

    def test_indexing_is_cyclic(self):
        bs = blocks("++,+-")
        assert bs[2] == bs[0]
        assert bs[-1] == bs[1]

    def test_even_indices(self):
        assert blocks(COUNTEREXAMPLE_BLOCKS).even_indices() == (0, 2, 4)

    def test_view_agrees_with_tuple_oracle(self):
        # a row is stored as its packed sign row; every view of it must read
        # as the TwoBlock tuple it was built from, by either constructor
        rng = random.Random(37)
        oracles = [
            o for length in (2, 4, 6) for o in itertools.product(ALL_BLOCKS, repeat=length)
        ]
        for _ in range(200):
            length = 2 * rng.randrange(1, 26)
            oracles.append(tuple(rng.choice(ALL_BLOCKS) for _ in range(length)))
        # long rows too, of L / 2 blocks at order L
        for L in (16, 36, 64, 100, 400):
            oracles.append(tuple(rng.choice(ALL_BLOCKS) for _ in range(L // 2)))
        for oracle in oracles:
            count = len(oracle)
            checked = BlockSequence(oracle)
            decomposed = block_decompose(
                SignSequence([b.diag for b in oracle] + [b.offdiag for b in oracle])
            )
            for bs in (checked, decomposed):
                assert bs.blocks == oracle
                assert tuple(bs) == oracle
                assert [bs[i] for i in range(-2 * count, 3 * count)] == list(oracle) * 5
                assert bs.text == ",".join(b.text for b in oracle)
            assert checked == decomposed
            assert hash(checked) == hash(decomposed)
        # == agrees with tuple equality, across lengths too (++,++ and
        # ++,++,++,++ share their packed bits)
        short = [o for o in oracles if len(o) <= 4]
        rows = [BlockSequence(o) for o in short]
        for a, x in zip(short, rows):
            for b, y in zip(short, rows):
                assert (x == y) == (a == b)


class TestDecompose:
    def test_order_four(self):
        bs = block_decompose(seq("-+++"))
        assert bs.blocks == (TwoBlock(-1, 1), TwoBlock(1, 1))
        assert [b.parity for b in bs] == [Parity.ODD, Parity.EVEN]

    def test_constant_sequence(self):
        bs = block_decompose(seq("++++"))
        assert bs.blocks == (TwoBlock(1, 1), TwoBlock(1, 1))

    def test_alternating_sequence(self):
        bs = block_decompose(seq("+-+-+-+-"))
        assert bs.text == "++,--,++,--"
        assert all(b.is_even for b in bs)

    def test_rejects_bad_length(self):
        for text in ("+", "+-", "+-+", "+-+-+-"):
            with pytest.raises(ValueError, match=f"^length {len(text)} is not divisible by 4$"):
                block_decompose(seq(text))

    def test_roundtrip(self):
        rng = random.Random(23)
        for _ in range(50):
            L = 4 * rng.randrange(1, 17)
            h = seq(random_sign_text(rng, L))
            assert recompose(block_decompose(h)) == h

    def test_masks_match_validating_constructor(self):
        # the masks come from the packed bits, not from the blocks
        rng = random.Random(31)
        texts = [t for L in (4, 8, 12) for t in all_sign_texts(L)]
        texts += [random_sign_text(rng, 4 * rng.randrange(4, 26)) for _ in range(200)]
        for text in texts:
            bs = block_decompose(seq(text))
            checked = BlockSequence(bs.blocks)
            assert (bs._even, bs._minus) == (checked._even, checked._minus), text


class TestEvenCount:
    def test_counterexample_has_n_even(self):
        assert even_count(blocks(COUNTEREXAMPLE_BLOCKS)) == 3

    def test_order_four(self):
        assert even_count(block_decompose(seq("-+++"))) == 1

    def test_all_even(self):
        assert even_count(blocks("++,--,++,--,++,--")) == 6

    def test_even_count_law(self):
        # paf(h, 2n) = 4 * (even count) - 4n, so zero correlation at the
        # half lag pins the even count to exactly n
        rng = random.Random(29)
        checked = 0
        while checked < 400:
            L = rng.choice((8, 12, 16, 20))
            h = seq(random_sign_text(rng, L))
            if paf(h, L // 2) != 0:
                continue
            assert even_count(block_decompose(h)) == L // 4
            checked += 1


class TestBlockProduct:
    def test_plus_times_minus(self):
        assert block_product(TwoBlock(1, 1), TwoBlock(-1, -1)) == SymBlockMatrix(-2, -2)

    def test_minus_times_minus(self):
        assert block_product(TwoBlock(-1, -1), TwoBlock(-1, -1)) == SymBlockMatrix(2, 2)

    def test_odd_squared(self):
        assert block_product(TwoBlock(1, -1), TwoBlock(1, -1)) == SymBlockMatrix(2, -2)

    def test_even_products_are_plus_minus_2j(self):
        for a, b in itertools.product(EVEN_BLOCKS, repeat=2):
            prod = block_product(a, b)
            assert prod.diag == prod.offdiag
            assert abs(prod.diag) == 2
            assert prod.diag == 2 * a.diag * b.diag

    def test_products_commute(self):
        for a, b in itertools.product(ALL_BLOCKS, repeat=2):
            assert block_product(a, b) == block_product(b, a)


class TestResidual:
    def test_single_even_block_gives_empty_sum(self):
        bs = block_decompose(seq("-+++"))
        assert cancellation_residual(bs, 1).is_zero

    def test_counterexample_lag_two(self):
        bs = blocks(COUNTEREXAMPLE_BLOCKS)
        assert cancellation_residual(bs, 2) == SymBlockMatrix(-2, -2)

    def test_all_plus_length_four(self):
        bs = blocks("++,++,++,++")
        assert cancellation_residual(bs, 1) == SymBlockMatrix(8, 8)

    def test_lag_zero_rejected(self):
        bs = blocks(COUNTEREXAMPLE_BLOCKS)
        with pytest.raises(ValueError):
            cancellation_residual(bs, 0)
        with pytest.raises(ValueError):
            cancellation_residual(bs, 6)

    def test_lags_fold_cyclically(self):
        bs = blocks(COUNTEREXAMPLE_BLOCKS)
        assert cancellation_residual(bs, 8) == cancellation_residual(bs, 2)

    def test_residual_symmetric_in_lag_reversal(self):
        for combo in itertools.product(ALL_BLOCKS, repeat=4):
            bs = BlockSequence(combo)
            for u in range(1, 4):
                assert cancellation_residual(bs, u) == cancellation_residual(bs, 4 - u)

    def test_holds_examples(self):
        assert cancellation_holds(block_decompose(seq("-+++")))
        assert not cancellation_holds(blocks(COUNTEREXAMPLE_BLOCKS))
        assert cancellation_holds(blocks("+-,-+,+-,-+"))

    @pytest.mark.parametrize("length", [2, 4, 6])
    def test_matches_reference_exhaustively(self, length):
        held = 0
        for bs in all_block_sequences(length):
            expected = [reference_residual(bs, u) for u in range(1, length)]
            assert [cancellation_residual(bs, u) for u in range(1, length)] == expected
            holds = cancellation_holds(bs)
            assert holds == all(r.is_zero for r in expected)
            held += holds
            evens = tuple(i for i, b in enumerate(bs) if b.is_even)
            assert bs.even_indices() == evens
            assert even_count(bs) == len(evens)
        assert 0 < held < 4**length


@st.composite
def block_rows(draw):
    length = 2 * draw(st.integers(1, 25))
    return BlockSequence(draw(st.lists(st.sampled_from(ALL_BLOCKS), min_size=length, max_size=length)))


@given(block_rows())
def test_residual_matches_reference_and_compression(bs):
    h = recompose(bs)
    half = len(bs)
    references = []
    for u in range(1, half):
        residual = cancellation_residual(bs, u)
        reference = reference_residual(bs, u)
        assert residual == reference
        # the 2-compression identity: residual = (paf(h,u) + paf(h,u+2n)) / 2 * J
        assert residual.diag == residual.offdiag == (paf(h, u) + paf(h, u + half)) // 2
        references.append(reference)
    assert cancellation_holds(bs) == all(r.is_zero for r in references)


@given(block_rows())
def test_residual_sum_over_lags(bs):
    # with the compression c_d = diag if M_d is even else 0, the residual at
    # lag u is 2 * paf(c, u), and the paf of c summed over all lags is (sum c)^2
    c = [b.diag if b.is_even else 0 for b in bs]
    weight = sum(x * x for x in c)
    total = sum(_residual(bs, u) for u in range(1, len(bs)))
    assert total == 2 * (sum(c) ** 2 - weight)


@st.composite
def sign_rows_4n(draw):
    L = 4 * draw(st.integers(1, 25))
    return SignSequence.from_bits(L, draw(st.integers(0, (1 << L) - 1)))


@given(sign_rows_4n())
def test_residual_is_twice_the_compression_paf(h):
    # the compression of a row of order 4n is c_d = (h[d] + h[d + 2n]) / 2,
    # and the even-pair residual at lag u is 2 * paf(c, u)
    half = len(h) // 2
    e = h.entries
    c = [(e[d] + e[d + half]) // 2 for d in range(half)]
    bs = block_decompose(h)
    for u in range(1, half):
        assert _residual(bs, u) == 2 * reference_ternary_paf(c, u)


# every row of 2 to 8 blocks, and every row of 2n blocks with n even blocks
ENUMERATIONS = [(all_block_sequences, length) for length in (2, 4, 6, 8)] + [
    (enumerate_block_sequences, n) for n in (1, 2, 3, 4)
]


class TestLagTable:
    @staticmethod
    def assert_table_is_lag_masks(bs, lags):
        # filled lag by lag in the order given; every read, first or later,
        # is _lag_masks of the compression
        count = len(bs)
        for u in lags:
            assert bs._lag(u) == _lag_masks(bs._even, bs._minus, u, count)
        for u in range(1, count):
            assert bs._lag(u) == _lag_masks(bs._even, bs._minus, u, count)

    @pytest.mark.parametrize("length", [2, 4, 6, 8])
    def test_every_small_row(self, length):
        for bs in all_block_sequences(length):
            self.assert_table_is_lag_masks(bs, range(length - 1, 0, -1))

    def test_seeded_long_rows(self):
        rng = random.Random(41)
        for count in (16, 36, 64, 100):
            for _ in range(3):
                h = seq(random_sign_text(rng, 2 * count))
                lags = rng.sample(range(1, count), count // 3)
                for bs in (block_decompose(h), BlockSequence(block_decompose(h).blocks)):
                    self.assert_table_is_lag_masks(bs, lags)

    def test_one_lag_fills_one_entry(self):
        bs = blocks(COUNTEREXAMPLE_BLOCKS)
        cancellation_residual(bs, 2)
        assert [u for u, masks in enumerate(bs._lags) if masks is not None] == [2]

    def test_eqn1_enumeration_fills_only_verdicts(self):
        # the census path decides eq. (1) once per compression and reads no
        # lag: its 17920 rows hold one table per compression, 1120 in all,
        # each with its verdict in entry 0 and every lag entry unset
        seen = []

        def census(bs):
            seen.append(bs)
            return cancellation_holds(bs)

        rows = list(enumerate_block_sequences(4, census))
        assert (len(rows), len(seen)) == (768, 17920)
        tables = {id(bs._lags): bs._lags for bs in seen}
        assert len(tables) == 1120
        for lags in tables.values():
            assert type(lags[0]) is bool and lags[1:] == [None] * 7
        assert all(bs._lags[0] for bs in rows)
        # a row built outside an enumeration is born with an unset table
        # that no other row shares, and the verdict fills entry 0 only
        decomposed = block_decompose(seq("-+++"))
        built = BlockSequence(decomposed.blocks)
        assert decomposed._lags is not built._lags
        for bs in (decomposed, built):
            assert bs._lags == [None, None] and id(bs._lags) not in tables
            assert cancellation_holds(bs) and bs._lags == [True, None]

    @pytest.mark.parametrize("make, size", ENUMERATIONS, ids=lambda v: getattr(v, "__name__", v))
    def test_rows_share_a_table_exactly_when_compressions_are_equal(self, make, size):
        rows = list(make(size))
        if make is enumerate_block_sequences and size in (2, 3):
            # no compression of a non-square even count passes eq. (1): each
            # row has a table of its own, born with the verdict False
            assert len({id(bs._lags) for bs in rows}) == len(rows)
            assert all(bs._lags == [False] + [None] * (len(bs) - 1) for bs in rows)
            return
        tables = {}
        for bs in rows:
            assert tables.setdefault((bs._even, bs._minus), bs._lags) is bs._lags
        assert len({id(lags) for lags in tables.values()}) == len(tables)
        assert all(lags == [None] * len(rows[0]) for lags in tables.values())

    @pytest.mark.parametrize("make, size", ENUMERATIONS, ids=lambda v: getattr(v, "__name__", v))
    def test_shared_verdict_is_each_rows_own(self, make, size):
        # whichever row of a compression decides it first, every row reads
        # the verdict of its own compression, first and on a later read
        def fresh(bs):
            return _paf_vanishes(bs._even, bs._minus, len(bs))

        backward = list(make(size))[::-1]
        shuffled = list(make(size))
        random.Random(size).shuffle(shuffled)
        for rows in (backward, shuffled):
            assert [cancellation_holds(bs) for bs in rows] == [fresh(bs) for bs in rows]
            assert [cancellation_holds(bs) for bs in rows] == [fresh(bs) for bs in rows]

    def test_two_enumerations_share_no_table(self):
        first = list(enumerate_block_sequences(3))
        second = list(enumerate_block_sequences(3))
        assert not {id(bs._lags) for bs in first} & {id(bs._lags) for bs in second}
        for bs in first:
            cancellation_residual(bs, 1)
            cancellation_holds(bs)
        # n = 3 is not a square, so every verdict is False from the start
        assert all(bs._lags == [False] + [None] * 5 for bs in second)

    def test_eqn1_decided_once_per_compression(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return _paf_vanishes(*args)

        monkeypatch.setattr(blockform, "_paf_vanishes", counted)
        assert sum(1 for _ in enumerate_block_sequences(4, cancellation_holds)) == 768
        assert len(calls) == 1120
        assert len(set(calls)) == 1120

    def test_non_square_enumeration_shares_no_table(self):
        # at n = 5 no compression passes eq. (1): rows of one compression
        # keep tables of their own, so none outlives its row, and the
        # verdict each is born with is the one a fresh decision gives
        rows = list(itertools.islice(enumerate_block_sequences(5), 2000))
        assert len({(bs._even, bs._minus) for bs in rows}) < len(rows)
        assert len({id(bs._lags) for bs in rows}) == len(rows)
        for bs in rows:
            assert cancellation_holds(bs) is _paf_vanishes(bs._even, bs._minus, len(bs)) is False


class TestSymmetricEven:
    def test_counterexample_has_no_symmetric_even_block(self):
        bs = blocks(COUNTEREXAMPLE_BLOCKS)
        for i in (0, 2, 4):
            assert not is_symmetric_even(bs, i)

    def test_all_even_sequence(self):
        bs = blocks("++,--,++,--,++,--")
        for i in range(6):
            assert is_symmetric_even(bs, i)

    def test_odd_block_rejected(self):
        with pytest.raises(ValueError):
            is_symmetric_even(blocks(COUNTEREXAMPLE_BLOCKS), 1)


class TestSymBlockMatrix:
    def test_algebra(self):
        m = SymBlockMatrix(2, -2)
        assert (m + (-m)).is_zero
        assert m.rows() == ((2, -2), (-2, 2))
