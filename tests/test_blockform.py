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
    block_decompose,
    block_product,
    cancellation_holds,
    cancellation_residual,
    even_count,
    is_symmetric_even,
    recompose,
)
from circhad.searcher import all_block_sequences
from circhad.seqcore import SignSequence, paf

from helpers import all_sign_texts, random_sign_text, reference_residual

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
            with pytest.raises(ValueError):
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
