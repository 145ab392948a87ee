import itertools
import random

import numpy as np
import pytest

from hypothesis import given, strategies as st

from circhad.seqcore import (
    PafSpectrum,
    SignSequence,
    _lag_masks,
    _paf_vanishes,
    _ternary_paf,
    circulant_matrix,
    circulant_row,
    is_circulant_hadamard,
    paf,
    paf_spectrum,
)

from helpers import (
    all_sign_texts,
    dense_circulant,
    dense_hadamard_ok,
    random_sign_text,
    reference_ternary_paf,
)


def seq(text):
    return SignSequence.from_text(text)


class TestParsing:
    def test_text_roundtrip(self):
        for text in ("+", "-", "-+++", "+--+-+++"):
            assert seq(text).text == text

    def test_text_matches_each_entry_up_to_4096(self):
        # the text is read from the packed bits in one go; each character
        # must still be the sign of its own entry, leading and trailing +1
        # entries included
        rng = random.Random(43)
        for L in (1, 2, 3, 63, 64, 65, 1000, 4095, 4096):
            for bits in (0, 1, 1 << L - 1, (1 << L) - 1, rng.getrandbits(L)):
                h = SignSequence.from_bits(L, bits)
                assert h.text == "".join("-" if h[k] == -1 else "+" for k in range(L))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            SignSequence.from_text("")

    def test_rejects_foreign_characters(self):
        for bad in ("+*+-", "ab", "+ -", "01"):
            with pytest.raises(ValueError):
                SignSequence.from_text(bad)

    def test_entries_must_be_signs(self):
        with pytest.raises(ValueError):
            SignSequence([1, 0, -1])
        with pytest.raises(ValueError):
            SignSequence([])

    def test_from_bits(self):
        assert SignSequence.from_bits(4, 0b0001).text == "-+++"
        with pytest.raises(ValueError):
            SignSequence.from_bits(2, 0b100)
        with pytest.raises(ValueError):
            SignSequence.from_bits(0, 0)

    def test_indexing_is_cyclic(self):
        h = seq("-+++")
        assert h[0] == -1
        assert h[4] == -1
        assert h[-1] == 1
        assert h[7] == 1


class TestPaf:
    def test_all_ones_lag2(self):
        assert paf(seq("++++"), 2) == 4

    def test_minus_plus_plus_plus_lag1(self):
        # direct evaluation of the defining sum: -1 + 1 + 1 - 1
        assert paf(seq("-+++"), 1) == 0

    def test_lag_zero_is_length(self):
        rng = random.Random(7)
        for _ in range(20):
            L = rng.randrange(1, 40)
            h = seq(random_sign_text(rng, L))
            assert paf(h, 0) == L

    def test_lags_fold_cyclically(self):
        h = seq("+--+-+++")
        L = len(h)
        assert paf(h, -1) == paf(h, L - 1)
        assert paf(h, L + 3) == paf(h, 3)

    def test_spectrum_examples(self):
        assert list(paf_spectrum(seq("-+++"))) == [4, 0, 0, 0]
        assert list(paf_spectrum(seq("++++"))) == [4, 4, 4, 4]
        assert list(paf_spectrum(seq("+-"))) == [2, -2]

    def test_spectrum_invariants_random(self):
        rng = random.Random(11)
        for _ in range(300):
            L = rng.randrange(1, 65)
            h = seq(random_sign_text(rng, L))
            values = list(paf_spectrum(h))
            assert values[0] == L
            for u in range(1, L):
                assert values[u] == values[L - u]
            assert sum(values) == h.row_sum() ** 2

    def test_rotation_and_negation_invariance(self):
        rng = random.Random(13)
        for _ in range(50):
            L = rng.randrange(2, 33)
            h = seq(random_sign_text(rng, L))
            s = rng.randrange(L)
            u = rng.randrange(L)
            assert paf(h.rotate(s), u) == paf(h, u)
            assert paf(h.negate(), u) == paf(h, u)

    def test_spectrum_type_guards(self):
        with pytest.raises(ValueError):
            PafSpectrum(())
        with pytest.raises(ValueError):
            PafSpectrum((3, 0, 0, 0))
        with pytest.raises(ValueError):
            PafSpectrum((4, 1, 0, 0))

    def test_spectrum_symmetry_check(self):
        # values[u] == values[L - u]; at even L the middle lag pairs with itself
        for values in ((1,), (2, -2), (3, -1, -1), (4, 0, 1, 0)):
            assert PafSpectrum(values).values == values
        message = "^spectrum must be symmetric about the half length$"
        for values in ((5, 1, 0, 2, 1), (4, 0, 0, 1)):
            with pytest.raises(ValueError, match=message):
                PafSpectrum(values)

    def test_spectrum_from_a_list_is_a_frozen_tuple(self):
        spectrum = PafSpectrum([4, 0, 0, 0])
        assert spectrum == PafSpectrum((4, 0, 0, 0))
        assert hash(spectrum) == hash(PafSpectrum((4, 0, 0, 0)))
        assert spectrum.values == (4, 0, 0, 0)
        with pytest.raises(TypeError):
            spectrum.values[1] = 7
        assert spectrum.values == (4, 0, 0, 0)


class TestHadamardPredicate:
    def test_known_order_four(self):
        assert is_circulant_hadamard(seq("-+++"))
        assert not is_circulant_hadamard(seq("++++"))

    def test_length_eight_sample(self):
        assert not is_circulant_hadamard(seq("+--+-+++"))

    def test_orders_one_and_two_rejected(self):
        for text in ("+", "-", "++", "+-", "-+", "--"):
            assert not is_circulant_hadamard(seq(text))

    def test_agrees_with_dense_oracle_exhaustively(self):
        for L in range(1, 9):
            for text in all_sign_texts(L):
                assert is_circulant_hadamard(seq(text)) == dense_hadamard_ok(text), text

    def test_agrees_with_dense_oracle_random(self):
        rng = random.Random(17)
        for _ in range(300):
            L = rng.randrange(1, 65)
            text = random_sign_text(rng, L)
            assert is_circulant_hadamard(seq(text)) == dense_hadamard_ok(text), text


class TestCirculant:
    def test_row_zero_is_identity(self):
        assert circulant_row(seq("-+++"), 0).text == "-+++"

    def test_row_one_is_shift(self):
        assert circulant_row(seq("-+++"), 1).text == "+-++"
        assert circulant_row(seq("+-"), 1).text == "-+"

    def test_row_out_of_range(self):
        with pytest.raises(ValueError):
            circulant_row(seq("-+++"), 4)
        with pytest.raises(ValueError):
            circulant_row(seq("-+++"), -1)

    def test_matrix_rows_match_row_accessor(self):
        rng = random.Random(16)
        texts = ["-+++", "+--+-+++"]
        texts += [random_sign_text(rng, L) for L in (4, 8, 16) for _ in range(3)]
        for text in texts:
            h = seq(text)
            H = circulant_matrix(h)
            assert type(H) is tuple and len(H) == len(h)
            for r, row in enumerate(H):
                assert type(row) is tuple
                assert all(type(e) is int for e in row)
                assert row == circulant_row(h, r).entries
            assert np.array_equal(H, dense_circulant(text))

    def test_row_sum(self):
        assert seq("-+++").row_sum() == 2
        assert seq("----").row_sum() == -4


@st.composite
def ternary_masks(draw):
    """(L, support, neg) with neg within support: a ternary sequence of length L."""
    L = draw(st.integers(1, 80))
    support = draw(st.integers(0, (1 << L) - 1))
    return L, support, draw(st.integers(0, (1 << L) - 1)) & support


@given(ternary_masks())
def test_ternary_kernel_matches_reference(masks):
    L, support, neg = masks
    c = [(-1 if neg >> k & 1 else 1) if support >> k & 1 else 0 for k in range(L)]
    signs = [-1 if neg >> k & 1 else 1 for k in range(L)]
    h = SignSequence.from_bits(L, neg)
    for u in range(L):
        both, flips = _lag_masks(support, neg, u, L)
        assert both == sum(1 << k for k in range(L) if c[k] and c[(k + u) % L])
        assert flips == sum(1 << k for k in range(L) if c[k] * c[(k + u) % L] < 0)
        assert _ternary_paf(support, neg, u, L) == reference_ternary_paf(c, u)
        # paf is the kernel with all-ones support
        assert paf(h, u) == reference_ternary_paf(signs, u)
    vanishes = all(reference_ternary_paf(c, u) == 0 for u in range(1, L))
    assert _paf_vanishes(support, neg, L) == vanishes


def test_paf_vanishes_every_ternary_sequence_to_length_eight():
    # the row-sum pre-test must never change the verdict of the lag loop
    for L in range(1, 9):
        for digits in itertools.product((0, 1, -1), repeat=L):
            support = sum(1 << k for k, d in enumerate(digits) if d)
            neg = sum(1 << k for k, d in enumerate(digits) if d < 0)
            vanishes = all(reference_ternary_paf(list(digits), u) == 0 for u in range(1, L))
            assert _paf_vanishes(support, neg, L) == vanishes, digits


@st.composite
def sign_rows(draw):
    L = draw(st.integers(1, 64))
    return SignSequence.from_bits(L, draw(st.integers(0, (1 << L) - 1)))


@given(sign_rows())
def test_mirrored_spectrum_matches_paf(h):
    spectrum = paf_spectrum(h)
    assert spectrum.values == tuple(paf(h, u) for u in range(len(h)))
    # paf_spectrum builds through the checked constructor, which rebuilds it
    assert PafSpectrum(spectrum.values) == spectrum


def test_mirrored_spectrum_every_length():
    rng = random.Random(17)
    for L in range(1, 65):
        for _ in range(4):
            h = seq(random_sign_text(rng, L))
            # the constructor refuses an asymmetric spectrum or a wrong peak
            spectrum = paf_spectrum(h)
            assert list(spectrum) == [paf(h, u) for u in range(L)], h.text
            assert PafSpectrum(spectrum.values) == spectrum
