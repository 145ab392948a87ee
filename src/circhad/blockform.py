"""2-blocks and the block view of a circulant of order 4n.

A 2-block is a 2x2 matrix [[d, o], [o, d]] with d, o in {+1, -1}; it is
even when d = o and odd when d = -o.  Pairing row r with row r + 2n and
column c with column c + 2n reorders a circulant of order 4n into a
2n x 2n block-circulant whose cells are 2-blocks; its first block row
[M_0 .. M_{2n-1}] has M_d = [[h[d], h[d+2n]], [h[d+2n], h[d]]], and cell
(r-pair, c-pair) equals M_{(c-r) mod 2n}.

Matrices of the form [[a, b], [b, a]] are closed under sums and products
and commute with each other, so every quantity here is an exact integer.

The product of two even blocks is 2 * d_i * d_j * J, where d is the
block's diagonal sign and J the all-ones 2x2 matrix, so the even-pair
cancellation residual at lag u is 2 * sum(d_i * d_{i+u}) * J over the i
where M_i and M_{i+u} are both even.  That is 2 * paf(c, u) * J for the
compression c_d = (h[d] + h[d+2n]) / 2, the diagonal sign of an even M_d
and 0 for an odd one.  A block sequence is stored as its packed sign row
h; BlockSequence._compression derives c from it as two masks, and the
ternary paf kernel in seqcore computes the residual from those.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from .seqcore import SignSequence, _paf_vanishes, _set_bits, _ternary_paf

__all__ = [
    "Parity",
    "TwoBlock",
    "BlockSequence",
    "SymBlockMatrix",
    "block_decompose",
    "recompose",
    "even_count",
    "block_product",
    "cancellation_residual",
    "cancellation_holds",
    "is_symmetric_even",
    "all_block_sequences",
    "enumerate_block_sequences",
]

_SIGNS = (1, -1)


class Parity(enum.Enum):
    EVEN = "Even"
    ODD = "Odd"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class TwoBlock:
    """The 2x2 ±1 matrix [[diag, offdiag], [offdiag, diag]]."""

    diag: int
    offdiag: int

    def __post_init__(self) -> None:
        if self.diag not in _SIGNS or self.offdiag not in _SIGNS:
            raise ValueError("2-block entries must be +1 or -1")

    @property
    def is_even(self) -> bool:
        return self.diag == self.offdiag

    @property
    def parity(self) -> Parity:
        return Parity.EVEN if self.is_even else Parity.ODD

    @property
    def text(self) -> str:
        return ("+" if self.diag == 1 else "-") + ("+" if self.offdiag == 1 else "-")

    @classmethod
    def from_text(cls, text: str) -> "TwoBlock":
        if len(text) != 2 or any(ch not in "+-" for ch in text):
            raise ValueError(f"invalid 2-block text {text!r}; expected two of '+'/'-'")
        return cls(1 if text[0] == "+" else -1, 1 if text[1] == "+" else -1)

    def __str__(self) -> str:
        return self.text


# the four 2-blocks in lexicographic order, ++ < +- < -+ < --: the index of a
# block is 2 * (diag == -1) + (offdiag == -1), its two sign bits
_BLOCK_ALPHABET = (TwoBlock(1, 1), TwoBlock(1, -1), TwoBlock(-1, 1), TwoBlock(-1, -1))


@dataclass(frozen=True)
class SymBlockMatrix:
    """Integer matrix [[diag, offdiag], [offdiag, diag]]; sums and products
    of 2-blocks land here."""

    diag: int
    offdiag: int

    @property
    def is_zero(self) -> bool:
        return self.diag == 0 and self.offdiag == 0

    def rows(self) -> tuple[tuple[int, int], tuple[int, int]]:
        return ((self.diag, self.offdiag), (self.offdiag, self.diag))

    def __add__(self, other: "SymBlockMatrix") -> "SymBlockMatrix":
        return SymBlockMatrix(self.diag + other.diag, self.offdiag + other.offdiag)

    def __neg__(self) -> "SymBlockMatrix":
        return SymBlockMatrix(-self.diag, -self.offdiag)

    def __str__(self) -> str:
        return f"[[{self.diag}, {self.offdiag}], [{self.offdiag}, {self.diag}]]"


def _packed(blocks: tuple[TwoBlock, ...]) -> int:
    """The packed sign row of blocks: the diagonals, then the off-diagonals."""
    return SignSequence([b.diag for b in blocks] + [b.offdiag for b in blocks]).bits


class BlockSequence:
    """Ordered sequence of 2n 2-blocks, indices reduced modulo 2n.

    Stored as its packed sign row of order 4n: bit d is block d's diagonal
    and bit d + 2n its off-diagonal, set for -1.
    """

    __slots__ = ("_count", "_bits", "_even", "_minus")

    def __init__(self, blocks: Iterable[TwoBlock]) -> None:
        items = tuple(blocks)
        if len(items) < 2 or len(items) % 2 != 0:
            raise ValueError("a block sequence needs an even number of blocks, at least 2")
        if not all(isinstance(b, TwoBlock) for b in items):
            raise ValueError("block sequence entries must be TwoBlock values")
        self._count = len(items)
        self._bits = _packed(items)
        self._even, self._minus = self._compression(self._count, self._bits)

    @classmethod
    def _make(cls, count: int, bits: int) -> "BlockSequence":
        """Trusted constructor: the caller guarantees an even count of at
        least 2 and a packed row of 2 * count bits."""
        bs = cls.__new__(cls)
        bs._count = count
        bs._bits = bits
        bs._even, bs._minus = cls._compression(count, bits)
        return bs

    @classmethod
    def _with_masks(cls, count: int, bits: int, even: int, minus: int) -> "BlockSequence":
        """Trusted constructor for a caller that also has the row's
        compression, (even, minus) as _compression gives it."""
        bs = cls.__new__(cls)
        bs._count = count
        bs._bits = bits
        bs._even = even
        bs._minus = minus
        return bs

    @staticmethod
    def _compression(count: int, bits: int) -> tuple[int, int]:
        """(even, minus) of the row of count blocks packed in bits: a block
        is even where its diagonal bit (``low``) and off-diagonal bit agree,
        and in minus too where ``low`` is set, i.e. c_d != 0 and c_d = -1."""
        mask = (1 << count) - 1
        low = bits & mask
        even = ~(low ^ bits >> count) & mask
        return even, even & low

    @classmethod
    def from_text(cls, text: str) -> "BlockSequence":
        """Parse comma-separated sign pairs, e.g. '++,+-,--,+-,--,+-'."""
        return cls(TwoBlock.from_text(tok.strip()) for tok in text.split(","))

    @property
    def blocks(self) -> tuple[TwoBlock, ...]:
        return tuple(self)

    @property
    def n(self) -> int:
        """Half the block count: a sequence of 2n blocks has n = len // 2."""
        return self._count // 2

    @property
    def text(self) -> str:
        return ",".join(b.text for b in self)

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, i: int) -> TwoBlock:
        i %= self._count
        return _BLOCK_ALPHABET[(self._bits >> i & 1) << 1 | self._bits >> (i + self._count) & 1]

    def __iter__(self) -> Iterator[TwoBlock]:
        return map(self.__getitem__, range(self._count))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BlockSequence):
            return NotImplemented
        return self._count == other._count and self._bits == other._bits

    def __hash__(self) -> int:
        return hash((self._count, self._bits))

    def __repr__(self) -> str:
        return f"BlockSequence.from_text({self.text!r})"

    def even_indices(self) -> tuple[int, ...]:
        return tuple(_set_bits(self._even))


def block_decompose(h: SignSequence) -> BlockSequence:
    """Split a length-4n sequence into its first block row of 2-blocks.

    Block d carries h[d] on the diagonal and h[d + 2n] off it, which is the
    cell content produced by the half-shift row/column pairing described in
    the module docstring, so the block row keeps h's packed bits as they are.
    """
    L = len(h)
    if L % 4 != 0:
        raise ValueError(f"sequence length {L} is not divisible by 4")
    return BlockSequence._make(L // 2, h.bits)


def recompose(bs: BlockSequence) -> SignSequence:
    """Inverse of block_decompose: h[d] = M_d.diag, h[d + 2n] = M_d.offdiag."""
    return SignSequence._make(2 * bs._count, bs._bits)


def even_count(bs: BlockSequence) -> int:
    return bs._even.bit_count()


def block_product(a: TwoBlock, b: TwoBlock) -> SymBlockMatrix:
    """Exact 2x2 product; for even blocks this is 2 * a.diag * b.diag * J."""
    return SymBlockMatrix(
        a.diag * b.diag + a.offdiag * b.offdiag,
        a.diag * b.offdiag + a.offdiag * b.diag,
    )


def _normalized_lag(u: int, mod: int) -> int:
    u %= mod
    if u == 0:
        raise ValueError("lag must be nonzero modulo the block count")
    return u


def _residual(bs: BlockSequence, u: int) -> int:
    """The J-coefficient of the even-pair residual at a lag 1 <= u < 2n:
    each even pair adds 2 * d_i * d_{i+u}, so it is 2 * paf(c, u)."""
    return 2 * _ternary_paf(bs._even, bs._minus, u, bs._count)


def cancellation_residual(bs: BlockSequence, u: int) -> SymBlockMatrix:
    """Sum of M_i * M_{i+u} over the i where both blocks are even.

    Every term is a multiple of J, so the sum is k * J for the integer k
    that _residual computes; an empty sum is the zero matrix.  The lag is
    cyclic and must be nonzero modulo 2n.
    """
    k = _residual(bs, _normalized_lag(u, len(bs)))
    return SymBlockMatrix(k, k)


def cancellation_holds(bs: BlockSequence) -> bool:
    """True when the even-pair product sum vanishes at every nonzero lag,
    i.e. when the compression has zero periodic autocorrelation."""
    return _paf_vanishes(bs._even, bs._minus, bs._count)


def is_symmetric_even(bs: BlockSequence, i: int) -> bool:
    """Whether the even block M_i has an even partner M_{i+n} half a turn away.

    Defined only for even blocks; asking about an odd block is an error.
    """
    mod = bs._count
    i %= mod
    if not bs._even >> i & 1:
        raise ValueError(f"block {i} is odd; symmetry is defined for even blocks only")
    return bool(bs._even >> (i + bs.n) % mod & 1)


def _joined_rows(k: int, evens: int | None) -> Iterator[BlockSequence]:
    """Rows of 2k blocks in lexicographic order; with ``evens`` set, only
    the rows with that many even blocks.

    The 4^k runs of k blocks are packed once, in lexicographic order, as
    rows of their own with their compression masks, which give their even
    counts, and grouped by even count.  A row joins a left half with every
    right half whose count makes ``evens``: as a left half a run's
    off-diagonal bits move up by k, and as a right half all its bits and
    both its masks move up by k more.  A row compares first on its left
    half, then on its right half, so walking the left halves in order, each
    with its right halves in order, keeps lexicographic order.
    """
    mask = (1 << k) - 1
    halves = []
    for blocks in itertools.product(_BLOCK_ALPHABET, repeat=k):
        half = _packed(blocks)
        even, minus = BlockSequence._compression(k, half)
        halves.append((even.bit_count(), half & mask | (half >> k) << 2 * k, even, minus))
    by_count: dict[int, list[tuple[int, int, int, int]]] = {}
    for half in halves:
        by_count.setdefault(half[0], []).append(half)
    make = BlockSequence._with_masks
    for count, left, left_even, left_minus in halves:
        rights = halves if evens is None else by_count.get(evens - count, ())
        for _, right, right_even, right_minus in rights:
            yield make(
                2 * k, left | right << k, left_even | right_even << k, left_minus | right_minus << k
            )


def all_block_sequences(length: int) -> Iterator[BlockSequence]:
    """Every block sequence of the given even length, in lexicographic
    order with ++ < +- < -+ < --."""
    if length < 2 or length % 2 != 0:
        raise ValueError("length must be even and at least 2")
    return _joined_rows(length // 2, None)


def enumerate_block_sequences(
    n: int, predicate: Callable[[BlockSequence], bool] | None = None
) -> Iterator[BlockSequence]:
    """Block sequences of length 2n with exactly n even blocks, in
    lexicographic order, optionally filtered by a predicate.  n is capped
    at 6 to keep the 4^(2n) space at desk scale."""
    if not 1 <= n <= 6:
        raise ValueError(f"n must be between 1 and 6, got {n}")
    rows = _joined_rows(n, n)
    return rows if predicate is None else filter(predicate, rows)
