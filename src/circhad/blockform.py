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
h; BlockSequence._compression derives c from it as two masks.  A row
is born with a lag table, filled one lag at a time on first use: the
entry at lag u is seqcore._lag_masks of c, the masks (both, flips) from
which the residual here and the matchings in matchchase are read, so
each is built once however many of them a row is asked for.  Entry 0 is
never a lag; it holds the eq. (1) verdict of cancellation_holds.
Everything in the table depends on c alone, so the table belongs to the
compression: a row gets a table of its own, and only an enumeration
gives the rows that share a compression one table.
"""

from __future__ import annotations

import enum
from math import isqrt
from operator import add
from typing import Callable, Iterable, Iterator

from . import _NAMES
from .seqcore import SignSequence, _lag_masks, _paf_vanishes, _Record, _set_bits, _set_field

__all__ = [*_NAMES["blockform"]]

_SIGNS = (1, -1)


class Parity(enum.Enum):
    EVEN = "Even"
    ODD = "Odd"

    def __str__(self) -> str:
        return self.value


class TwoBlock(_Record):
    """The 2x2 ±1 matrix [[diag, offdiag], [offdiag, diag]]."""

    __slots__ = ("diag", "offdiag")

    def __init__(self, diag: int, offdiag: int) -> None:
        if diag not in _SIGNS or offdiag not in _SIGNS:
            raise ValueError("2-block entries must be +1 or -1")
        _set_field(self, "diag", diag)
        _set_field(self, "offdiag", offdiag)

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


class SymBlockMatrix(_Record):
    """Integer matrix [[diag, offdiag], [offdiag, diag]]; sums and products
    of 2-blocks land here."""

    __slots__ = ("diag", "offdiag")

    def __init__(self, diag: int, offdiag: int) -> None:
        _set_field(self, "diag", diag)
        _set_field(self, "offdiag", offdiag)

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


class BlockSequence:
    """Ordered sequence of 2n 2-blocks, indices reduced modulo 2n.

    Stored as its packed sign row of order 4n: bit d is block d's diagonal
    and bit d + 2n its off-diagonal, set for -1.  The lag table _lags
    belongs to the compression: a row is born with a table of its own,
    and only the enumerations give the rows of one compression one table.
    Its entry at a lag u holds the masks at u, and entry 0 the eq. (1)
    verdict, each None until first asked for.
    """

    __slots__ = ("_count", "_bits", "_even", "_minus", "_lags")

    def __init__(self, blocks: Iterable[TwoBlock]) -> None:
        items = tuple(blocks)
        if len(items) < 2 or len(items) % 2 != 0:
            raise ValueError("a block sequence needs an even number of blocks, at least 2")
        if not all(isinstance(b, TwoBlock) for b in items):
            raise ValueError("block sequence entries must be TwoBlock values")
        packed = SignSequence([b.diag for b in items] + [b.offdiag for b in items])
        self._init(len(items), packed.bits)

    def _init(self, count: int, bits: int) -> None:
        """Set every slot from an even count of at least 2 and a packed row
        of 2 * count bits, the diagonals then the off-diagonals; the row
        gets a lag table of its own."""
        self._count = count
        self._bits = bits
        self._even, self._minus = self._compression(count, bits)
        self._lags = [None] * count

    @staticmethod
    def _compression(count: int, bits: int) -> tuple[int, int]:
        """(even, minus) of the row of count blocks packed in bits: a block
        is even where its diagonal bit (``low``) and off-diagonal bit agree,
        and in minus too where ``low`` is set, i.e. c_d != 0 and c_d = -1.
        bits holds 2 * count bits, so both halves lie within ``mask`` and
        ``mask ^`` complements their difference there."""
        mask = (1 << count) - 1
        low = bits & mask
        even = mask ^ low ^ bits >> count
        return even, even & low

    def _lag(self, u: int) -> tuple[int, int]:
        """(both, flips) of the compression at a lag 1 <= u < 2n, as
        seqcore._lag_masks gives them; built the first time it is asked
        and kept at entry u of the table the row was born with."""
        masks = self._lags[u]
        if masks is None:
            masks = self._lags[u] = _lag_masks(self._even, self._minus, u, self._count)
        return masks

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
        """The blocks as sign pairs, e.g. '++,+-': block d pairs entry d of
        the packed row's sign text with entry d + 2n."""
        signs = recompose(self).text
        return ",".join(map(add, signs[: self._count], signs[self._count :]))

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
        raise ValueError(f"length {L} is not divisible by 4")
    bs = BlockSequence.__new__(BlockSequence)
    bs._init(L // 2, h.bits)
    return bs


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
    each even pair adds 2 * d_i * d_{i+u}, so it is 2 * paf(c, u), read
    from the lag table as seqcore._ternary_paf reads it from the masks."""
    both, flips = bs._lag(u)
    return 2 * (both.bit_count() - 2 * flips.bit_count())


def cancellation_residual(bs: BlockSequence, u: int) -> SymBlockMatrix:
    """Sum of M_i * M_{i+u} over the i where both blocks are even.

    Every term is a multiple of J, so the sum is k * J for the integer k
    that _residual computes; an empty sum is the zero matrix.  The lag is
    cyclic and must be nonzero modulo 2n.
    """
    k = _residual(bs, _normalized_lag(u, bs._count))
    return SymBlockMatrix(k, k)


def cancellation_holds(bs: BlockSequence) -> bool:
    """True when the even-pair product sum vanishes at every nonzero lag,
    i.e. when the compression has zero periodic autocorrelation.  The
    verdict depends on the compression alone; it is decided once per lag
    table, the row's own or the one an enumeration shares among the rows
    of a compression, and kept in the table's entry 0, which is never a
    lag."""
    if bs._lags[0] is None:
        bs._lags[0] = _paf_vanishes(bs._even, bs._minus, bs._count)
    return bs._lags[0]


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

    The 4^k runs of k blocks are built once, in lexicographic order, as
    packed rows of their own: block j is the base-4 digit j from the top,
    its high bit the diagonal at bit j and its low bit the off-diagonal at
    bit j + k.  Their compression masks give their even counts.  As a left
    half a run's off-diagonal bits move up by k; as a right half all its
    bits and both its masks move up by k more, once per run, and the right
    halves are grouped by even count.  A row then joins
    a left half with every right half whose count makes ``evens`` by three
    ``|`` and fills the five slots of a BlockSequence itself, with no call
    per row.  Rows with equal compressions get one lag table, found by the
    compression packed as one key, so a table and its eq. (1) verdict are
    built once per compression met; where the even count is not a perfect
    square, each row gets its own, holding the verdict False.  A row
    compares first on its left half, then on its right half, so walking the
    left halves in order, each with its right halves in order, keeps
    lexicographic order.
    """
    mask = (1 << k) - 1
    count = 2 * k
    runs = [0]
    for j in range(k):
        diag, off = 1 << j, 1 << j + k
        runs = [run | bit for run in runs for bit in (0, off, diag, diag | off)]
    lefts, rights = [], []
    by_count: dict[int, list[tuple[int, int, int, int]]] = {}
    for half in runs:
        even, minus = BlockSequence._compression(k, half)
        left = half & mask | (half >> k) << count
        key = even | minus << count
        right = (left << k, even << k, minus << k, key << k)
        evens_half = even.bit_count()
        lefts.append((evens_half, left, even, minus, key))
        rights.append(right)
        by_count.setdefault(evens_half, []).append(right)
    new = BlockSequence.__new__
    tables: dict[int, list] = {}
    # with a non-square even count no compression passes (sum c)^2 = n, so
    # every eq. (1) verdict is False and shared tables would only hold
    # memory until the generator ends: each row gets a table of its own,
    # its verdict already in entry 0
    shared = evens is None or isqrt(evens) ** 2 == evens
    for evens_half, left, left_even, left_minus, left_key in lefts:
        joined = rights if evens is None else by_count.get(evens - evens_half, ())
        for right, right_even, right_minus, right_key in joined:
            lags = tables.get(left_key | right_key)
            if lags is None:
                lags = [None] * count
                if shared:
                    tables[left_key | right_key] = lags
                else:
                    lags[0] = False
            bs = new(BlockSequence)
            bs._count = count
            bs._bits = left | right
            bs._even = left_even | right_even
            bs._minus = left_minus | right_minus
            bs._lags = lags
            yield bs


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
