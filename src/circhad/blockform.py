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
where M_i and M_{i+u} are both even.  A block sequence keeps two bitmasks,
its even blocks and its even blocks with d = -1, and the residual's
coefficient is two popcounts of those masks rotated by u.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Iterator

from .seqcore import SignSequence

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

    def sort_key(self) -> tuple[int, int]:
        # lexicographic with + before -: ++ < +- < -+ < --
        return (self.diag == -1, self.offdiag == -1)

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


def _block_masks(blocks: Iterable[TwoBlock]) -> tuple[int, int]:
    """(even, minus): bit i of even is set when block i is even, and of
    minus when block i is even with diag -1."""
    even = minus = 0
    for i, b in enumerate(blocks):
        if b.is_even:
            even |= 1 << i
            if b.diag < 0:
                minus |= 1 << i
    return even, minus


class BlockSequence:
    """Ordered sequence of 2n 2-blocks, indices reduced modulo 2n."""

    __slots__ = ("_blocks", "_even", "_minus")

    def __init__(self, blocks: Iterable[TwoBlock]) -> None:
        items = tuple(blocks)
        if len(items) < 2 or len(items) % 2 != 0:
            raise ValueError("a block sequence needs an even number of blocks, at least 2")
        if not all(isinstance(b, TwoBlock) for b in items):
            raise ValueError("block sequence entries must be TwoBlock values")
        self._blocks = items
        self._even, self._minus = _block_masks(items)

    @classmethod
    def _make(cls, blocks: tuple[TwoBlock, ...], even: int, minus: int) -> "BlockSequence":
        """Trusted constructor: the caller guarantees an even number (at
        least 2) of TwoBlock values and the masks that __init__ would compute."""
        bs = cls.__new__(cls)
        bs._blocks = blocks
        bs._even = even
        bs._minus = minus
        return bs

    @classmethod
    def from_text(cls, text: str) -> "BlockSequence":
        """Parse comma-separated sign pairs, e.g. '++,+-,--,+-,--,+-'."""
        return cls(TwoBlock.from_text(tok.strip()) for tok in text.split(","))

    @property
    def blocks(self) -> tuple[TwoBlock, ...]:
        return self._blocks

    @property
    def n(self) -> int:
        """Half the block count: a sequence of 2n blocks has n = len // 2."""
        return len(self._blocks) // 2

    @property
    def text(self) -> str:
        return ",".join(b.text for b in self._blocks)

    def __len__(self) -> int:
        return len(self._blocks)

    def __getitem__(self, i: int) -> TwoBlock:
        return self._blocks[i % len(self._blocks)]

    def __iter__(self) -> Iterator[TwoBlock]:
        return iter(self._blocks)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BlockSequence):
            return NotImplemented
        return self._blocks == other._blocks

    def __hash__(self) -> int:
        return hash(self._blocks)

    def __repr__(self) -> str:
        return f"BlockSequence.from_text({self.text!r})"

    def even_indices(self) -> tuple[int, ...]:
        return tuple(i for i in range(len(self._blocks)) if self._even >> i & 1)


def block_decompose(h: SignSequence) -> BlockSequence:
    """Split a length-4n sequence into its first block row of 2-blocks.

    Block d carries h[d] on the diagonal and h[d + 2n] off it, which is the
    cell content produced by the half-shift row/column pairing described in
    the module docstring.  In the packed form, ``low`` holds the diagonal
    signs and ``high`` the off-diagonal ones (bit set for -1): a block is
    even where the two bits agree, and has diag -1 where ``low`` is set.
    """
    L = len(h)
    if L % 4 != 0:
        raise ValueError(f"sequence length {L} is not divisible by 4")
    half = L // 2
    mask = (1 << half) - 1
    low, high = h.bits & mask, h.bits >> half
    blocks = tuple(
        _BLOCK_ALPHABET[(low >> d & 1) << 1 | high >> d & 1] for d in range(half)
    )
    even = ~(low ^ high) & mask
    return BlockSequence._make(blocks, even, even & low)


def recompose(bs: BlockSequence) -> SignSequence:
    """Inverse of block_decompose: h[d] = M_d.diag, h[d + 2n] = M_d.offdiag."""
    return SignSequence([b.diag for b in bs] + [b.offdiag for b in bs])


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


def _lag_masks(bs: BlockSequence, u: int) -> tuple[int, int]:
    """(both, flips) at a lag 1 <= u < 2n.

    Rotating a mask right by u puts bit i + u at bit i, so bit i of
    ``both`` is set when M_i and M_{i+u} are both even, and of ``flips``
    when their diagonal signs differ too, i.e. when M_i * M_{i+u} = -2J.
    """
    mod = len(bs._blocks)
    even, minus = bs._even, bs._minus
    both = even & (even >> u | even << (mod - u))
    return both, both & (minus ^ (minus >> u | minus << (mod - u)))


def _residual(bs: BlockSequence, u: int) -> int:
    """The J-coefficient of the even-pair residual at a lag 1 <= u < 2n:
    each even pair adds 2 * d_i * d_{i+u}, +2 unless it flips."""
    both, flips = _lag_masks(bs, u)
    return 2 * (both.bit_count() - 2 * flips.bit_count())


def cancellation_residual(bs: BlockSequence, u: int) -> SymBlockMatrix:
    """Sum of M_i * M_{i+u} over the i where both blocks are even.

    Every term is a multiple of J, so the sum is k * J for the integer k
    that _residual computes; an empty sum is the zero matrix.  The lag is
    cyclic and must be nonzero modulo 2n.
    """
    k = _residual(bs, _normalized_lag(u, len(bs)))
    return SymBlockMatrix(k, k)


def cancellation_holds(bs: BlockSequence) -> bool:
    """True when the even-pair product sum vanishes at every nonzero lag.

    The pairs at lag u are the pairs at lag 2n - u read the other way
    round, so lags 1..n cover every lag.
    """
    for u in range(1, bs.n + 1):
        if _residual(bs, u):
            return False
    return True


def is_symmetric_even(bs: BlockSequence, i: int) -> bool:
    """Whether the even block M_i has an even partner M_{i+n} half a turn away.

    Defined only for even blocks; asking about an odd block is an error.
    """
    mod = len(bs)
    i %= mod
    if not bs[i].is_even:
        raise ValueError(f"block {i} is odd; symmetry is defined for even blocks only")
    return bs[i + bs.n].is_even
