"""Sign sequences, circulant matrices, and periodic autocorrelation.

A sign sequence is a finite sequence over {+1, -1}, written in text form
over the alphabet '+'/'-' with index 0 leftmost.  It determines a circulant
matrix whose (row r, column c) entry is h[(c - r) mod L]; the toolkit treats
the sequence and the matrix interchangeably.

Sequences are stored packed, one bit per entry, with bit k set meaning
entry k is -1.  The packed form is what the exhaustive search operates on.
All arithmetic is exact integer arithmetic.

The one autocorrelation kernel lives here, _lag_masks and the functions
below it, on a ternary sequence held as two bitmasks, ``support`` (entry
nonzero) and ``neg`` (entry -1).  paf and the Hadamard predicate run it
with all-ones support, blockform on the compression of a block row.

_Record is the base of the frozen value classes of every layer, from
PafSpectrum here to SearchReport in searcher.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Iterable, Iterator

from . import _NAMES

__all__ = [*_NAMES["seqcore"]]


# the sign text of a packed bit: 0 is +1, 1 is -1
_SIGN_TEXT = str.maketrans("01", "+-")


class SignSequence:
    """Immutable sequence of +1/-1 entries; the first row of a circulant."""

    __slots__ = ("_length", "_bits")

    def __init__(self, entries: Iterable[int]) -> None:
        items = tuple(entries)
        if not items:
            raise ValueError("a sign sequence needs at least one entry")
        bits = 0
        for k, e in enumerate(items):
            if e == -1:
                bits |= 1 << k
            elif e != 1:
                raise ValueError(f"entry {k} is {e!r}; entries must be +1 or -1")
        self._length = len(items)
        self._bits = bits

    @classmethod
    def from_text(cls, text: str) -> "SignSequence":
        """Parse '+'/'-' text such as '-+++'.

        Rejects the empty string and any character outside the alphabet.
        """
        if not text:
            raise ValueError("empty sequence text")
        bits = 0
        for k, ch in enumerate(text):
            if ch == "-":
                bits |= 1 << k
            elif ch != "+":
                raise ValueError(
                    f"invalid character {ch!r} at position {k}; expected '+' or '-'"
                )
        return cls._make(len(text), bits)

    @classmethod
    def from_bits(cls, length: int, bits: int) -> "SignSequence":
        """Build from the packed form (bit k set means entry k is -1)."""
        if length < 1:
            raise ValueError("length must be positive")
        if bits < 0 or bits >> length:
            raise ValueError("bits outside the sequence length")
        return cls._make(length, bits)

    @classmethod
    def _make(cls, length: int, bits: int) -> "SignSequence":
        seq = cls.__new__(cls)
        seq._length = length
        seq._bits = bits
        return seq

    @property
    def bits(self) -> int:
        return self._bits

    @property
    def text(self) -> str:
        # a leading 1 above the top entry keeps its zeros: bin gives '0b1'
        # and then the entries from the top, so read back to index 3
        return bin(self._bits | 1 << self._length)[:2:-1].translate(_SIGN_TEXT)

    @property
    def entries(self) -> tuple[int, ...]:
        return tuple(-1 if self._bits >> k & 1 else 1 for k in range(self._length))

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, k: int) -> int:
        # index arithmetic is cyclic: any integer index is reduced mod L
        return -1 if self._bits >> (k % self._length) & 1 else 1

    def __iter__(self) -> Iterator[int]:
        return iter(self.entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SignSequence):
            return NotImplemented
        return self._length == other._length and self._bits == other._bits

    def __hash__(self) -> int:
        return hash((self._length, self._bits))

    def __repr__(self) -> str:
        return f"SignSequence({self.text!r})"

    def __str__(self) -> str:
        return self.text

    def row_sum(self) -> int:
        return self._length - 2 * self._bits.bit_count()

    def rotate(self, s: int) -> "SignSequence":
        """Cyclic shift: rotate(s)[k] == self[k + s]."""
        L = self._length
        return SignSequence._make(L, _rotated_bits(self._bits, s % L, L) & (1 << L) - 1)

    def negate(self) -> "SignSequence":
        mask = (1 << self._length) - 1
        return SignSequence._make(self._length, self._bits ^ mask)


# sets a field of a _Record, in its __init__ only
_set_field = object.__setattr__


class _Record:
    """A frozen record: a subclass names its fields in __slots__, in
    constructor order, and sets each once in __init__, with _set_field or
    through the field's slot descriptor.

    Assigning or deleting an attribute raises AttributeError.  Records are
    equal when they are of the same class and their fields are equal, so a
    record never equals a tuple or a record of another class, and the hash
    agrees with equality.  Records have no order, except IndexPair's; the
    repr is Name(field=value, ...).
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        values = attrgetter(*cls.__slots__)

        def __eq__(self, other: object) -> bool:
            if other.__class__ is self.__class__:
                return values(self) == values(other)
            return NotImplemented

        def __hash__(self) -> int:
            return hash(values(self))

        cls.__eq__, cls.__hash__ = __eq__, __hash__
        cls.__match_args__ = cls.__slots__

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # copy and pickle rebuild a record through its constructor
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


class PafSpectrum(_Record):
    """Periodic autocorrelation at every lag, values[u] = paf(h, u)."""

    __slots__ = ("values",)

    def __init__(self, values: Iterable[int]) -> None:
        # stored as a tuple, so the record is hashable and stays as checked
        values = tuple(values)
        L = len(values)
        if L == 0:
            raise ValueError("empty spectrum")
        if values[0] != L:
            raise ValueError("peak value must equal the sequence length")
        # values[u] == values[L - u] for u = 1..L-1
        if values[1:] != values[:0:-1]:
            raise ValueError("spectrum must be symmetric about the half length")
        _set_field(self, "values", values)

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, u: int) -> int:
        return self.values[u % len(self.values)]

    def __iter__(self) -> Iterator[int]:
        return iter(self.values)

    def off_peak_zero(self) -> bool:
        return all(v == 0 for v in self.values[1:])


def _rotated_bits(bits: int, u: int, L: int) -> int:
    """Bit k of the result is bit (k + u) mod L of bits, for 0 <= u < L; the
    bits at L and above are left for the caller to mask off."""
    return bits >> u | bits << (L - u)


def _lag_masks(support: int, neg: int, u: int, L: int) -> tuple[int, int]:
    """(both, flips) at a lag 0 <= u < L: bit k of ``both`` is set when c_k
    and c_{k+u} are nonzero, and of ``flips`` when also c_k * c_{k+u} = -1.
    ``neg`` lies within ``support``, whose ``&`` clips the rotations."""
    both = support & _rotated_bits(support, u, L)
    return both, both & (neg ^ _rotated_bits(neg, u, L))


def _ternary_paf(support: int, neg: int, u: int, L: int) -> int:
    """sum(c_k * c_{k+u}) over one period, at a lag 0 <= u < L."""
    both, flips = _lag_masks(support, neg, u, L)
    return both.bit_count() - 2 * flips.bit_count()


def _paf_vanishes(support: int, neg: int, L: int) -> bool:
    """True when the ternary paf is zero at every nonzero lag; the pairs at
    lag u are those at lag L - u reversed, so lags 1..L/2 cover them all.

    The paf summed over all L lags is (sum c)^2 and paf(0) is the weight,
    so zero off the peak needs (sum c)^2 == weight, tested first."""
    weight = support.bit_count()
    total = weight - 2 * neg.bit_count()
    if total * total != weight:
        return False
    # _lag_masks inlined: paf(u) = popcount(both) - 2 * popcount(flips)
    for u in range(1, L // 2 + 1):
        both = support & (support >> u | support << (L - u))
        if both.bit_count() != 2 * (both & (neg ^ (neg >> u | neg << (L - u)))).bit_count():
            return False
    return True


def _set_bits(mask: int) -> list[int]:
    """Indices of the set bits of mask, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def paf(h: SignSequence, u: int) -> int:
    """Periodic autocorrelation sum(h[k] * h[k + u]) over one period.

    The lag is cyclic, so any integer u is reduced mod len(h); in particular
    negative lags fold to their positive counterparts.
    """
    L = h._length
    return _ternary_paf((1 << L) - 1, h._bits, u % L, L)


def paf_spectrum(h: SignSequence) -> PafSpectrum:
    """All lags at once: values[u] = paf(h, u) for u in 0..L-1.

    Lags 0..L/2 are computed and mirrored, as paf(h, L - u) = paf(h, u);
    the result is checked by the PafSpectrum constructor.
    """
    L = h._length
    ones = (1 << L) - 1
    half = [_ternary_paf(ones, h._bits, u, L) for u in range(L // 2 + 1)]
    return PafSpectrum(tuple(half + half[(L - 1) // 2:0:-1]))


def is_circulant_hadamard(h: SignSequence) -> bool:
    """True when the circulant with first row h is a Hadamard matrix.

    Equivalent to H . H^T = L . I for the dense circulant H, which for a
    ±1 circulant means paf(h, u) = 0 at every nonzero lag.  Orders 1 and 2
    are outside the 4n setting and always report False, as does any order
    not divisible by 4.
    """
    L = h._length
    if L % 4 != 0:
        return False
    return _paf_vanishes((1 << L) - 1, h._bits, L)


def circulant_row(h: SignSequence, r: int) -> SignSequence:
    """Row r of the circulant: entry c is h[(c - r) mod L]."""
    if not 0 <= r < len(h):
        raise ValueError(f"row index {r} out of range for order {len(h)}")
    return h.rotate(-r)


def circulant_matrix(h: SignSequence) -> tuple[tuple[int, ...], ...]:
    """The full dense L x L circulant: L rows of L entries, each +1 or -1."""
    return tuple(circulant_row(h, r).entries for r in range(len(h)))
