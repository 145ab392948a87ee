"""Matching pairs of even 2-blocks and the obligation-chasing procedure.

At a fixed nonzero lag u, each index pair (i, i+u) whose 2-blocks are both
even has a block product equal to +2J or -2J (J the all-ones 2x2 matrix).
Two such pairs match when their products are negatives of each other.  A
lag matching is an involutive, possibly partial pairing of such index
pairs; a matching book holds at most one matching per lag.

The chase starts from an obligation (a, b) where both blocks are even and
block a is even but not symmetric.  It looks up the pair matched with
(a, b) at lag (b - a), say (l, m), and continues with the obligation
(a, m); the first coordinate never changes.  It stops with outcome

* MatchingUnavailable when an obligation has no matched pair in the book,
* Cycle when the next obligation was already visited,
* Degenerate when the next obligation would collapse to (a, a).

The bundled counterexample() instance has three even blocks, none
symmetric, and its chase cycles after two steps: a matching walk can
revisit its starting obligation instead of running out of matchings.

Matchings are read from the block sequence's lag table, as the
cancellation residual is: BlockSequence._lag(u) holds seqcore._lag_masks
of the compression, built once per row and lag however many residuals,
matchings and validations ask for it.  ``both`` marks the even pairs at
lag u and ``flips`` those whose product is -2J, so two even pairs negate
exactly when one of them flips.  One per-lag routine, _lag_pairs, pairs
them off by walking the set bits of the two masks; find_matching wraps
its result, and find_book hands every nonempty one to MatchingBook.

Only the book keeps a partner table, which MatchingBook.__init__ builds,
so the chase looks partners up instead of scanning.  A book also keeps a
step table, filled as chases visit obligations: each ChaseStep is built
the first time any chase on the book meets its obligation and shared by
every later trace, so chasing from every start of a row builds each step
once.  ChaseStep and ChaseTrace set their slots through the slot
descriptors, as IndexPair does, which skips _set_field's name lookup.
chase returns each trace from the ChaseTrace constructor, but builds a
new step without the __init__ call, which costs about a tenth more.
"""

from __future__ import annotations

import enum
import re
from functools import lru_cache
from typing import Iterable, NamedTuple

from . import _NAMES
from .blockform import BlockSequence, _normalized_lag, block_product
from .seqcore import _Record, _set_bits, _set_field

__all__ = [*_NAMES["matchchase"]]


class IndexPair(_Record):
    """Ordered index pair (first, second), usually (i, (i + u) mod 2n).

    The one ordered record: pairs compare as (first, second) tuples.  Its
    equality and hash come from _Record; its order is written out, as
    matchings sort pairs; a > b and a >= b reflect to b < a and b <= a.
    """

    __slots__ = ("first", "second")

    def __init__(self, first: int, second: int) -> None:
        if first < 0 or second < 0:
            raise ValueError("pair indices must be nonnegative")
        if first == second:
            raise ValueError("pair indices must differ")
        # through the slot descriptors, which skip _set_field's name lookup
        _set_first(self, first)
        _set_second(self, second)

    def __lt__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.first, self.second) < (other.first, other.second)
        return NotImplemented

    def __le__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.first, self.second) <= (other.first, other.second)
        return NotImplemented

    def lag(self, mod: int) -> int:
        return (self.second - self.first) % mod

    def __str__(self) -> str:
        return f"({self.first},{self.second})"


_set_first, _set_second = IndexPair.first.__set__, IndexPair.second.__set__
# IndexPair is immutable, so find_matching and the chase share instances
_index_pair = lru_cache(maxsize=1 << 14)(IndexPair)

MatchedPair = tuple[IndexPair, IndexPair]


class LagMatching(_Record):
    """Involutive pairing of index pairs at one lag.

    Stored canonically: each matched 2-set is sorted, the 2-sets themselves
    are sorted, and no index pair appears twice.  May be partial; may be
    empty.
    """

    __slots__ = ("lag", "pairs")

    def __init__(self, lag: int, pairs: tuple[MatchedPair, ...]) -> None:
        _set_field(self, "lag", lag)
        _set_field(self, "pairs", pairs)

    @classmethod
    def of(cls, lag: int, pairs: Iterable[tuple[IndexPair, IndexPair]]) -> "LagMatching":
        seen: set[IndexPair] = set()
        canonical = [_claim(seen, p, q) for p, q in pairs]
        return cls(lag, tuple(sorted(canonical)))

    def index_pairs(self) -> tuple[IndexPair, ...]:
        return tuple(x for two in self.pairs for x in two)

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)


def _claim(seen: set[IndexPair], p: IndexPair, q: IndexPair) -> MatchedPair:
    """The 2-set {p, q} in canonical order, matched at a lag whose index
    pairs matched so far are seen; adds p and q to seen.  Raises ValueError
    if p is q or either is matched already."""
    if p == q:
        raise ValueError(f"{p} cannot be matched with itself")
    for member in (p, q):
        if member in seen:
            raise ValueError(f"index pair {member} is matched more than once")
        seen.add(member)
    return (min(p, q), max(p, q))


class MatchingBook:
    """At most one lag matching per lag, all over one block sequence.

    The partner table maps (lag, first, second) of each matched index pair
    to its partner, the first occurrence winning within a lag.  The step
    table maps (2n, a), a block count and the fixed first index of a chase,
    to a dict from the second index b to the ChaseStep that chase records
    at obligation (a, b); it starts empty and chase fills it.
    """

    __slots__ = ("_by_lag", "_partners", "_steps")

    def __init__(self, matchings: Iterable[LagMatching] = ()) -> None:
        by_lag: dict[int, LagMatching] = {}
        partners: dict[tuple[int, int, int], IndexPair] = {}
        for m in matchings:
            if m.lag in by_lag:
                raise ValueError(f"duplicate matching for lag {m.lag}")
            by_lag[m.lag] = m
            for p, q in m.pairs:
                partners.setdefault((m.lag, p.first, p.second), q)
                partners.setdefault((m.lag, q.first, q.second), p)
        self._by_lag = by_lag
        self._partners = partners
        self._steps: dict[tuple[int, int], dict[int, ChaseStep]] = {}

    def lags(self) -> tuple[int, ...]:
        return tuple(sorted(self._by_lag))

    def matching_at(self, lag: int) -> LagMatching | None:
        return self._by_lag.get(lag)

    def partner_of(self, pair: IndexPair, mod: int) -> IndexPair | None:
        return self._partners.get((pair.lag(mod), pair.first, pair.second))

    def matchings(self) -> tuple[LagMatching, ...]:
        return tuple(self._by_lag[u] for u in sorted(self._by_lag))

    def __len__(self) -> int:
        return len(self._by_lag)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MatchingBook):
            return NotImplemented
        return self._by_lag == other._by_lag


class ValidationReport(_Record):
    """Outcome of checking a matching against a block sequence."""

    __slots__ = ("violations",)

    def __init__(self, violations: tuple[str, ...]) -> None:
        _set_field(self, "violations", violations)

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.ok


_VALID = ValidationReport(())


def _pair_violations(bs: BlockSequence, u: int, pair: IndexPair) -> list[str]:
    mod = len(bs)
    problems = []
    if pair.first >= mod or pair.second >= mod:
        problems.append(f"{pair}: index out of range for {mod} blocks")
        return problems
    if pair.lag(mod) != u:
        problems.append(f"{pair}: lag is {pair.lag(mod)}, matching is for lag {u}")
    if not bs[pair.first].is_even:
        problems.append(f"{pair}: block {pair.first} is odd")
    if not bs[pair.second].is_even:
        problems.append(f"{pair}: block {pair.second} is odd")
    return problems


def validate_matching(bs: BlockSequence, m: LagMatching) -> ValidationReport:
    """Check every matching invariant against bs; ok means no violations.

    Violations reported: a lag outside 1..2n-1 (lag zero modulo 2n has its
    own text), indices out of range, lag-inconsistent pairs, odd blocks,
    products that do not negate, and reused pairs (the last is structurally
    impossible for LagMatching.of, but guarded anyway).  A pair (a, b)
    passes when b = a + u and bit a of the lag masks' ``both`` is set; two
    passing pairs negate when exactly one of them flips.
    """
    mod = bs._count
    u = m.lag
    if u % mod == 0:
        return ValidationReport((f"lag {u} is zero modulo {mod}",))
    if not 0 < u < mod:
        return ValidationReport((f"lag {u} is outside 1..{mod - 1} for {mod} blocks",))
    both, flips = bs._lag(u)
    violations: list[str] = []
    seen: set[tuple[int, int]] = set()
    for p, q in m.pairs:
        a, b, c, d = p.first, p.second, q.first, q.second
        key = (a, b)
        if key in seen:
            violations.append(f"index pair {p} is matched more than once")
        seen.add(key)
        key = (c, d)
        if key in seen:
            violations.append(f"index pair {q} is matched more than once")
        seen.add(key)
        # both has no bit at 2n or above, so an index out of range fails too
        if not (b == (a + u) % mod and d == (c + u) % mod and both >> a & both >> c & 1):
            violations += _pair_violations(bs, u, p) + _pair_violations(bs, u, q)
        elif not (flips >> a ^ flips >> c) & 1:
            prod_p = block_product(bs[a], bs[b])
            prod_q = block_product(bs[c], bs[d])
            violations.append(
                f"{p}~{q}: products {prod_p} and {prod_q} are not negatives"
            )
    return ValidationReport(tuple(violations)) if violations else _VALID


def even_pairs_at_lag(bs: BlockSequence, u: int) -> tuple[IndexPair, ...]:
    """All index pairs (i, i+u) whose blocks are both even, by first index."""
    mod = bs._count
    u = _normalized_lag(u, mod)
    both, _ = bs._lag(u)
    return tuple(_index_pair(i, (i + u) % mod) for i in _set_bits(both))


def _lag_pairs(bs: BlockSequence, u: int) -> list[MatchedPair]:
    """find_matching's matched pairs at a lag 1 <= u < 2n, canonical.

    The +2J pairs (``both`` without ``flips``) and the -2J pairs
    (``flips``) are walked together by first index, lowest set bit first,
    and paired off in order until one side runs out.  The two first
    indices of a matched pair differ, so the smaller one leads; it is the
    minimum of two increasing sequences, hence increasing, and the list
    needs no sort.
    """
    mod = bs._count
    both, flips = bs._lag(u)
    plus = both ^ flips  # flips lies within both
    pairs = []
    while plus and flips:
        low_plus = plus & -plus
        low_flip = flips & -flips
        plus ^= low_plus
        flips ^= low_flip
        i = low_plus.bit_length() - 1
        j = low_flip.bit_length() - 1
        if j < i:
            i, j = j, i
        pairs.append((_index_pair(i, (i + u) % mod), _index_pair(j, (j + u) % mod)))
    return pairs


def find_matching(bs: BlockSequence, u: int) -> LagMatching:
    """Maximal product-negating matching at lag u, built deterministically.

    Even-even index pairs at lag u split by product sign into a +2J list
    and a -2J list, each already ordered by first index; pairing them off
    smallest-first gives the matching.  It is perfect exactly when the two
    lists have equal length, i.e. when the cancellation residual vanishes.
    """
    u = _normalized_lag(u, bs._count)
    return LagMatching(u, tuple(_lag_pairs(bs, u)))


def find_book(bs: BlockSequence) -> MatchingBook:
    """find_matching at every nonzero lag, keeping the nonempty results."""
    found = ((u, _lag_pairs(bs, u)) for u in range(1, bs._count))
    return MatchingBook(LagMatching(u, tuple(pairs)) for u, pairs in found if pairs)


class ChaseOutcome(enum.Enum):
    CYCLE = "Cycle"
    MATCHING_UNAVAILABLE = "MatchingUnavailable"
    DEGENERATE = "Degenerate"

    # members are singletons, so identity hashing agrees with equality and
    # skips Enum's Python-level hash(self._name_)
    __hash__ = object.__hash__

    def __str__(self) -> str:
        return self.value


class ChaseStep(_Record):
    """One visited obligation and the pair matched with it, if any."""

    __slots__ = ("obligation", "matched")

    def __init__(self, obligation: IndexPair, matched: IndexPair | None) -> None:
        _set_obligation(self, obligation)
        _set_matched(self, matched)


class ChaseTrace(_Record):
    """Ordered chase log.  For a Cycle, repeat is the revisited obligation;
    otherwise it is None and the last step tells the story."""

    __slots__ = ("steps", "outcome", "repeat")

    def __init__(
        self, steps: tuple[ChaseStep, ...], outcome: ChaseOutcome, repeat: IndexPair | None = None
    ) -> None:
        _set_steps(self, steps)
        _set_outcome(self, outcome)
        _set_repeat(self, repeat)

    def successful_steps(self) -> int:
        return sum(1 for s in self.steps if s.matched is not None)


# an Enum member read through its class costs a lookup each time
_CYCLE = ChaseOutcome.CYCLE
_UNAVAILABLE = ChaseOutcome.MATCHING_UNAVAILABLE
_DEGENERATE = ChaseOutcome.DEGENERATE
# the chase records set their slots through these, as IndexPair does, and
# so does chase for each new step
_set_steps = ChaseTrace.steps.__set__
_set_outcome = ChaseTrace.outcome.__set__
_set_repeat = ChaseTrace.repeat.__set__
_set_obligation = ChaseStep.obligation.__set__
_set_matched = ChaseStep.matched.__set__


def chase(bs: BlockSequence, book: MatchingBook, start: IndexPair) -> ChaseTrace:
    """Iterate the obligation step rule from start until a terminal outcome.

    Step rule: for the obligation (a, b), find its matched pair (l, m) in
    the book at lag (b - a) mod 2n; the next obligation is (a, m).  The
    start must be an even-even pair whose first block is not symmetric.
    Obligations live in a finite set with fixed first coordinate, so the
    chase always terminates.  Each step comes from the book's step table
    and is built only the first time the book meets its obligation.
    """
    mod = bs._count
    a, b = start.first, start.second
    even = bs._even
    # a and b even (bits at 2n and above are clear) and a not symmetric
    if not even >> a & even >> b & ~(even >> (a + mod // 2) % mod) & 1:
        if a >= mod or b >= mod:
            raise ValueError(f"start {start} out of range for {mod} blocks")
        for idx in (a, b):
            if not even >> idx & 1:
                raise ValueError(f"start {start} touches odd block {idx}")
        raise ValueError(
            f"block {a} is symmetric; the chase premise needs a "
            "non-symmetric even block"
        )
    # the first coordinate never changes, so an obligation is its second
    partners = book._partners
    table = book._steps.get((mod, a))
    if table is None:
        table = book._steps[mod, a] = {}
    steps: list[ChaseStep] = []
    seen = {b}
    while True:
        step = table.get(b)
        if step is None:
            # ChaseStep(obligation, matched) without the __init__ call, which
            # costs about a tenth more; neither setter below can raise
            step = table[b] = object.__new__(ChaseStep)
            _set_obligation(step, _index_pair(a, b))
            _set_matched(step, partners.get(((b - a) % mod, a, b)))
        steps.append(step)
        partner = step.matched
        if partner is None:
            return ChaseTrace(tuple(steps), _UNAVAILABLE)
        b = partner.second
        if b == a:
            return ChaseTrace(tuple(steps), _DEGENERATE)
        if b in seen:
            return ChaseTrace(tuple(steps), _CYCLE, _index_pair(a, b))
        seen.add(b)


class Counterexample(NamedTuple):
    blocks: BlockSequence
    book: MatchingBook
    start: IndexPair


def counterexample() -> Counterexample:
    """The bundled six-block instance whose chase cycles.

    Blocks ++,+-,--,+-,--,+- have even blocks 0, 2 and 4, none of them
    symmetric.  With (0,2)~(2,4) matched at lag 2 and (0,4)~(4,2) at lag 4,
    the chase from (0,2) revisits (0,2) after two steps.
    """
    blocks = BlockSequence.from_text("++,+-,--,+-,--,+-")
    book = MatchingBook(
        [
            LagMatching.of(2, [(IndexPair(0, 2), IndexPair(2, 4))]),
            LagMatching.of(4, [(IndexPair(0, 4), IndexPair(4, 2))]),
        ]
    )
    return Counterexample(blocks, book, IndexPair(0, 2))


# ASCII digits only: int() would read other scripts' digits as numbers too
_MATCHING_LINE = re.compile(r"^u=(\d+):\((\d+),(\d+)\)~\((\d+),(\d+)\)$", re.ASCII)


def parse_matching_lines(lines: Iterable[str]) -> MatchingBook:
    """Parse 'u=<lag>: (i,j)~(l,m)' lines into a matching book.

    Whitespace is allowed at the ends of a line and around each of
    ``= : , ( ) ~``, not inside a number, and blank lines are skipped.
    Lines with the same lag accumulate into one matching.  Raises
    ValueError with the offending line number on any malformed line or
    reused index pair.
    """
    by_lag: dict[int, list[MatchedPair]] = {}
    seen: dict[int, set[IndexPair]] = {}
    for lineno, raw in enumerate(lines, start=1):
        # whitespace next to a separator goes; any other, such as a space
        # inside a number, stays and fails the match (compiled on first use)
        stripped = re.sub(r"\s*([=:,()~])\s*", r"\1", raw.strip())
        if not stripped:
            continue
        match = _MATCHING_LINE.match(stripped)
        if match is None:
            raise ValueError(f"line {lineno}: cannot parse matching {raw.strip()!r}")
        u, i, j, l, m = (int(g) for g in match.groups())
        try:
            entry = _claim(seen.setdefault(u, set()), IndexPair(i, j), IndexPair(l, m))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
        by_lag.setdefault(u, []).append(entry)
    return MatchingBook(LagMatching(u, tuple(sorted(ps))) for u, ps in sorted(by_lag.items()))


def render_matching_lines(book: MatchingBook) -> list[str]:
    return [
        f"u={m.lag}: {p}~{q}"
        for m in book.matchings()
        for p, q in m.pairs
    ]
