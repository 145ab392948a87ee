"""Exhaustive search for circulant Hadamard sequences at small orders.

The space of length-L sign sequences is walked as a binary tree with the
first entry fixed to +1; global negations are restored in the report.  Two
optional prunes cut branches:

* row-sum: a circulant Hadamard row sum s satisfies s*s = L, so orders that
  are not perfect squares are rejected without enumeration, and square
  orders constrain the number of -1 entries to (L - s)/2 or (L + s)/2.
  Inside the tree this is one lookup per child in a table indexed by the
  number of -1 entries so far, compared with the position (see
  _minus_ok_ends).
* prefix-paf: the settled part of each periodic autocorrelation lag is
  bounded by the number of still-undetermined terms; a branch that cannot
  reach zero at some lag is cut.  That happens exactly when the settled
  products of one sign, -1 or +1, outnumber L/2.  The state is one packed
  integer with an offset counter of settled -1 products per lag (see
  _PackedLags), so setting a position and testing every lag for both signs are a few
  additions, a subtraction, an | and an & on nonnegative integers, not a
  loop over the L/2 lags.  The state is passed down the recursion; nothing
  is undone on the way back.  The walk has two halves.  Below position
  L/2 no cut can fall, and a few method calls set each position.  At L/2
  the first half is final, so the products that wrap round to it are
  taken once for the whole subtree, and the inlined kernel of the back
  half carries only the reversed prefix and the offset counters.

One walk table, _PackedLags, holds everything a shard walk reads: the
tables of both prunes, the leaf target and the prune flags.  It is built
once per search, before any shard is walked, and every shard reads it; it
is freed with the search.  The per-position tables of prefix-paf take
O(L^2) memory and time, about 40 MB and 0.05 s at L = 4096, so a search
above _MAX_ORDER that the row-sum shortcut does not settle is refused with
ValueError before any table is built; no budget could cover it, and no
walk at such an order could finish.

Work is partitioned into shards by sequence prefix.  The shard set and each
shard's traversal depend only on the order and the prune selection, never
on the worker count, so reports are identical however the shards are
scheduled.  A shard's prefix is settled without a test.  A prefix that
reaches past L/2 (orders 4 and 8 only) has its last node tested, once per
tree: a cut verdict is monotone along a path, so a cut at an earlier
position shows there too, and is counted once.  Every shorter prefix lies
where no cut can fall.  The shard depth is fixed, not derived from the
worker count: ledger records are keyed by shard prefix, and a cut of a
prefix's last node is counted once per shard, so a different depth would
change both the ledger and the cut counts.  An optional append-only ledger
file records finished shards (and any sequences they found), in prefix
order for any worker count, so an interrupted search can be resumed.  The
ledger is opened and checked even where row-sum settles the order without a
walk.

A budget stops a walk in one place.  The deadline is read when the walk
starts and then every _DEADLINE_POLL tree nodes; a read past it raises
_Stop, and the one handler in _run_shard returns the counts reached so far
(zeros for a walk that never started) with completed False.  The ledger
records only completed shards, so a resume walks a stopped shard again from
its start.

Alternation.  For a row h of even order L, let alt(h)_k = (-1)^k h_k.  Each
product h_k h_{k+u mod L} changes by the same sign (-1)^u, since k and
k+u mod L differ in parity by u.  So every settled partial sum keeps its
absolute value: the prefix-paf cut test and the leaf test give the same
verdict at h and at alt(h), and alt keeps h_0 = +1.  P and alt(P) differ
at position 1, so only the shards with '+' there are walked; the reported
counts are still those of the full tree.  Without row-sum, the subtree
under P is isomorphic to the one under alt(P), node for node, with the
same leaves, the same cuts and alternated hits.  So a walk returns P's
record alone, and the settle step of search() is the one place that
derives alt(P)'s from it, as it does from a record read from the ledger
(a stopped walk's partner never started).  alt changes the number of -1
entries, so with row-sum the two trees differ, though with prefix-paf too
fewer than a tenth of the nodes of their union at orders 16 and 36 are
alive in one tree only.  One walk covers their union and returns the
records of P and of alt(P), carrying the -1 count of h for P and of
alt(h) for alt(P).  A node that passes row-sum in both takes the shared
prefix-paf test and counters; a node alive in one tree only continues in
a small walk of that tree.  A hit of alt(P) is alt of a row met in the
walk, confirmed by the predicate.  A stopped pair walk stops both records,
each with the counts it reached.  A resume walks a pair again when the
ledger lacks either member, and records only the missing one.

With more than one worker, the calling process forks workers - 1 children
(none where the platform cannot fork), and every process, itself included,
claims its next shard by reading the shard's index from one pipe.  Each
child sends its results back over its own pipe, only the calling process
writes the ledger, and a child that dies makes the search raise
RuntimeError rather than report its shard.  Each process of the walk
starts on its own allowed CPU: the calling process moves itself to child
k's CPU (the second for child 1 and so on, in turn) just before forking
it, so the child is born there and first gives itself the whole affinity
mask back, and after the last fork the calling process moves itself to
the first CPU and takes its own mask back, all before anyone claims a
shard.  Where the kernel does not balance load between CPUs (cpuset
sched_load_balance = 0), a forked child otherwise stays on its parent's
CPU and the two share it, and a child moved only after its fork could
claim a shard and walk it there first.  Where the kernel does balance
load it remains free to move them.
"""

from __future__ import annotations

import collections
import itertools
import json
import os
import sys
import time
from math import inf, isqrt
from pathlib import Path

from . import ALL_PRUNES, PRUNE_PREFIX_PAF, PRUNE_ROW_SUM, _NAMES
from .seqcore import SignSequence, _Record, _set_field, is_circulant_hadamard

__all__ = [*_NAMES["searcher"]]


# shards are the 2^(depth-1) prefixes of this length starting with '+';
# fixed, because the ledger and the cut counts depend on it
_SHARD_DEPTH_CAP = 6
# how often a shard polls the budget deadline, in tree nodes
_DEADLINE_POLL = 4096
# bytes in a key index on the task pipe of _walk
_WIDTH = 2
# the largest order whose shard tables search() builds
_MAX_ORDER = 4096


def _check_order(order: int) -> None:
    if not isinstance(order, int) or order < 4 or order % 4 != 0:
        raise ValueError(f"order must be a positive multiple of 4, got {order}")


class SearchConfig(_Record):
    """What search() walks: the order, the prunes (a frozenset of prune
    names), the worker count, whether to report canonical classes, an
    optional budget in seconds and an optional ledger file."""

    __slots__ = ("order", "prunes", "workers", "canonicalize", "budget_seconds", "ledger_path")

    def __init__(
        self, order: int, prunes: frozenset[str] = ALL_PRUNES, workers: int = 1,
        canonicalize: bool = False, budget_seconds: float | None = None,
        ledger_path: str | Path | None = None,
    ) -> None:
        _check_order(order)
        if isinstance(workers, bool) or not isinstance(workers, int) or workers < 1:
            raise ValueError("workers must be at least 1")
        # a string would be read as its characters
        if isinstance(prunes, str) or not hasattr(prunes, "__iter__"):
            raise ValueError(f"prunes must be a collection of prune names, got {prunes!r}")
        unknown = set(prunes) - ALL_PRUNES
        if unknown:
            raise ValueError(f"unknown prunes: {sorted(unknown)}")
        if not isinstance(canonicalize, bool):
            raise ValueError("canonicalize must be True or False")
        if budget_seconds is not None:
            # bool is an int subclass, but a flag is no number of seconds
            if isinstance(budget_seconds, bool) or not isinstance(budget_seconds, (int, float)):
                raise ValueError("budget_seconds must be a number of seconds")
            # NaN fails every comparison, so it is refused with inf
            if not 0 <= budget_seconds < inf:
                raise ValueError("budget_seconds must be finite and nonnegative")
        if ledger_path is not None and not isinstance(ledger_path, (str, os.PathLike)):
            raise ValueError(f"ledger_path must be a path, got {ledger_path!r}")
        values = (order, frozenset(prunes), workers, canonicalize, budget_seconds, ledger_path)
        for name, value in zip(self.__slots__, values):
            _set_field(self, name, value)


class SearchReport(_Record):
    """Search outcome.  Everything except workers and elapsed_seconds is a
    pure function of the configuration, which is what canonical_dict()
    exposes for bit-identical comparison across worker counts."""

    __slots__ = (
        "order", "prunes", "canonicalize", "workers", "sequences_examined", "solutions",
        "canonical_classes", "prune_cuts", "incomplete", "elapsed_seconds",
    )

    def __init__(
        self, order: int, prunes: tuple[str, ...], canonicalize: bool, workers: int,
        sequences_examined: int, solutions: tuple[str, ...],
        canonical_classes: tuple[str, ...] | None, prune_cuts: dict[str, int],
        incomplete: bool, elapsed_seconds: float,
    ) -> None:
        values = (
            order, prunes, canonicalize, workers, sequences_examined, solutions,
            canonical_classes, prune_cuts, incomplete, elapsed_seconds,
        )
        for name, value in zip(self.__slots__, values):
            _set_field(self, name, value)

    def canonical_dict(self) -> dict:
        return {
            "order": self.order,
            "prunes": list(self.prunes),
            "canonicalize": self.canonicalize,
            "sequences_examined": self.sequences_examined,
            "solutions": list(self.solutions),
            "canonical_classes": (
                None if self.canonical_classes is None else list(self.canonical_classes)
            ),
            "prune_cuts": dict(self.prune_cuts),
            "incomplete": self.incomplete,
        }

    def canonical_json(self) -> str:
        return json.dumps(self.canonical_dict(), sort_keys=True, separators=(",", ":"))

    def to_dict(self) -> dict:
        doc = self.canonical_dict()
        doc["workers"] = self.workers
        doc["elapsed_seconds"] = self.elapsed_seconds
        return doc


def rowsum_prune_applicable(order: int) -> bool:
    """True when the order is rejected outright: (row sum)^2 = L forces L
    to be a perfect square, so non-squares admit no solutions at all."""
    _check_order(order)
    return isqrt(order) ** 2 != order


def _minus_targets(order: int) -> tuple[int, ...]:
    s = isqrt(order)
    return ((order - s) // 2, (order + s) // 2)


def _shard_prefixes(order: int) -> tuple[str, ...]:
    depth = min(_SHARD_DEPTH_CAP, order)
    return tuple(
        "+" + "".join(tail) for tail in itertools.product("+-", repeat=depth - 1)
    )


# one shard's record, as a walk returns it and a worker pickles it
_ShardResult = collections.namedtuple("_ShardResult", "prefix completed examined cuts hits")


class _Stop(Exception):
    """The budget deadline has passed; raised inside a shard's walk."""


def _minus_ok_ends(order: int, minus_targets: tuple[int, ...] | None) -> tuple[int, ...]:
    """ends[m] for m = 0..order: with m '-' entries among positions 0..p,
    some target count of '-' entries is still reachable exactly when
    p < ends[m] (always, without row-sum).

    Target t is reachable when m <= t <= m + (order - p - 1), that is when
    t >= m and p < m + order - t, so ends[m] is the largest such bound over
    the targets t >= m, which the least of them gives, and 0 where there is
    none.  One entry per count, where a table by position and count would
    take O(order^2).
    """
    if minus_targets is None:
        return (order,) * (order + 1)
    ends: list[int] = []
    # the counts from len(ends) up to t, if any, have t as their least target
    for t in sorted(minus_targets):
        ends += range(len(ends) + order - t, order + 1)
    return tuple(ends + [0] * (order + 1 - len(ends)))


class _PackedLags:
    """The walk table of one search, and the prefix-paf state of a partial
    row with every lag in one integer.

    It is built once per search from the order and the prune selection,
    before any worker forks, and holds everything a shard walk reads: the
    per-position ``rows``, the leaf ``target``, the prune flags ``use_paf``
    and ``paired`` (row-sum), the sorted prune names ``prunes`` and the
    row-sum table ``ends`` (see _minus_ok_ends), built from the order's own
    targets, so every '-' count still reaches one below L/2.

    Positions are set in order 0, 1, 2, ...  For each lag u = 1..L/2, let
    neg count the settled products h[k]h[k+u mod L] that are -1.  The state
    m holds upper + neg in the W-bit field at bit W*(u-1), where ``upper``,
    2^(W-1) - 1 - L/2 in every field, is the state before any position is
    set.  A lag with ``settled`` products settled has partial sum
    settled - 2*neg and L - settled products undetermined, so
    |partial| > undetermined holds exactly when one sign outnumbers L/2:
    neg > L/2 or settled - neg > L/2.  The first sets the top ("guard") bit
    of a field of m; the second sets it in ceil - m, where the ceiling
    ``ceil`` holds 2*upper + settled in every field once position p is set.
    So the cut test is (m | (ceil - m)) & guard.  W = L.bit_length() gives
    2^(W-1) > L/2.  Each field of each operand lies in [0, 2^W): m is at
    most upper + L < 2^W, ceil at most 2*upper + L = 2^W - 2, and ceil - m
    at least upper >= 0, since neg <= settled in every field.  So no field
    carries into the next or borrows from it, and every operand stays
    nonnegative, which keeps CPython's big-int | and & off their
    two's-complement path.

    ``rows[p]`` is (back, ceil, both) at position p.  Setting position p
    to +1 adds the settled products with h[p] whose other factor is -1:
    rev & back, plus the wrap term; setting it to -1 adds the rest of the
    ``both`` products it settles.  ``rev`` holds bit h[p-u] in field u (the
    prefix reversed), and ``fwd`` holds the first half forward, h[j] in
    field j+1, for the products that wrap round.  A whole row is read back
    from ``rev`` alone (see row_bits).

    The two halves of a row differ.  Below L/2 no product wraps round
    (``wrap[p]`` is 0), and every lag has settled(u, p) <= p < L/2
    products, so no cut can fall there.  From L/2 on, ``spread[p]`` is 0:
    ``fwd`` is final, and each position's wrap term (see wrap_term) is the
    same for the whole subtree, so a walk takes them once at L/2.

    Once every position is set, all L products of each lag are settled, and
    paf(u) = 0 for every u = 1..L/2 (hence, by paf(u) = paf(L-u), for every
    nonzero lag) exactly when m equals ``target``, upper + L/2 in every
    field.
    """

    def __init__(self, order: int, prunes: frozenset[str]) -> None:
        L = order
        half = L // 2
        W = L.bit_length()
        top = 1 << (W - 1)

        def unit(u: int) -> int:
            return 1 << W * (u - 1)

        ones = sum(unit(u) for u in range(1, half + 1))
        self.order = L
        self.width = W
        self.guard = top * ones
        self.upper = (top - 1 - half) * ones
        self.target = (top - 1) * ones
        self.use_paf = PRUNE_PREFIX_PAF in prunes
        self.paired = PRUNE_ROW_SUM in prunes
        self.prunes = tuple(sorted(prunes))
        self.ends = _minus_ok_ends(L, _minus_targets(L) if self.paired else None)
        # products h[p-u]h[p] (lags u <= p) and h[p]h[p+u-L] (lags u >= L-p)
        # settled by position p; built position by position, since summing
        # every field afresh at every position costs O(L^3) word operations
        rows, wrap = [], []
        b = w = 0
        c = 2 * self.upper
        for p in range(L):
            if 1 <= p <= half:
                b += unit(p)
            if p >= L - half:
                w += unit(L - p)
            # lag u has settled(u, p) = settled(u, p - 1) + [u <= p] + [u >= L - p]
            c += b + w
            rows.append((b, c, b + w))
            wrap.append(w)
        self.rows, self.wrap = tuple(rows), tuple(wrap)
        self.shift = tuple(W * (L - p - 1) for p in range(L))
        self.spread = tuple(1 << W * p if p < half else 0 for p in range(L))

    def wrap_term(self, p: int, fwd: int) -> int:
        """The part of position p's increment that counts the products
        h[p]h[p+u-L] wrapping round to the first half, which ``fwd`` holds;
        0 below L/2."""
        return (fwd << self.shift[p]) & self.wrap[p]

    def settle(self, p: int, bit: int, rev: int, fwd: int, m: int) -> tuple[int, int, int]:
        """(rev, fwd, m) after setting position p to -1 (bit 1) or +1 (bit 0)."""
        back, _, both = self.rows[p]
        inc = (rev & back) + self.wrap_term(p, fwd)
        if bit:
            inc = both - inc
        return (rev << self.width) | bit, fwd | self.spread[p] * bit, m + inc

    def row_bits(self, rev: int) -> int:
        """The packed row (bit k set for h[k] = -1) of a whole row whose
        ``rev`` holds h[L-1-k] in field k."""
        W, last = self.width, self.order - 1
        return sum((rev >> W * (last - k) & 1) << k for k in range(last + 1))


def _run_shard(lags: _PackedLags, prefix: str, deadline: float | None) -> tuple[_ShardResult, ...]:
    """The records of the shards that one walk from prefix covers: that of
    prefix alone without row-sum, and with it also that of alt(prefix) (see
    Alternation in the module docstring).  The prefix is settled without a
    test; past L/2 its last node alone is tested, once per tree."""
    L = lags.order
    half, last = L // 2, L - 1
    use_paf, paired, ends = lags.use_paf, lags.paired, lags.ends
    W, guard, rows, target = lags.width, lags.guard, lags.rows, lags.target
    terms: tuple[int, ...] = ()
    # counts of the nodes alive in both trees (every node of a walk without
    # row-sum), then per tree, 0 for the row's and 1 for its alternate's, of
    # the nodes alive in that tree alone
    examined = paf_cuts = 0
    leaves, pafs, rowsums = [0, 0], [0, 0], [0, 0]
    hits: tuple[list[str], list[str]] = ([], [])
    sides = (0, 1) if paired else (0,)
    poll = _DEADLINE_POLL

    def found(rev: int, *of: int) -> None:
        # only a leaf whose counters all read L/2 can be a hit; the
        # predicate has the last word on it
        seq = SignSequence.from_bits(L, lags.row_bits(rev))
        if is_circulant_hadamard(seq):
            for side in of:
                hits[side].append(seq.text)

    def refill() -> None:
        # the deadline is read every _DEADLINE_POLL tree nodes, when poll
        # runs out
        nonlocal poll
        poll = _DEADLINE_POLL
        if deadline is not None and time.monotonic() > deadline:
            raise _Stop

    def front(p: int, rev: int, fwd: int, m: int, minus: int, malt: int) -> None:
        # positions below L/2 take no cut test: no lag has more than L/2
        # products settled there (see _PackedLags), and every '-' count
        # still reaches a row-sum target of the order.  At L/2 fwd is final,
        # and the subtree's wrap terms are taken from it once.  minus and
        # malt count the '-' entries of the row and of its alternate
        nonlocal terms, poll
        if p < half:
            if not (poll := poll - 1):
                refill()
            for bit in (0, 1):
                front(p + 1, *lags.settle(p, bit, rev, fwd, m), minus + bit, malt + (bit ^ p & 1))
            return
        terms = tuple(lags.wrap_term(q, fwd) for q in range(L))
        if p > half:
            # a prefix past L/2: its last node is tested once per tree, and
            # a cut verdict, monotone along the path, covers the nodes above
            for side in sides:
                test(p - 1, rev, m, (minus, malt)[side], side)
        elif not paired:
            dfs(p, rev, m)
        else:
            pair(p, rev, m, minus, malt)

    # settle and the cut test (m | (ceil - m)) & guard of _PackedLags
    # inlined: this is the hot loop of a walk without row-sum.  A child at
    # the last position is a leaf, counted and tested here without a call;
    # leaves do not count towards the deadline poll.  The row itself is not
    # carried: the rare leaf that reaches found reads it back from rev.
    def dfs(p: int, rev: int, m: int) -> None:
        nonlocal examined, paf_cuts, poll
        if not (poll := poll - 1):
            refill()
        back, ceil, both = rows[p]
        inc = (rev & back) + terms[p]
        rev <<= W
        # h[p] = +1: the settled products with h[p] are -1 where the other
        # factor is -1, which is what inc counts
        n = m + inc
        if use_paf and (n | (ceil - n)) & guard:
            paf_cuts += 1
        elif p != last:
            dfs(p + 1, rev, n)
        else:
            examined += 1
            if n == target:
                found(rev, 0)
        # h[p] = -1: the complementary products are -1
        n = m + both - inc
        if use_paf and (n | (ceil - n)) & guard:
            paf_cuts += 1
        elif p != last:
            dfs(p + 1, rev | 1, n)
        else:
            examined += 1
            if n == target:
                found(rev | 1, 0)

    # the same at a node alive in both trees of a walk with row-sum: a
    # child that passes row-sum in both shares the prefix-paf verdict and
    # the counters, and a child that fails it in one tree is tested for the
    # other by test
    def pair(p: int, rev: int, m: int, minus: int, malt: int) -> None:
        nonlocal examined, paf_cuts, poll
        if not (poll := poll - 1):
            refill()
        back, ceil, both = rows[p]
        inc = (rev & back) + terms[p]
        rev <<= W
        # h[p] = +1, which the alternate negates at odd p
        n = m + inc
        a = malt + (p & 1)
        if p >= ends[minus]:
            rowsums[0] += 1
            test(p, rev, n, a, 1)
        elif p >= ends[a]:
            rowsums[1] += 1
            test(p, rev, n, minus, 0)
        elif use_paf and (n | (ceil - n)) & guard:
            paf_cuts += 1
        elif p != last:
            pair(p + 1, rev, n, minus, a)
        else:
            examined += 1
            if n == target:
                found(rev, 0, 1)
        n = m + both - inc
        minus, a = minus + 1, malt + 1 - (p & 1)
        if p >= ends[minus]:
            rowsums[0] += 1
            test(p, rev | 1, n, a, 1)
        elif p >= ends[a]:
            rowsums[1] += 1
            test(p, rev | 1, n, minus, 0)
        elif use_paf and (n | (ceil - n)) & guard:
            paf_cuts += 1
        elif p != last:
            pair(p + 1, rev | 1, n, minus, a)
        else:
            examined += 1
            if n == target:
                found(rev | 1, 0, 1)

    def test(p: int, rev: int, m: int, minus: int, side: int) -> None:
        # node p of one side's tree, with that side's '-' count: tested,
        # then expanded; the alternate's count grows by bit ^ (p & 1)
        nonlocal poll
        if p >= ends[minus]:
            rowsums[side] += 1
        elif use_paf and (m | (rows[p][1] - m)) & guard:
            pafs[side] += 1
        elif p == last:
            leaves[side] += 1
            if m == target:
                found(rev, side)
        else:
            if not (poll := poll - 1):
                refill()
            back, _, both = rows[p + 1]
            inc = (rev & back) + terms[p + 1]
            flip = side & (p + 1)
            test(p + 1, rev << W, m + inc, minus + flip, side)
            test(p + 1, rev << W | 1, m + both - inc, minus + 1 - flip, side)

    # the walk recurses once per position, so a large order needs more
    # frames than the default limit allows
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + L)
    try:
        refill()
        # the prefix is settled without a test: front tests it, if at all
        rev = fwd = minus = malt = 0
        m = lags.upper
        for p, ch in enumerate(prefix):
            bit = 1 if ch == "-" else 0
            minus, malt = minus + bit, malt + (bit ^ p & 1)
            rev, fwd, m = lags.settle(p, bit, rev, fwd, m)
        front(len(prefix), rev, fwd, m, minus, malt)
        completed = True
    except _Stop:
        completed = False
    finally:
        sys.setrecursionlimit(limit)

    def record(side: int, key: str, texts: tuple[str, ...]) -> _ShardResult:
        counts = {PRUNE_ROW_SUM: rowsums[side], PRUNE_PREFIX_PAF: paf_cuts + pafs[side]}
        cuts = {name: counts[name] for name in lags.prunes}
        return _ShardResult(key, completed, examined + leaves[side], cuts, texts)

    first = record(0, prefix, tuple(hits[0]))
    if not paired:
        return (first,)
    return first, record(1, _alternate(prefix), _alternate_hits(hits[1]))


_FLIP = str.maketrans("+-", "-+")


def _alternate(text: str) -> str:
    """alt(h)_k = (-1)^k h_k: the entries at odd positions flipped."""
    chars = list(text)
    chars[1::2] = text[1::2].translate(_FLIP)
    return "".join(chars)


def _alternate_hits(hits: list[str]) -> tuple[str, ...]:
    """The alternates of a shard's hits, in text order, each confirmed by
    the predicate."""
    texts = tuple(sorted(map(_alternate, hits)))
    for text in texts:
        if not is_circulant_hadamard(SignSequence.from_text(text)):
            raise RuntimeError(f"alternated hit {text} is not a circulant Hadamard row")
    return texts


def _alternate_result(result: _ShardResult) -> _ShardResult:
    """The record of the shard under alt(prefix), derived from the record of
    the shard under prefix when row-sum is off (see the module docstring).
    A shard the budget stopped gives a partner that never started."""
    prefix = _alternate(result.prefix)
    if not result.completed:
        return _ShardResult(prefix, False, 0, dict.fromkeys(result.cuts, 0), ())
    hits = _alternate_hits(result.hits)
    return _ShardResult(prefix, True, result.examined, dict(result.cuts), hits)


def _walk(walk, keys: list, workers: int, settle) -> None:
    """Call settle(walk(key)) here for every key, walking the keys in this
    process and in up to workers - 1 children forked from it (none without
    os.fork).  Every process claims its next key by reading one index from
    a pipe filled before any fork.  A child sends each result back over its
    own pipe as one line, a pickle in hex, so a line torn by its death is
    never settled; a nonzero exit of a child raises RuntimeError here.
    Child k is born on cpus[k % len(cpus)] of the sorted allowed CPUs, as
    this process moves there to fork it; each process takes its mask back,
    this one after moving to cpus[0] and before its first claim."""
    tasks, feed = os.pipe()
    # _WIDTH bytes a key: the pipe holds them all before anyone reads
    os.write(feed, b"".join(i.to_bytes(_WIDTH, "little") for i in range(len(keys))))
    os.close(feed)

    def claims():
        while claim := os.read(tasks, _WIDTH):
            yield keys[int.from_bytes(claim, "little")]

    forks = min(workers, len(keys)) - 1 if hasattr(os, "fork") else 0
    if forks > 0:
        # imported here: they would add ~3 ms to every import of circhad
        import pickle
        import select
        import signal

        poller = select.poll()
    cpus = sorted(os.sched_getaffinity(0)) if forks > 0 and hasattr(os, "sched_setaffinity") else []
    children: dict[int, tuple[int, bytes]] = {}  # result pipe: pid, unread bytes

    def place(*to: int | None) -> None:
        # this process moves to cpus[i] for each i in turn, or takes its whole
        # mask back for None (see the module docstring); a refusal skips the rest
        if len(cpus) > 1:
            try:
                for i in to:
                    os.sched_setaffinity(0, cpus if i is None else (cpus[i % len(cpus)],))
            except OSError:
                pass

    def receive(timeout: float | None) -> None:
        for reader, _ in poller.poll(timeout):
            pid, unread = children[reader]
            data = os.read(reader, 1 << 16)
            if data:
                *lines, unread = (unread + data).split(b"\n")
                children[reader] = (pid, unread)
                for line in lines:
                    settle(pickle.loads(bytes.fromhex(line.decode())))
                continue
            # end of file: the child has exited or is exiting
            poller.unregister(reader)
            del children[reader]
            os.close(reader)
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if code:
                raise RuntimeError(f"a search worker process exited with code {code}")

    try:
        for k in range(1, forks + 1):
            reader, writer = os.pipe()
            place(k)  # so child k is born on its CPU
            try:
                pid = os.fork()
            except OSError:
                place(None)
                os.close(reader)
                os.close(writer)
                raise
            if pid == 0:
                try:
                    place(None)
                    for key in claims():
                        line = pickle.dumps(walk(key)).hex().encode() + b"\n"
                        while line:
                            line = line[os.write(writer, line) :]
                    os._exit(0)
                except BaseException:
                    import traceback

                    # to fd 2 itself: sys.stderr may hold the parent's unflushed output
                    os.write(2, traceback.format_exc().encode())
                finally:
                    os._exit(1)
            # the child holds the only write end, so its exit ends the pipe
            os.close(writer)
            children[reader] = (pid, b"")
            poller.register(reader, select.POLLIN)
        place(0, None)
        for key in claims():
            settle(walk(key))
            if children:
                receive(0)
        while children:
            receive(None)
    finally:
        os.close(tasks)
        for reader, (pid, _) in children.items():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(reader)


def _canonical_class(h: SignSequence) -> str:
    """The least text among the rotations of h and of its negation."""
    return min(g.rotate(s).text for g in (h, h.negate()) for s in range(len(h)))


class _ShardLedger:
    """Append-only record of finished shards, one status line per prefix.

    Lines are '<prefix> hit <sequence>' for each solution found in a shard,
    then '<prefix> done examined=<n> <prune>=<cuts>...' once the shard has
    been fully traversed.  The header pins order and prune selection so a
    ledger cannot silently be reused across configurations.  A malformed
    record is refused with a ValueError naming the file and the line; so is
    a record of a prefix that is not a shard of this search, a hit outside
    its shard or failing the predicate, and a hit or done line for a shard
    that already has a done line.  A file that cannot be read or written,
    at the start or on an append, is a ValueError naming it.

    record() only ever appends a shard's whole record, its hit lines and
    its done line, in one write.  So a final line without its newline is a
    write torn by a crash, even where it parses (a counter cut inside its
    digits does), and whole hit lines after the last done line belong to
    the same torn record.  Both are dropped, and the file is cut back to the
    end of its last done line (or of the header) so that the next record
    starts there; the shard they belonged to runs again.  The dropped whole
    lines are still parsed, so a malformed one is refused.  A strict prefix
    of the header line, an empty file included, is written afresh.
    """

    def __init__(self, path: Path, cfg: SearchConfig) -> None:
        self.path = path
        self.header = _ledger_header(cfg)
        self.order = cfg.order
        self.prefixes = frozenset(_shard_prefixes(cfg.order))
        self.counter_names = {"examined", *cfg.prunes}
        self.recorded: dict[str, _ShardResult] = {}
        fresh = self.header + "\n"
        try:
            data = path.read_bytes() if path.exists() else b""
            text = data.decode("utf-8")
            if len(text) < len(fresh) and fresh.startswith(text):
                path.write_text(fresh, encoding="utf-8")
                return
        except OSError as exc:
            raise ValueError(f"ledger {path}: {exc.strerror}") from None
        except UnicodeDecodeError as exc:
            raise ValueError(f"ledger {path}: {exc}") from None
        # the header is checked before anything is cut, so a file that is
        # not a ledger of this search is refused untouched
        kept = self._load(text[: text.rfind("\n") + 1])
        whole = len(text[:kept].encode("utf-8"))
        if whole < len(data):
            try:
                with path.open("r+b") as handle:
                    handle.truncate(whole)
            except OSError as exc:
                raise ValueError(f"ledger {path}: {exc.strerror}") from None

    def _load(self, text: str) -> int:
        """Accept the header and the records of text, whole lines only, and
        return the length of text up to the end of its last done line."""
        lines = text.split("\n")[:-1]  # text is empty or ends with "\n"
        if not lines or lines[0].removesuffix("\r") != self.header:
            raise ValueError(
                f"ledger {self.path} does not match this search configuration"
            )
        kept = end = len(lines[0]) + 1
        pending_hits: dict[str, list[str]] = {}
        for number, line in enumerate(lines[1:], start=2):
            end += len(line) + 1
            tokens = line.split()
            if not tokens:
                continue
            try:
                if len(tokens) < 2:
                    raise ValueError("shard prefix with no status")
                prefix, status, fields = tokens[0], tokens[1], tokens[2:]
                if prefix not in self.prefixes:
                    raise ValueError(f"{prefix!r} is not a shard prefix of this search")
                if status not in ("hit", "done"):
                    raise ValueError(f"unknown status {status!r}")
                if prefix in self.recorded:
                    raise ValueError(f"shard {prefix!r} is recorded twice")
                if status == "hit":
                    pending_hits.setdefault(prefix, []).append(self._parse_hit(prefix, fields))
                else:
                    examined, cuts = self._parse_done(fields)
                    self.recorded[prefix] = _ShardResult(
                        prefix, True, examined, cuts, tuple(pending_hits.pop(prefix, ()))
                    )
                    kept = end
            except ValueError as exc:
                raise ValueError(f"ledger {self.path} line {number}: {exc}") from None
        return kept

    def _parse_hit(self, prefix: str, fields: list[str]) -> str:
        if len(fields) != 1 or len(fields[0]) != self.order or set(fields[0]) - {"+", "-"}:
            raise ValueError(f"a hit needs one sequence of {self.order} '+'/'-' entries")
        text = fields[0]
        if not text.startswith(prefix):
            raise ValueError(f"hit {text} does not start with its shard prefix {prefix}")
        if not is_circulant_hadamard(SignSequence.from_text(text)):
            raise ValueError(f"hit {text} is not a circulant Hadamard row")
        return text

    def _parse_done(self, fields: list[str]) -> tuple[int, dict[str, int]]:
        counters: dict[str, int] = {}
        for field in fields:
            name, _, value = field.partition("=")
            if name in counters or not (value.isascii() and value.isdigit()):
                raise ValueError(f"malformed counter {field!r}")
            counters[name] = int(value)
        if counters.keys() != self.counter_names:
            raise ValueError(
                f"counters {sorted(counters)} differ from {sorted(self.counter_names)}"
            )
        examined = counters.pop("examined")
        return examined, counters

    def record(self, result: _ShardResult) -> None:
        counters = (f"{k}={v}" for k, v in sorted(result.cuts.items()))
        lines = [f"{result.prefix} hit {text}" for text in result.hits]
        lines.append(" ".join([f"{result.prefix} done examined={result.examined}", *counters]))
        try:
            with self.path.open("a", encoding="utf-8") as handle:
                handle.write("\n".join(lines) + "\n")
        except OSError as exc:
            raise ValueError(f"ledger {self.path}: {exc.strerror}") from None


def _ledger_header(cfg: SearchConfig) -> str:
    prunes = ",".join(sorted(cfg.prunes)) or "none"
    return f"# circhad shard ledger order={cfg.order} prunes={prunes}"


def _build_report(cfg: SearchConfig, records: list[_ShardResult], started: float) -> SearchReport:
    """The report of a search from its shard records, summed in one place,
    with the time elapsed since ``started`` (a perf_counter reading)."""
    cuts = dict.fromkeys(sorted(cfg.prunes), 0)
    for result in records:
        for name, count in result.cuts.items():
            cuts[name] += count
    found = [SignSequence.from_text(text) for result in records for text in result.hits]
    solutions = sorted({g.text for h in found for g in (h, h.negate())})
    classes = None
    if cfg.canonicalize:
        classes = tuple(sorted({_canonical_class(h) for h in found}))
    return SearchReport(
        order=cfg.order,
        prunes=tuple(sorted(cfg.prunes)),
        canonicalize=cfg.canonicalize,
        workers=cfg.workers,
        sequences_examined=sum(result.examined for result in records),
        solutions=tuple(solutions),
        canonical_classes=classes,
        prune_cuts=cuts,
        incomplete=not all(result.completed for result in records),
        elapsed_seconds=time.perf_counter() - started,
    )


def search(cfg: SearchConfig) -> SearchReport:
    """Find every circulant Hadamard first row of the configured order.

    The solution set does not depend on the prune selection or the worker
    count; prunes and parallelism only change how much work is done.  With
    a budget, the report may come back flagged incomplete.  A worker
    process that dies raises RuntimeError instead of a report.  An order
    above _MAX_ORDER that row-sum does not settle raises ValueError.
    """
    started = time.perf_counter()
    settled = PRUNE_ROW_SUM in cfg.prunes and rowsum_prune_applicable(cfg.order)
    if not settled and cfg.order > _MAX_ORDER:
        raise ValueError(f"order {cfg.order} is too large to search; the largest is {_MAX_ORDER}")
    # opened before the row-sum answer too, so a ledger of another search is
    # refused whichever way the search ends, and a fresh one gets its header
    ledger = None
    if cfg.ledger_path is not None:
        ledger = _ShardLedger(Path(cfg.ledger_path), cfg)
    if settled:
        # one record for the whole tree, cut by row-sum at its root
        return _build_report(cfg, [_ShardResult("", True, 0, {PRUNE_ROW_SUM: 1}, ())], started)

    prefixes = _shard_prefixes(cfg.order)
    results: dict[str, _ShardResult] = dict(ledger.recorded) if ledger else {}
    # records are written in prefix order: a result waits here until every
    # earlier prefix has one
    unrecorded = collections.deque(p for p in prefixes if p not in results)
    deadline = None if cfg.budget_seconds is None else time.monotonic() + cfg.budget_seconds
    # built once, before any child forks, so the children inherit it
    lags = _PackedLags(cfg.order, cfg.prunes)

    def settle(walked: tuple[_ShardResult, ...]) -> None:
        # a member the ledger already holds keeps its record; without
        # row-sum, each record supplies its partner's
        for result in walked:
            results.setdefault(result.prefix, result)
            if not lags.paired:
                partner = _alternate_result(result)
                results.setdefault(partner.prefix, partner)
        while unrecorded and unrecorded[0] in results:
            done = results[unrecorded.popleft()]
            if ledger is not None and done.completed:
                ledger.record(done)

    # the ledger's records supply their partners as a walk's do
    settle(tuple(results.values()))
    # a pair is walked from its member with '+' at position 1
    walks = [p for p in prefixes if p[1] == "+" and {p, _alternate(p)} - results.keys()]
    _walk(lambda prefix: _run_shard(lags, prefix, deadline), walks, cfg.workers, settle)
    missing = [p for p in prefixes if p not in results]
    if missing:
        raise RuntimeError(
            f"no result for {len(missing)} shards, first {missing[0]}: a worker process ended early"
        )
    return _build_report(cfg, [results[prefix] for prefix in prefixes], started)
