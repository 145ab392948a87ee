"""Shared oracles and generators for the test suite.

The dense-matrix oracle here is deliberately independent of the library's
autocorrelation path: it builds the full circulant by index arithmetic and
multiplies it out with numpy integer arithmetic.
"""

from __future__ import annotations

import contextlib
import errno
import itertools
import math
import os
import random
import signal
import time
from pathlib import Path

import numpy as np
import pytest

from circhad.blockform import (
    BlockSequence,
    SymBlockMatrix,
    TwoBlock,
    block_product,
    is_symmetric_even,
)
from circhad.matchchase import (
    ChaseOutcome,
    ChaseStep,
    ChaseTrace,
    IndexPair,
    LagMatching,
    MatchingBook,
    ValidationReport,
)


# a search with more than one worker must finish well inside this; a hang
# in the process code then fails its test instead of stalling the suite
SEARCH_SECONDS = 120


@contextlib.contextmanager
def time_limit(seconds):
    """Raise TimeoutError in the block (or the decorated test) once the given
    seconds have passed; no limit where the platform has no SIGALRM."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


# the CPUs this process may run on, sorted; empty where the platform
# does not say
ALLOWED_CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


def current_cpu() -> int:
    """The CPU this process last ran on: field 39 of /proc/self/stat,
    counted from after the parenthesised command name."""
    stat = Path("/proc/self/stat").read_text()
    return int(stat[stat.rindex(")") + 1 :].split()[36])


def count_forks(monkeypatch, limit=None):
    """Record the pid of every child that os.fork starts, refusing any
    fork beyond the limit as fork does at a process limit."""
    forked = []
    real_fork = os.fork

    def fork():
        if limit is not None and len(forked) >= limit:
            raise BlockingIOError(errno.EAGAIN, "fork refused")
        pid = real_fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return forked


def assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def fail_appends(monkeypatch):
    """Make every append-mode Path.open fail as on a full disk."""
    real_open = Path.open

    def open_(path, mode="r", *args, **kwargs):
        if "a" in mode:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))
        return real_open(path, mode, *args, **kwargs)

    monkeypatch.setattr(Path, "open", open_)


def stop_after_reads(monkeypatch, reads):
    """Patch time.monotonic to read 0.0 for its first `reads` calls and 1.0
    after.  Against a deadline of 0.5, a shard walk then stops at its
    reads-th deadline read (the first is at the shard's start, the rest
    one per poll), so at the same tree node on every run."""
    calls = itertools.count(1)
    monkeypatch.setattr(time, "monotonic", lambda: 0.0 if next(calls) <= reads else 1.0)


def dense_circulant(text: str) -> np.ndarray:
    entries = [1 if ch == "+" else -1 for ch in text]
    L = len(entries)
    return np.array(
        [[entries[(c - r) % L] for c in range(L)] for r in range(L)], dtype=np.int64
    )


def dense_hadamard_ok(text: str) -> bool:
    """H . H^T == L . I, with orders 1 and 2 excluded as outside the 4n setting."""
    H = dense_circulant(text)
    L = H.shape[0]
    if L in (1, 2):
        return False
    return bool((H @ H.T == L * np.eye(L, dtype=np.int64)).all())


def all_sign_texts(length: int):
    for combo in itertools.product("+-", repeat=length):
        yield "".join(combo)


def random_sign_text(rng: random.Random, length: int) -> str:
    return "".join(rng.choice("+-") for _ in range(length))


# The shard search's own shard depth, written out again so that a change to
# it (which would change ledgers and cut counts) shows up as a mismatch.
REFERENCE_SHARD_DEPTH = 6


def reference_shard(L: int, prefix: str, use_paf: bool, targets) -> tuple[int, dict, list]:
    """One shard walked the direct way: a signed partial sum and an
    undetermined-term count per lag, each updated and undone one lag at a
    time, with the same checks in the same order as circhad.searcher."""
    half = L // 2
    cuts = {"row-sum": 0, "prefix-paf": 0}
    signs = [0] * L
    partial = [0] * (half + 1)
    undet = [L] * (half + 1)
    minus = 0
    examined = 0
    hits: list[str] = []

    def apply(p: int, s: int) -> None:
        nonlocal minus
        signs[p] = s
        if s < 0:
            minus += 1
        if use_paf:
            for u in range(1, half + 1):
                if p >= u:
                    partial[u] += signs[p - u] * s
                    undet[u] -= 1
                w = p + u - L
                if w >= 0:
                    partial[u] += s * signs[w]
                    undet[u] -= 1

    def undo(p: int, s: int) -> None:
        nonlocal minus
        if s < 0:
            minus -= 1
        if use_paf:
            for u in range(1, half + 1):
                if p >= u:
                    partial[u] -= signs[p - u] * s
                    undet[u] += 1
                w = p + u - L
                if w >= 0:
                    partial[u] -= s * signs[w]
                    undet[u] += 1

    def violated(p: int):
        if targets is not None:
            remaining = L - p - 1
            if not any(minus <= t <= minus + remaining for t in targets):
                return "row-sum"
        if use_paf:
            for u in range(1, half + 1):
                if abs(partial[u]) > undet[u]:
                    return "prefix-paf"
        return None

    def dfs(p: int) -> None:
        nonlocal examined
        if p == L:
            examined += 1
            if all(
                sum(signs[k] * signs[(k + u) % L] for k in range(L)) == 0
                for u in range(1, L)
            ):
                hits.append("".join("+" if s > 0 else "-" for s in signs))
            return
        for s in (1, -1):
            apply(p, s)
            verdict = violated(p)
            if verdict is None:
                dfs(p + 1)
            else:
                cuts[verdict] += 1
            undo(p, s)

    for p, ch in enumerate(prefix):
        apply(p, 1 if ch == "+" else -1)
        verdict = violated(p)
        if verdict is not None:
            cuts[verdict] += 1
            return 0, cuts, []
    dfs(len(prefix))
    return examined, cuts, hits


def reference_search(order: int, prunes) -> tuple[int, dict, tuple]:
    """(sequences_examined, prune_cuts, solutions) of the shard search at
    one order and prune selection, as SearchReport gives them."""
    L = order
    root = math.isqrt(L)
    cuts = {name: 0 for name in prunes}
    if "row-sum" in prunes and root * root != L:
        cuts["row-sum"] = 1
        return 0, cuts, ()
    targets = ((L - root) // 2, (L + root) // 2) if "row-sum" in prunes else None
    depth = min(REFERENCE_SHARD_DEPTH, L)
    examined = 0
    hits: list[str] = []
    for tail in all_sign_texts(depth - 1):
        n, shard_cuts, shard_hits = reference_shard(L, "+" + tail, "prefix-paf" in prunes, targets)
        examined += n
        hits += shard_hits
        for name in cuts:
            cuts[name] += shard_cuts[name]
    negated = ["".join("-" if ch == "+" else "+" for ch in t) for t in hits]
    return examined, cuts, tuple(sorted(set(hits + negated)))


def reference_packed_lag_tables(L: int) -> tuple[tuple[int, ...], ...]:
    """(back, wrap, ceil), the per-position tables of searcher._PackedLags,
    from their direct definition with every W-bit field summed afresh:
    ``back`` and ``wrap`` hold
    a 1 in field u for each product h[p-u]h[p], resp. h[p]h[p+u-L], settled
    by position p, and ``ceil`` holds 2^(W-1) - 1 - L/2 + settled(u, p), the
    ceiling of _PackedLags less its offset ``upper``."""
    half = L // 2
    W = L.bit_length()
    top = 1 << (W - 1)
    lags = range(1, half + 1)

    def fields(values) -> int:
        return sum(v << W * (u - 1) for u, v in values)

    def settled(u: int, p: int) -> int:
        return max(0, p - u + 1) + max(0, p + u - L + 1)

    return (
        tuple(fields((u, 1) for u in lags if u <= p) for p in range(L)),
        tuple(fields((u, 1) for u in lags if u >= L - p) for p in range(L)),
        tuple(fields((u, top - 1 - half + settled(u, p)) for u in lags) for p in range(L)),
    )


def reference_minus_ok_table(L: int, targets) -> tuple[tuple[bool, ...], ...]:
    """The row-sum test of the search (searcher._minus_ok_ends) by its
    definition: with m '-' entries among positions 0..p, some target count
    is still reachable."""
    return tuple(
        tuple(
            targets is None or any(m <= t <= m + L - p - 1 for t in targets)
            for m in range(p + 2)
        )
        for p in range(L)
    )


def reference_ternary_paf(c: list[int], u: int) -> int:
    """Periodic autocorrelation sum(c[k] * c[k + u]) of an integer list, the
    lag taken modulo its length; c may hold any integers, e.g. -1, 0, +1."""
    L = len(c)
    return sum(c[k] * c[(k + u) % L] for k in range(L))


def reference_residual(bs: BlockSequence, u: int) -> SymBlockMatrix:
    """The even-pair cancellation residual at lag u the direct way: the sum
    of the 2x2 products M_i * M_{i+u} over the i where both are even."""
    total = SymBlockMatrix(0, 0)
    for i in range(len(bs)):
        a, b = bs[i], bs[i + u]
        if a.is_even and b.is_even:
            total = total + block_product(a, b)
    return total


# the block order ++ < +- < -+ < --, written out again so that a change to
# the library's alphabet shows up as a mismatch
REFERENCE_BLOCK_ALPHABET = tuple(TwoBlock.from_text(t) for t in ("++", "+-", "-+", "--"))


def reference_block_sequences(length: int, evens: int | None = None):
    """Block sequences of the given length in lexicographic order, walked
    the direct way: one block appended per level of the recursion, and each
    finished row built by the validating BlockSequence constructor.  With
    ``evens`` set, only the rows with that many even blocks."""

    def walk(prefix, count):
        pos = len(prefix)
        if pos == length:
            yield BlockSequence(prefix)
            return
        remaining = length - pos - 1
        for block in REFERENCE_BLOCK_ALPHABET:
            c = count + block.is_even
            if evens is not None and (c > evens or c + remaining < evens):
                continue
            yield from walk(prefix + (block,), c)

    yield from walk((), 0)


def _reference_pair_violations(bs: BlockSequence, u: int, pair: IndexPair) -> list[str]:
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


def reference_validate_matching(bs: BlockSequence, m: LagMatching) -> ValidationReport:
    """validate_matching the direct way: each pair's blocks looked up as
    TwoBlock objects, and the two block products compared as matrices.  A
    lag must lie in 1..2n-1; a lag that is zero modulo 2n has its own text."""
    mod = len(bs)
    violations: list[str] = []
    if m.lag % mod == 0:
        return ValidationReport((f"lag {m.lag} is zero modulo {mod}",))
    if not 1 <= m.lag <= mod - 1:
        return ValidationReport((f"lag {m.lag} is outside 1..{mod - 1} for {mod} blocks",))
    u = m.lag
    seen: set[IndexPair] = set()
    for p, q in m.pairs:
        for member in (p, q):
            if member in seen:
                violations.append(f"index pair {member} is matched more than once")
            seen.add(member)
        bad = _reference_pair_violations(bs, u, p) + _reference_pair_violations(bs, u, q)
        violations.extend(bad)
        if bad:
            continue
        prod_p = block_product(bs[p.first], bs[p.second])
        prod_q = block_product(bs[q.first], bs[q.second])
        if prod_p != -prod_q:
            violations.append(
                f"{p}~{q}: products {prod_p} and {prod_q} are not negatives"
            )
    return ValidationReport(tuple(violations))


def reference_even_pairs_at_lag(bs: BlockSequence, u: int) -> tuple[IndexPair, ...]:
    mod = len(bs)
    u %= mod
    if u == 0:
        raise ValueError("lag must be nonzero modulo the block count")
    return tuple(
        IndexPair(i, (i + u) % mod)
        for i in range(mod)
        if bs[i].is_even and bs[(i + u) % mod].is_even
    )


def reference_find_matching(bs: BlockSequence, u: int) -> LagMatching:
    """find_matching the direct way: the even pairs at lag u split by the
    sign of d_i * d_{i+u} into a plus and a minus list, paired off in
    order, and canonicalized by LagMatching.of."""
    plus: list[IndexPair] = []
    minus: list[IndexPair] = []
    for pair in reference_even_pairs_at_lag(bs, u):
        sign = bs[pair.first].diag * bs[pair.second].diag
        (plus if sign > 0 else minus).append(pair)
    return LagMatching.of(u % len(bs), zip(plus, minus))


def _reference_partner(book: MatchingBook, pair: IndexPair, mod: int) -> IndexPair | None:
    # a linear scan of the matching at the pair's lag, first occurrence wins
    m = book.matching_at(pair.lag(mod))
    for p, q in m.pairs if m is not None else ():
        if pair == p:
            return q
        if pair == q:
            return p
    return None


def reference_chase(bs: BlockSequence, book: MatchingBook, start: IndexPair) -> ChaseTrace:
    """chase the direct way: obligations kept as IndexPair objects in the
    seen set, and each partner found by scanning the book's matching."""
    mod = len(bs)
    if start.first >= mod or start.second >= mod:
        raise ValueError(f"start {start} out of range for {mod} blocks")
    for idx in (start.first, start.second):
        if not bs[idx].is_even:
            raise ValueError(f"start {start} touches odd block {idx}")
    if is_symmetric_even(bs, start.first):
        raise ValueError(
            f"block {start.first} is symmetric; the chase premise needs a "
            "non-symmetric even block"
        )
    steps: list[ChaseStep] = []
    seen = {start}
    current = start
    while True:
        partner = _reference_partner(book, current, mod)
        if partner is None:
            steps.append(ChaseStep(current, None))
            return ChaseTrace(tuple(steps), ChaseOutcome.MATCHING_UNAVAILABLE)
        steps.append(ChaseStep(current, partner))
        if partner.second == start.first:
            return ChaseTrace(tuple(steps), ChaseOutcome.DEGENERATE)
        nxt = IndexPair(start.first, partner.second)
        if nxt in seen:
            return ChaseTrace(tuple(steps), ChaseOutcome.CYCLE, repeat=nxt)
        seen.add(nxt)
        current = nxt
