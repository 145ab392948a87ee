"""Exhaustive search for circulant Hadamard sequences at small orders.

The space of length-L sign sequences is walked as a binary tree with the
first entry fixed to +1; global negations are restored in the report.  Two
optional prunes cut branches:

* row-sum: a circulant Hadamard row sum s satisfies s*s = L, so orders that
  are not perfect squares are rejected without enumeration, and square
  orders constrain the number of -1 entries to (L - s)/2 or (L + s)/2.
  Inside the tree this is one table lookup per node, indexed by position
  and by the number of -1 entries so far.
* prefix-paf: the settled part of each periodic autocorrelation lag is
  bounded by the number of still-undetermined terms; a branch that cannot
  reach zero at some lag is cut.  The state is one packed integer with a
  counter of settled -1 products per lag (see _PackedLags), so setting a
  position and testing every lag are a few integer operations, not a loop
  over the L/2 lags.  The state is passed down the recursion; nothing is
  undone on the way back.

Work is partitioned into shards by sequence prefix.  The shard set and each
shard's traversal depend only on the order and the prune selection, never
on the worker count, so reports are identical however the shards are
scheduled.  With more than one worker the shards run in a process pool;
only the parent process writes the ledger.  The shard depth is fixed, not
derived from the worker count: ledger records are keyed by shard prefix,
and a cut made while settling a prefix is counted once per shard, so a
different depth would change both the ledger and the cut counts.  An
optional append-only ledger file records finished shards (and any
sequences they found) so an interrupted search can be resumed.
"""

from __future__ import annotations

import functools
import itertools
import json
import time
from dataclasses import dataclass
from math import inf, isqrt
from pathlib import Path

# the block-row enumerators live with the block view; re-exported here
from .blockform import all_block_sequences, enumerate_block_sequences
from .seqcore import SignSequence, is_circulant_hadamard

__all__ = [
    "PRUNE_ROW_SUM",
    "PRUNE_PREFIX_PAF",
    "ALL_PRUNES",
    "SearchConfig",
    "SearchReport",
    "search",
    "rowsum_prune_applicable",
    "enumerate_block_sequences",
    "all_block_sequences",
]

PRUNE_ROW_SUM = "row-sum"
PRUNE_PREFIX_PAF = "prefix-paf"
ALL_PRUNES = frozenset({PRUNE_ROW_SUM, PRUNE_PREFIX_PAF})

# shards are the 2^(depth-1) prefixes of this length starting with '+';
# fixed, because the ledger and the cut counts depend on it
_SHARD_DEPTH_CAP = 6
# how often a shard polls the budget deadline, in tree nodes
_DEADLINE_POLL = 4096


@dataclass(frozen=True)
class SearchConfig:
    order: int
    prunes: frozenset[str] = ALL_PRUNES
    workers: int = 1
    canonicalize: bool = False
    budget_seconds: float | None = None
    ledger_path: str | Path | None = None

    def __post_init__(self) -> None:
        if self.order < 4 or self.order % 4 != 0:
            raise ValueError(f"order must be a positive multiple of 4, got {self.order}")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        unknown = set(self.prunes) - ALL_PRUNES
        if unknown:
            raise ValueError(f"unknown prunes: {sorted(unknown)}")
        object.__setattr__(self, "prunes", frozenset(self.prunes))
        # NaN fails every comparison, so it is refused with inf
        if self.budget_seconds is not None and not 0 <= self.budget_seconds < inf:
            raise ValueError("budget_seconds must be finite and nonnegative")


@dataclass(frozen=True)
class SearchReport:
    """Search outcome.  Everything except workers and elapsed_seconds is a
    pure function of the configuration, which is what canonical_dict()
    exposes for bit-identical comparison across worker counts."""

    order: int
    prunes: tuple[str, ...]
    canonicalize: bool
    workers: int
    sequences_examined: int
    solutions: tuple[str, ...]
    canonical_classes: tuple[str, ...] | None
    prune_cuts: dict[str, int]
    incomplete: bool
    elapsed_seconds: float

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
    if order <= 0 or order % 4 != 0:
        raise ValueError(f"order must be a positive multiple of 4, got {order}")
    return isqrt(order) ** 2 != order


def _minus_targets(order: int) -> tuple[int, ...]:
    s = isqrt(order)
    return ((order - s) // 2, (order + s) // 2)


def _shard_prefixes(order: int) -> tuple[str, ...]:
    depth = min(_SHARD_DEPTH_CAP, order)
    return tuple(
        "+" + "".join(tail) for tail in itertools.product("+-", repeat=depth - 1)
    )


@dataclass
class _ShardResult:
    prefix: str
    completed: bool
    examined: int
    cuts: dict[str, int]
    hits: tuple[str, ...]


class _PackedLags:
    """The prefix-paf state of a partial row, every lag in one integer.

    Positions are set in order 0, 1, 2, ...  For each lag u = 1..L/2, the
    W-bit field at bit W*(u-1) of ``neg`` counts the settled products
    h[k]h[k+u mod L] that are -1.  A lag with ``settled`` products settled
    has partial sum settled - 2*neg and L - settled products undetermined,
    so |partial| > undetermined holds exactly when neg > L/2 or
    neg < settled - L/2.  Adding ``upper`` (resp. ``lower[p]``) to ``neg``
    turns each test into the top ("guard") bit of every field, set (resp.
    clear) on a violation.  W = L.bit_length() gives 2^(W-1) > L/2, which
    keeps both sums inside their fields, so no field carries into the next.

    The increments come from two more packed integers of the prefix: ``rev``
    holds bit h[p-u] in field u (the prefix reversed), and ``fwd`` holds the
    first half forward, h[j] in field j+1, for the products that wrap round.

    Once every position is set, all L products of each lag are settled, and
    paf(u) = 0 for every u = 1..L/2 (hence, by paf(u) = paf(L-u), for every
    nonzero lag) exactly when ``neg`` equals ``balanced``, L/2 in every field.
    """

    def __init__(self, order: int) -> None:
        L = order
        half = L // 2
        W = L.bit_length()
        top = 1 << (W - 1)

        def fields(values) -> int:
            return sum(v << W * (u - 1) for u, v in values)

        def settled(u: int, p: int) -> int:
            return max(0, p - u + 1) + max(0, p + u - L + 1)

        lags = range(1, half + 1)
        self.width = W
        self.guard = fields((u, top) for u in lags)
        self.upper = fields((u, top - 1 - half) for u in lags)
        self.balanced = fields((u, half) for u in lags)
        self.lower = tuple(
            fields((u, top + half - settled(u, p)) for u in lags) for p in range(L)
        )
        # products h[p-u]h[p] and h[p]h[p+u-L] settled by position p
        self.back = tuple(fields((u, 1) for u in lags if u <= p) for p in range(L))
        self.wrap = tuple(fields((u, 1) for u in lags if u >= L - p) for p in range(L))
        self.both = tuple(b + w for b, w in zip(self.back, self.wrap))
        self.shift = tuple(W * (L - p - 1) for p in range(L))
        self.spread = tuple(1 << W * p if p < half else 0 for p in range(L))

    def settle(self, p: int, bit: int, rev: int, fwd: int, neg: int) -> tuple[int, int, int]:
        """(rev, fwd, neg) after setting position p to -1 (bit 1) or +1 (bit 0)."""
        inc = (rev & self.back[p]) + ((fwd << self.shift[p]) & self.wrap[p])
        if bit:
            inc = self.both[p] - inc
        return (rev << self.width) | bit, fwd | self.spread[p] * bit, neg + inc

    def cut(self, p: int, neg: int) -> bool:
        """True when some lag can no longer reach zero once position p is set."""
        return bool(((neg + self.upper) | ~(neg + self.lower[p])) & self.guard)


def _minus_ok_table(
    order: int, minus_targets: tuple[int, ...] | None
) -> tuple[tuple[bool, ...], ...]:
    """minus_ok[p][m]: with m '-' entries among positions 0..p, some target
    count of '-' entries is still reachable (always, without row-sum)."""
    return tuple(
        tuple(
            minus_targets is None
            or any(m <= t <= m + order - p - 1 for t in minus_targets)
            for m in range(p + 2)
        )
        for p in range(order)
    )


@functools.lru_cache(maxsize=4)
def _shard_tables(
    order: int, minus_targets: tuple[int, ...] | None
) -> tuple[_PackedLags, tuple[tuple[bool, ...], ...]]:
    """The read-only tables every shard of one search shares, built once
    per (order, row-sum targets)."""
    return _PackedLags(order), _minus_ok_table(order, minus_targets)


def _run_shard(
    order: int,
    prefix: str,
    prunes: frozenset[str],
    minus_targets: tuple[int, ...] | None,
    deadline: float | None,
) -> _ShardResult:
    L = order
    use_paf = PRUNE_PREFIX_PAF in prunes
    cuts = {name: 0 for name in sorted(prunes)}
    if deadline is not None and time.monotonic() > deadline:
        return _ShardResult(prefix, False, 0, cuts, ())

    lags, minus_ok = _shard_tables(L, minus_targets)
    # the prefix is settled one position at a time with the same checks,
    # in the same order, as a node of the tree; a cut ends the shard
    bits = rev = fwd = neg = minus = 0
    for p, ch in enumerate(prefix):
        bit = 1 if ch == "-" else 0
        bits |= bit << p
        minus += bit
        rev, fwd, neg = lags.settle(p, bit, rev, fwd, neg)
        if not minus_ok[p][minus]:
            cuts[PRUNE_ROW_SUM] += 1
            return _ShardResult(prefix, True, 0, cuts, ())
        if use_paf and lags.cut(p, neg):
            cuts[PRUNE_PREFIX_PAF] += 1
            return _ShardResult(prefix, True, 0, cuts, ())

    W, guard, upper, balanced = lags.width, lags.guard, lags.upper, lags.balanced
    lower, back, wrap, both = lags.lower, lags.back, lags.wrap, lags.both
    shift, spread = lags.shift, lags.spread
    examined = rowsum_cuts = paf_cuts = 0
    hits: list[str] = []
    aborted = False
    poll = _DEADLINE_POLL

    # _PackedLags.settle and .cut inlined: this is the hot loop
    def dfs(p: int, bits: int, rev: int, fwd: int, neg: int, minus: int) -> None:
        nonlocal examined, rowsum_cuts, paf_cuts, aborted, poll
        if p == L:
            examined += 1
            # only a row whose counters all read L/2 can be a hit; the
            # predicate has the last word on it
            if neg == balanced:
                seq = SignSequence.from_bits(L, bits)
                if is_circulant_hadamard(seq):
                    hits.append(seq.text)
            return
        poll -= 1
        if not poll:
            poll = _DEADLINE_POLL
            if deadline is not None and time.monotonic() > deadline:
                aborted = True
                return
        inc = (rev & back[p]) + ((fwd << shift[p]) & wrap[p])
        ok = minus_ok[p]
        lo = lower[p]
        rev <<= W
        # h[p] = +1: the settled products with h[p] are -1 where the other
        # factor is -1, which is what inc counts
        n = neg + inc
        if not ok[minus]:
            rowsum_cuts += 1
        elif use_paf and ((n + upper) | ~(n + lo)) & guard:
            paf_cuts += 1
        else:
            dfs(p + 1, bits, rev, fwd, n, minus)
            if aborted:
                return
        # h[p] = -1: the complementary products are -1
        n = neg + both[p] - inc
        minus += 1
        if not ok[minus]:
            rowsum_cuts += 1
        elif use_paf and ((n + upper) | ~(n + lo)) & guard:
            paf_cuts += 1
        else:
            dfs(p + 1, bits | 1 << p, rev | 1, fwd | spread[p], n, minus)

    dfs(len(prefix), bits, rev, fwd, neg, minus)
    if PRUNE_ROW_SUM in prunes:
        cuts[PRUNE_ROW_SUM] += rowsum_cuts
    if use_paf:
        cuts[PRUNE_PREFIX_PAF] += paf_cuts
    return _ShardResult(prefix, not aborted, examined, cuts, tuple(hits))


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
    a record of a prefix that is not a shard of this search, and a hit
    outside its shard or failing the predicate.

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
        lines = text.splitlines(keepends=True)
        if not lines or lines[0].splitlines() != [self.header]:
            raise ValueError(
                f"ledger {self.path} does not match this search configuration"
            )
        kept = len(lines[0])
        end = kept
        pending_hits: dict[str, list[str]] = {}
        for number, line in enumerate(lines[1:], start=2):
            end += len(line)
            tokens = line.split()
            if not tokens:
                continue
            try:
                if len(tokens) < 2:
                    raise ValueError("shard prefix with no status")
                prefix, status, fields = tokens[0], tokens[1], tokens[2:]
                if prefix not in self.prefixes:
                    raise ValueError(f"{prefix!r} is not a shard prefix of this search")
                if status == "hit":
                    pending_hits.setdefault(prefix, []).append(self._parse_hit(prefix, fields))
                elif status == "done":
                    examined, cuts = self._parse_done(fields)
                    self.recorded[prefix] = _ShardResult(
                        prefix, True, examined, cuts, tuple(pending_hits.get(prefix, ()))
                    )
                    kept = end
                else:
                    raise ValueError(f"unknown status {status!r}")
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
        lines = [f"{result.prefix} hit {text}" for text in result.hits]
        counters = " ".join(f"{k}={v}" for k, v in sorted(result.cuts.items()))
        done = f"{result.prefix} done examined={result.examined}"
        if counters:
            done += " " + counters
        lines.append(done)
        with self.path.open("a", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")


def _ledger_header(cfg: SearchConfig) -> str:
    prunes = ",".join(sorted(cfg.prunes)) or "none"
    return f"# circhad shard ledger order={cfg.order} prunes={prunes}"


def _build_report(
    cfg: SearchConfig,
    examined: int,
    hits: list[str],
    cuts: dict[str, int],
    incomplete: bool,
    elapsed: float,
) -> SearchReport:
    found = [SignSequence.from_text(text) for text in hits]
    solutions = sorted({g.text for h in found for g in (h, h.negate())})
    classes = None
    if cfg.canonicalize:
        classes = tuple(sorted({_canonical_class(h) for h in found}))
    return SearchReport(
        order=cfg.order,
        prunes=tuple(sorted(cfg.prunes)),
        canonicalize=cfg.canonicalize,
        workers=cfg.workers,
        sequences_examined=examined,
        solutions=tuple(solutions),
        canonical_classes=classes,
        prune_cuts=cuts,
        incomplete=incomplete,
        elapsed_seconds=elapsed,
    )


def search(cfg: SearchConfig) -> SearchReport:
    """Find every circulant Hadamard first row of the configured order.

    The solution set does not depend on the prune selection or the worker
    count; prunes and parallelism only change how much work is done.  With
    a budget, the report may come back flagged incomplete.
    """
    started = time.perf_counter()
    cuts_total = {name: 0 for name in sorted(cfg.prunes)}
    if PRUNE_ROW_SUM in cfg.prunes and rowsum_prune_applicable(cfg.order):
        cuts_total[PRUNE_ROW_SUM] = 1
        elapsed = time.perf_counter() - started
        return _build_report(cfg, 0, [], cuts_total, False, elapsed)

    targets = _minus_targets(cfg.order) if PRUNE_ROW_SUM in cfg.prunes else None
    prefixes = _shard_prefixes(cfg.order)
    ledger = None
    if cfg.ledger_path is not None:
        ledger = _ShardLedger(Path(cfg.ledger_path), cfg)
    results: dict[str, _ShardResult] = dict(ledger.recorded) if ledger else {}
    pending = [p for p in prefixes if p not in results]
    deadline = None
    if cfg.budget_seconds is not None:
        deadline = time.monotonic() + cfg.budget_seconds

    def finish(result: _ShardResult) -> None:
        results[result.prefix] = result
        if ledger is not None and result.completed:
            ledger.record(result)

    # built before any pool forks, so the workers inherit the tables
    _shard_tables(cfg.order, targets)
    args = (cfg.prunes, targets, deadline)
    if cfg.workers == 1 or len(pending) <= 1:
        for prefix in pending:
            finish(_run_shard(cfg.order, prefix, *args))
    else:
        # imported here, not at the top: the process machinery would add
        # ~20 ms to every import of circhad
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor, as_completed

        # fork, where the platform has it, spares each worker re-importing
        # circhad and rebuilding the shard tables
        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context("fork" if "fork" in methods else None)
        workers = min(cfg.workers, len(pending))
        with ProcessPoolExecutor(workers, mp_context=context) as pool:
            futures = [pool.submit(_run_shard, cfg.order, p, *args) for p in pending]
            for future in as_completed(futures):
                finish(future.result())

    examined = 0
    hits: list[str] = []
    incomplete = False
    for prefix in prefixes:
        result = results[prefix]
        examined += result.examined
        for name, count in result.cuts.items():
            cuts_total[name] += count
        hits.extend(result.hits)
        if not result.completed:
            incomplete = True
    elapsed = time.perf_counter() - started
    return _build_report(cfg, examined, hits, cuts_total, incomplete, elapsed)
