"""Shared oracles and generators for the test suite.

The dense-matrix oracle here is deliberately independent of the library's
autocorrelation path: it builds the full circulant by index arithmetic and
multiplies it out with numpy integer arithmetic.
"""

from __future__ import annotations

import itertools
import math
import random

import numpy as np

from circhad.blockform import BlockSequence, SymBlockMatrix, block_product


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


def _reference_shard(L: int, prefix: str, use_paf: bool, targets) -> tuple[int, dict, list]:
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
        n, shard_cuts, shard_hits = _reference_shard(L, "+" + tail, "prefix-paf" in prunes, targets)
        examined += n
        hits += shard_hits
        for name in cuts:
            cuts[name] += shard_cuts[name]
    negated = ["".join("-" if ch == "+" else "+" for ch in t) for t in hits]
    return examined, cuts, tuple(sorted(set(hits + negated)))


def reference_residual(bs: BlockSequence, u: int) -> SymBlockMatrix:
    """The even-pair cancellation residual at lag u the direct way: the sum
    of the 2x2 products M_i * M_{i+u} over the i where both are even."""
    total = SymBlockMatrix(0, 0)
    for i in range(len(bs)):
        a, b = bs[i], bs[i + u]
        if a.is_even and b.is_even:
            total = total + block_product(a, b)
    return total
