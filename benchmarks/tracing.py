"""In-memory spans recorded by the benchmark around its calls into circhad.

A span has a name (``<layer>.<call>``), a start, an end, the span that
was open when it began (its parent) and an item id: the census job, the
blockview row or the cli invocation it belongs to.  Spans live in flat
arrays while the run goes and are written out once, when it ends.

The untraced passes use ``NULL_TRACER``, whose ``span`` returns one shared
no-op context manager, so they pay only an attribute lookup and a call.
"""

from __future__ import annotations

import gzip
from array import array
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

_NULL_SPAN = nullcontext()


class NullTracer:
    def span(self, name: str, item: int):
        return _NULL_SPAN


NULL_TRACER = NullTracer()


class _Span:
    __slots__ = ("tracer", "name", "item", "index")

    def __init__(self, tracer: "Tracer", name: str, item: int) -> None:
        self.tracer = tracer
        self.name = name
        self.item = item

    def __enter__(self) -> "_Span":
        t = self.tracer
        self.index = len(t.starts)
        name_id = t.name_ids.get(self.name)
        if name_id is None:
            name_id = t.name_ids[self.name] = len(t.names)
            t.names.append(self.name)
        t.name_of.append(name_id)
        t.parent_of.append(t.open[-1] if t.open else -1)
        t.item_of.append(self.item)
        t.ends.append(0.0)
        t.open.append(self.index)
        t.starts.append(perf_counter())
        return self

    def __exit__(self, *exc) -> None:
        t = self.tracer
        t.ends[self.index] = perf_counter()
        t.open.pop()


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent_of = array("i")
        self.item_of = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.open: list[int] = []

    def span(self, name: str, item: int) -> _Span:
        return _Span(self, name, item)

    def __len__(self) -> int:
        return len(self.starts)

    def durations(self) -> list[float]:
        return [e - s for s, e in zip(self.starts, self.ends)]

    def by_name(self) -> dict[str, tuple[int, float]]:
        """Span name -> (call count, total seconds including children)."""
        count: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        for name_id, d in zip(self.name_of, self.durations()):
            name = self.names[name_id]
            count[name] += 1
            total[name] += d
        return {name: (count[name], total[name]) for name in count}

    def self_seconds_by_layer(self) -> dict[str, float]:
        """Layer -> summed self time: each span's duration minus the time
        its direct children cover."""
        durations = self.durations()
        covered = [0.0] * len(durations)
        for parent, d in zip(self.parent_of, durations):
            if parent >= 0:
                covered[parent] += d
        layers: dict[str, float] = defaultdict(float)
        for name_id, d, c in zip(self.name_of, durations, covered):
            layers[self.names[name_id].split(".", 1)[0]] += d - c
        return dict(layers)

    def seconds_by_item(self, prefix: str) -> dict[int, float]:
        """Item id -> summed duration of the spans whose name starts with
        prefix and whose parent span does not."""
        out: dict[int, float] = defaultdict(float)
        durations = self.durations()
        for k, (name_id, parent, item) in enumerate(
            zip(self.name_of, self.parent_of, self.item_of)
        ):
            if not self.names[name_id].startswith(prefix):
                continue
            if parent >= 0 and self.names[self.name_of[parent]].startswith(prefix):
                continue
            out[item] += durations[k]
        return dict(out)

    def write(self, path: Path) -> None:
        """One tab-separated line per span: id, parent, name, item, start and
        end in nanoseconds from the first span."""
        origin = self.starts[0] if self.starts else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as out:
            out.write("id\tparent\tname\titem\tstart_ns\tend_ns\n")
            for k in range(len(self.starts)):
                out.write(
                    f"{k}\t{self.parent_of[k]}\t{self.names[self.name_of[k]]}\t"
                    f"{self.item_of[k]}\t{round((self.starts[k] - origin) * 1e9)}\t"
                    f"{round((self.ends[k] - origin) * 1e9)}\n"
                )
