"""Types shared by the workloads and the runner, and the speed calibration.

On a shared 2-vCPU Xeon virtual machine, other tenants slow the benchmark
by up to ~1.6x, in spells from a fraction of a second to minutes: a fixed
pure-Python loop was measured at anything from 36 to 60 ms within one
minute.  No statistic over a 30 s run removes a spell that lasts the
whole run.  So the harness times a short fixed kernel between items and
reports each item's time scaled to a reference speed,
``seconds * kernel.ref_s / kernel_seconds``, with the kernel timed just
before and just after the item.  Work done in-process is scaled by a
pure-Python loop; a subprocess (a cli invocation, a set-up probe) by the
start-up of a bare interpreter, which is what dominates it.  On that
machine (Python 3.11) the scaling cut the spread of an order-16 search
time between 30 s windows from 41% (fastest raw time) to 3% (median
scaled time), and that of a cli invocation from 13% to 3%.
"""

from __future__ import annotations

import subprocess
import sys
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

# how often to re-time the kernel between items
CAL_EVERY_S = 0.025


@dataclass(frozen=True)
class Kernel:
    """Fixed work timed next to the items; items are scaled to the speed at
    which it takes ``ref_s`` seconds."""

    work: Callable[[], object]
    ref_s: float

    def time(self) -> float:
        started = perf_counter()
        self.work()
        return perf_counter() - started


def _loop() -> int:
    x = 0
    d = {}
    for i in range(20_000):
        x += i * 7 % 13
        d[i & 255] = x
    return x


def _bare_interpreter() -> None:
    subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)


IN_PROCESS = Kernel(_loop, 0.003)
STARTUP = Kernel(_bare_interpreter, 0.05)


@dataclass
class Pass:
    """One pass over a workload's fixed work.

    Every pass does the same work, so every pass must report the same
    exact ``counts``.  An item (job, row or invocation) fails when its
    output is wrong or when it crashed; ``wrong`` holds the items whose
    output was wrong, ``crashed`` those that crashed instead.
    """

    kernel: Kernel = IN_PROCESS
    item_seconds: list[float] = field(default_factory=list)
    # kernel times, when the last one ended, and for each item the index
    # of the kernel time just before it
    kernel_seconds: list[float] = field(default_factory=list)
    kernel_ended: float = 0.0
    item_kernel: list[int] = field(default_factory=list)
    wrong: set[int] = field(default_factory=set)
    crashed: set[int] = field(default_factory=set)
    counts: dict[str, int] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.item_seconds)

    @property
    def failed(self) -> int:
        return len(self.wrong | self.crashed)

    def calibrate(self) -> None:
        self.kernel_seconds.append(self.kernel.time())
        self.kernel_ended = perf_counter()

    def scaled_items(self) -> list[float]:
        """Item times at the reference speed; needs a calibration after the
        last item."""
        k = self.kernel_seconds
        return [
            s * self.kernel.ref_s * 2 / (k[j] + k[j + 1])
            for s, j in zip(self.item_seconds, self.item_kernel)
        ]

    def fail(self, item: int, message: str, crashed: bool = False) -> None:
        (self.crashed if crashed else self.wrong).add(item)
        if len(self.problems) < 20:
            self.problems.append(message)


class ItemTimer:
    """Times one item (job, row or invocation) of a pass."""

    __slots__ = ("run", "started")

    def __init__(self, run: Pass) -> None:
        self.run = run

    def __enter__(self) -> "ItemTimer":
        run = self.run
        if not run.kernel_seconds or perf_counter() - run.kernel_ended >= CAL_EVERY_S:
            run.calibrate()
        run.item_kernel.append(len(run.kernel_seconds) - 1)
        self.started = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.run.item_seconds.append(perf_counter() - self.started)

