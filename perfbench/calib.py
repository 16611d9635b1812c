"""Machine-speed calibration by interleaved reference work.

The shared VMs this benchmark runs on change speed by up to 60 % within
seconds (a piece of pure Python that takes 6 ms takes 9.5 ms a few seconds
later), far more than any regression bound could absorb.  So the benchmark
times fixed reference work that does not touch the program, between
operations, and scales each operation's time by how fast the reference ran
around it:

    normalised = raw * nominal / (reference time around the operation)

Two references, because a child process does not run at the speed the
benchmark process sees:

- kernel(): a burst of pure-Python calls in this process, for operations
  run in this process.
- child_reference(): a fresh interpreter importing a fixed set of standard
  library modules, for operations that start a child (cli-cold requests,
  set-up probes).  Its time tracks a cold CLI request (correlation 0.9 over
  40 pairs) where the in-process kernel does not.

A normalised time reads as the time the operation would take on a machine
where the reference takes exactly its nominal time.  A change in the
program moves the raw time and leaves the reference alone, so it shows in
full.
"""

from __future__ import annotations

import gc
import statistics
import subprocess
import sys
from array import array
from time import perf_counter

# Fixed constants that set the scale of the normalised figures.  On the
# 2-vCPU VM the baseline was taken on, one kernel call takes 0.6-1.3 ms and
# one reference child 80-100 ms.
KERNEL_NOMINAL_S = 1.0e-3
CHILD_NOMINAL_S = 0.1
BURST = 5           # kernel calls per measurement; the fastest is kept
INTERVAL_S = 0.05   # in-process operation time between two measurements
CHILD_IMPORTS = ("import json, decimal, fractions, email.parser, argparse, "
                 "xml.dom.minidom, http.client")


class _Item:
    __slots__ = ("key", "weight")

    def __init__(self, key, weight):
        self.key, self.weight = key, weight


def kernel(n: int = 700) -> int:
    """Object creation, attribute access, tuple keys, dict updates, big-int
    arithmetic, sorting and string joins: the mix the program spends its
    time on (sympy and the partition code are plain Python too)."""
    acc: dict[tuple[int, int], int] = {}
    x = 1
    for i in range(n):
        item = _Item(i * i % 97, i)
        key = (item.key, i & 7)
        acc[key] = acc.get(key, 0) + item.weight
        x = (x * 1_000_003 + i) % (1 << 89)
    ordered = sorted(acc.items(), key=lambda kv: (kv[1], kv[0]))
    return x ^ len(",".join(str(k) for (k, _), _ in ordered[:50]))


KERNEL_RESULT = kernel()


def kernel_time() -> float:
    """The fastest of BURST kernel calls, in seconds.

    The collector is off meanwhile: a collection inside the kernel would
    scan the program's heap and tie the kernel's time to its size."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(BURST):
            t0 = perf_counter()
            result = kernel()
            best = min(best, perf_counter() - t0)
            if result != KERNEL_RESULT:
                raise RuntimeError("reference kernel gave a wrong result")
    finally:
        if enabled:
            gc.enable()
    return best


def child_time() -> float:
    """Wall time of one fresh interpreter importing CHILD_IMPORTS."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", CHILD_IMPORTS], check=True,
                   capture_output=True, timeout=60)
    return perf_counter() - t0


class SpeedMeter:
    """Reference timings taken between operations, and the segment each
    operation falls in.  Segment s lies between measurement s-1 and s.

    An in-process meter measures the kernel at most every INTERVAL_S; a
    child meter runs the reference child before every operation."""

    def __init__(self, child: bool = False):
        self.measure = child_time if child else kernel_time
        self.nominal = CHILD_NOMINAL_S if child else KERNEL_NOMINAL_S
        self.interval = 0.0 if child else INTERVAL_S
        self.refs = array("d")
        self.last = 0.0

    def tick(self) -> None:
        """Measure the reference now; the current segment ends here."""
        self.refs.append(self.measure())
        self.last = perf_counter()

    def segment(self) -> int:
        """The segment an operation starting now falls in; measures first
        when the interval has passed since the last measurement."""
        if not self.refs or perf_counter() - self.last >= self.interval:
            self.tick()
        return len(self.refs)

    def factors(self) -> list[float]:
        """Speed factor of each segment (index 0 unused) over the nominal
        time; > 1 means a slow machine.  The reference time is the median of
        the five measurements around the segment (its two ends, two before,
        one after), so one disturbed measurement does not skew it."""
        refs = self.refs
        return [0.0] + [statistics.median(refs[max(0, s - 3):s + 2]) / self.nominal
                        for s in range(1, len(refs))]
