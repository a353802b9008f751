"""Reference work: a fixed computation timed after each call, to scale it.

The machine the benchmark was written on changes speed by up to half
within seconds and for minutes at a time (shared vCPUs), and a run's
raw call times move with the share of time it spends at each speed.
The reference work slows down with the machine but not with the
program, so a call time divided by the reference times measured around
it is a property of the program.

Every timing metric is reported in *reference milliseconds*: wall time
divided by the reference time, times 1 ms.
"""

from __future__ import annotations

import time

UNIT_S = 1e-3         # one reference time is reported as this many seconds

_VALUES = [i * 0.37 for i in range(300)]


def reference_work() -> str:
    """Interpreter work like the program's own: integer loop, float formatting, a dict.

    Chosen by measurement: timed after every call on runs whose raw
    call times differed by half, it gave steadier quotients than small
    BLAS products or a 4 MB array sweep did, on design_sweep and
    full_lattice.
    """
    total = 0
    for i in range(8000):
        total += i * i
    fields = {}
    for i, v in enumerate(_VALUES):
        fields[f"k{i}"] = f"{v:.17g},{-v:.17g}"
    return f"{total}," + ",".join(fields.values())


def reference_time() -> float:
    """Seconds one reference work takes now."""
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


class SpeedLog:
    """Timed intervals, with a reference time before the first and after each."""

    def __init__(self):
        self.walls: list[float] = []                 # wall seconds of each interval
        self.marks: list[float] = [reference_time()]  # reference seconds between them

    def record(self, seconds: float) -> None:
        """Log an interval that has just ended, then time the reference work."""
        self.walls.append(seconds)
        self.marks.append(reference_time())

    def scaled(self, i: int) -> float:
        """Interval ``i`` in reference seconds: divided by the mean of the
        reference times taken just before and just after it."""
        return self.walls[i] / ((self.marks[i] + self.marks[i + 1]) / 2) * UNIT_S
