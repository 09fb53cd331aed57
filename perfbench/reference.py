"""Host-speed references: fixed loops that call nothing in seymour.

On the 2-vCPU VM the figures in NOTES.md come from, the same code runs up
to 1.7 times slower for stretches of seconds to minutes (CPU time equal to
wall time, both CPUs alike), which no choice of estimator within a 30 s run
can average away.  So a unit of work of a few seconds or less is bracketed
by a reference loop of the same kind of work, and its times are scaled by
``nominal / measured`` of the references around it: seconds on a host
where the reference takes its nominal time, as it did on that VM when
quiet.  A change to seymour moves the scaled time exactly as it moves the
raw one; a slow stretch of the host moves both the unit and its
references.
"""
from __future__ import annotations

import time
from typing import Callable


def _python_loop() -> int:
    """Interpreter-bound: tuples, a sort, int bitsets and a set, as in the graph code."""
    total = 0
    for rep in range(6):
        rows = [0] * 64
        for u, v in sorted((i * 13 % 64, (i + rep) * 7 % 61) for i in range(5000)):
            rows[u] |= 1 << v
        seen = {i * 31 % 1009 for i in range(3000)}
        total += sum(r.bit_count() for r in rows) + len(seen)
    return total


#: reference loop and its nominal time in seconds, per kind of work
LOOPS: dict[str, tuple[Callable[[], int], float]] = {
    "python": (_python_loop, 0.0155),
}
REPEATS = 5


def reference_s(kind: str) -> float:
    """Fastest of REPEATS back-to-back runs of the reference loop, in seconds."""
    loop = LOOPS[kind][0]
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        loop()
        best = min(best, time.perf_counter() - start)
    return best
