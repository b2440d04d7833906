"""Reference speed: rescale measured times to a quiet machine.

On a shared host the same pure-Python work runs up to half again slower
for minutes at a time, while nothing in the benchmarked process changes;
steal time stays at zero, so process CPU time drifts exactly like wall
time. The benchmark therefore times a fixed pure-Python loop just before
and just after each timed interval and reports

    time at reference speed = measured time * NOMINAL_S / loop time

which is the interval's wall time on the machine at the loop's nominal
speed. The raw wall times are printed next to it.
"""

from __future__ import annotations

from time import perf_counter

# the loop's time on the reference machine (2 vCPUs, Python 3.11.7) when
# nothing else runs; it only sets the unit, both sides of a comparison use it
NOMINAL_S = 0.0045
_ITERATIONS = 60000
_REPEATS = 3


def loop_seconds() -> float:
    """Fastest of a few runs of the fixed loop (about 5 ms each)."""
    best = float("inf")
    for _ in range(_REPEATS):
        t0 = perf_counter()
        acc = 0
        for i in range(_ITERATIONS):
            acc += i * i % 7
        best = min(best, perf_counter() - t0)
    return best


def to_reference(seconds: float, before: float, after: float) -> float:
    """Rescale a time measured between two loop timings."""
    return seconds * NOMINAL_S / (0.5 * (before + after))
