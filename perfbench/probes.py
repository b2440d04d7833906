"""Per-call timings of public calls at fixed points (the ``*_us`` metrics).

Each probe times a loop of ``.value``-style calls on a system a workload
built, repeats the loop and keeps the median. Workloads that build no
sheared system (no psi) time psi on a fixed reference plateau, and
workloads that make no displacement calls time displacement_sigma on the
canonical (5,5) base system, so every per-call metric is a measured time.
"""

from __future__ import annotations

import statistics
from time import perf_counter
from typing import Callable, List, Sequence, Tuple

_REPEATS = 5
_GRID = 12

# one plateau bump on [-0.6, -0.1] with peak height 0.02
REFERENCE_PSI = (1, (-0.6, -0.35, -0.1, 0.02))
# start abscissae of the reference displacement_sigma calls
REFERENCE_DISPLACEMENT_X = (-0.7, -0.5, -0.3, -0.1)


def _per_call_us(fn: Callable, points: Sequence[Tuple[float, ...]],
                 reps: int) -> float:
    samples = []
    for _ in range(_REPEATS):
        t0 = perf_counter()
        for _ in range(reps):
            for p in points:
                fn(*p)
        samples.append((perf_counter() - t0) / (reps * len(points)))
    return 1e6 * statistics.median(samples)


def window_points(window) -> List[Tuple[float, float]]:
    """A fixed grid of interior points of a window, off the line y = 0."""
    xs = [window.x_lo + window.width * (i + 0.5) / _GRID
          for i in range(_GRID)]
    height = window.y_hi - window.y_lo
    ys = [window.y_lo + height * (j + 0.5) / _GRID for j in range(_GRID)]
    return [(x, y) for x in xs for y in ys if y != 0.0]


def rhs_point_us(system) -> float:
    """One f + g evaluation of the upper field of a (possibly unfolded)
    system."""
    f, g = system.f_plus, system.g_plus

    def both(x, y):
        f.value(x, y)
        g.value(x, y)
    return _per_call_us(both, window_points(system.window), reps=20)


def value_us(field, window) -> float:
    """One ScalarField.value call."""
    return _per_call_us(field.value, window_points(window), reps=40)


def psi_us(spec) -> float:
    """One cutoffs.psi call across the profile's support."""
    from filippov2d.cutoffs import psi

    lo, hi = spec.support()
    span = hi - lo
    points = [(spec, lo - 0.1 * span + 1.2 * span * (i + 0.5) / 200)
              for i in range(200)]
    return _per_call_us(psi, points, reps=20)


def reference_psi_spec():
    from filippov2d.cutoffs import PsiSpec

    d, k = REFERENCE_PSI
    return PsiSpec(d, k)


def reference_displacement_seconds() -> List[float]:
    """Durations of displacement_sigma on the canonical (5,5) base."""
    from filippov2d.loops import canonical_base
    from filippov2d.maps import displacement_sigma

    system = canonical_base(5, 5).system()
    out = []
    for _ in range(2):
        for x in REFERENCE_DISPLACEMENT_X:
            t0 = perf_counter()
            displacement_sigma(system, x)
            out.append(perf_counter() - t0)
    return out
