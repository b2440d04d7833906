"""perfbench's tracer still sees every layer boundary it wraps."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from filippov2d import loops  # noqa: E402
from tracing import Tracer  # noqa: E402


def test_displacements_are_counted_once_at_each_binding():
    # maps.integrate_smooth is wrapped as the count of displacements at the
    # maps layer: displacement_sigma must stay its only caller in maps
    system = loops.canonical_base(5, 5).system()
    with Tracer() as tracer:
        tracer.run("test", loops.find_crossing_cycles, system, n_grid=9)
    assert tracer.consistency() == []
    c = tracer.counters
    assert c["loops.displacement_calls"] == c["maps.displacement_calls"] > 0
