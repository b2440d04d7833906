"""perfbench's tracer still sees every layer boundary it wraps."""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from filippov2d import (PsiSpec, UnfoldingSpec, build_transition,  # noqa: E402
                        build_unfolded, loops, tangency)
from tracing import Tracer  # noqa: E402


def test_displacements_are_counted_once_at_each_binding():
    # maps.integrate_smooth is wrapped as the count of displacements at the
    # maps layer: displacement_sigma must stay its only caller in maps
    system = loops.canonical_base(5, 5).system()
    scan = np.linspace(-1.625, 0.625, 9)   # the window less 5 % each side
    with Tracer() as tracer:
        tracer.run("test", loops.find_crossing_cycles, system, scan)
    assert tracer.consistency() == []
    c = tracer.counters
    assert c["loops.displacement_calls"] == c["maps.displacement_calls"] > 0


def test_multiplicity_calls_split_by_field_kind():
    # the per-layer split reads a g that is not an expression ScalarField
    # as sheared: build_unfolded's sheared sides, and nothing else
    lam = loops._negative_cluster(5, 0.1)
    spec = UnfoldingSpec(loops.canonical_base(5, 5), lam, (0.0,) * 5,
                         PsiSpec(3, loops._pinned_knots(lam, 0.1)
                                 + (1e-3, 5e-4, 2e-4)))
    unfolded, transition = build_unfolded(spec), build_transition(spec)
    with Tracer() as tracer:
        tangency.multiplicity_at(unfolded.g_plus, 1.0, lam[0])
        tangency.multiplicity_at(unfolded.g_minus, -1.0, 0.0)
        tangency.multiplicity_at(transition.g_plus, 1.0, lam[0])
        tangency.multiplicity_at(transition.g_minus, -1.0, 0.0)
    c = tracer.counters
    assert c["tangency.multiplicity_calls_sheared"] == 1
    assert c["tangency.multiplicity_calls_expr"] == 3
