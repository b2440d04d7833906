"""The tracer's counters agree with what scipy reports."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from filippov2d import flow, loops  # noqa: E402
from tracing import Tracer  # noqa: E402


def test_rhs_count_equals_nfev_sum_on_canonical_loop(monkeypatch):
    nfev = []
    inner = flow.solve_ivp

    def recording(*args, **kwargs):
        sol = inner(*args, **kwargs)
        nfev.append(sol.nfev)
        return sol

    monkeypatch.setattr(flow, "solve_ivp", recording)
    with Tracer() as tracer:
        tracer.run("test", loops.canonical_critical_loop, 1, 1)
    assert nfev and tracer.counters["flow.ivp_calls"] == len(nfev)
    assert tracer.counters["flow.rhs_evals"] == sum(nfev)
    assert tracer.counters["trace.rhs_calls_counted"] == sum(nfev)
    assert tracer.consistency() == []
    transits = tracer.durations("flow.transit", parent="test")
    assert len(transits) == 2  # the upper and the lower leg


def test_uninstall_restores_every_binding():
    tracer = Tracer()
    before = [(m, n, getattr(m, n)) for m, n, _ in tracer._bindings()]
    with tracer:
        assert any(getattr(m, n) is not f for m, n, f in before)
    assert all(getattr(m, n) is f for m, n, f in before)


def test_self_time_excludes_children():
    tracer = Tracer()
    tracer.run("outer", tracer.run, "inner", sum, range(10))
    metrics_tree = tracer._tree()[0]
    outer, inner = tracer.spans
    assert inner.parent == outer.id
    assert metrics_tree[outer.id] == inner.t1 - inner.t0
