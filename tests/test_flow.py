"""Event-driven integration: smooth arcs, crossings, sliding, export."""

import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from filippov2d import (CanonicalBase, PsiSpec, UnfoldingSpec, Window,
                        build_unfolded, flow, h_value, integrate_pws,
                        integrate_smooth, loops, maps, read_trajectory_csv,
                        sliding_convex_coefficient, trajectory_to_csv,
                        unfolding)
from filippov2d.fieldexpr import ScalarField
from conftest import make_sys

BIG = Window(-4.0, 4.0, -4.0, 4.0)


def test_constant_flow_reaches_time_end():
    run = integrate_smooth(ScalarField("1"), ScalarField("0"), (0.0, 1.0),
                           "upper", t_max=1.0, window=BIG)
    assert run.terminal.kind == "time-end"
    assert run.x[-1] == pytest.approx(1.0, abs=1e-12)
    assert run.y[-1] == pytest.approx(1.0, abs=1e-12)
    assert run.touches == []


def test_parabolic_contact_at_sqrt_two():
    # dy/dx = -x from (-1, 0.5): y = 0.5 - (x^2 - 1)/2, zero at x = sqrt(2)
    run = integrate_smooth(ScalarField("1"), ScalarField("0 - x"),
                           (-1.0, 0.5), "upper", t_max=10.0, window=BIG)
    assert run.terminal.kind == "sigma-cross"
    assert run.terminal.x == pytest.approx(math.sqrt(2.0), abs=1e-9)
    assert abs(run.terminal.y) <= 1e-12


@pytest.mark.parametrize("eps", [1e-6, 1e-4, 1e-3])
def test_shallow_dip_inside_one_step_is_a_crossing(eps):
    # dy/dx = x from (-1, 0.5 - eps): y = x^2/2 - eps dips eps below Sigma
    # between -sqrt(2 eps) and sqrt(2 eps), far inside one accepted step
    run = integrate_smooth(ScalarField("1"), ScalarField("x"),
                           (-1.0, 0.5 - eps), "upper", t_max=10.0, window=BIG)
    assert run.terminal.kind == "sigma-cross"
    assert run.terminal.x == pytest.approx(-math.sqrt(2.0 * eps), abs=1e-9)


def test_vertical_drop_contact():
    run = integrate_smooth(ScalarField("0"), ScalarField("-1"), (0.0, 0.3),
                           "upper", t_max=10.0, window=BIG)
    assert run.terminal.kind == "sigma-cross"
    assert run.terminal.t == pytest.approx(0.3, abs=1e-10)
    assert run.terminal.x == pytest.approx(0.0, abs=1e-12)


def test_start_must_be_on_own_side():
    with pytest.raises(ValueError):
        integrate_smooth(ScalarField("1"), ScalarField("0"), (0.0, -0.5),
                         "upper", t_max=1.0)


coefs = st.lists(st.floats(0.05, 1.5), min_size=1, max_size=4)


@given(coefs, st.floats(-0.5, 0.5), st.floats(0.1, 1.0))
@settings(max_examples=50, deadline=None)
def test_contact_matches_exact_quadrature(cs, x0, y0):
    # f = 1 and strictly negative g(x): y(x) = y0 + G(x) - G(x0) with the
    # exact polynomial antiderivative G; the contact solves y(x) = 0
    g_src = "-(" + " + ".join(f"{c!r} * x^{2 * i}" for i, c in enumerate(cs)) \
        + ")"
    wide = Window(-40.0, 40.0, -4.0, 4.0)  # slowest drop travels ~y0/min|g|
    run = integrate_smooth(ScalarField("1"), ScalarField(g_src), (x0, y0),
                           "upper", t_max=100.0, window=wide)
    assert run.terminal.kind == "sigma-cross"
    # exact antiderivative G = -sum c_i x^(2i+1) / (2i+1)
    G = np.polynomial.Polynomial([0.0] * (2 * len(cs) + 2))
    for i, c in enumerate(cs):
        G.coef[2 * i + 1] = -c / (2 * i + 1)
    Y = G - G(x0) + y0
    roots = [r.real for r in Y.roots()
             if abs(r.imag) < 1e-12 and r.real > x0 - 1e-12]
    x_exact = min(roots)
    assert run.terminal.x == pytest.approx(x_exact, abs=1e-9)


def test_pws_fall_and_slide():
    s = make_sys("1", "-1", "1", "1", window=Window(-2, 2, -2, 2))
    traj = integrate_pws(s, (0.0, 0.5), t_max=10.0)
    kinds = [a.kind for a in traj.arcs]
    assert kinds[0] == "upper" and "sliding" in kinds
    ev_kinds = [e.kind for e in traj.events]
    assert "sliding-entry" in ev_kinds
    assert ev_kinds[-1] == "window-exit"
    sl = traj.arcs[kinds.index("sliding")]
    assert np.all(sl.x[1:] >= sl.x[:-1])  # sliding field is +1: moves right
    for x in sl.x[:: max(1, len(sl.x) // 7)]:
        a = sliding_convex_coefficient(s, float(x))
        assert -1e-12 <= a <= 1 + 1e-12
    t_entry = next(e.t for e in traj.events if e.kind == "sliding-entry")
    x_entry = next(e.x for e in traj.events if e.kind == "sliding-entry")
    assert h_value(s, x_entry) < 0
    assert t_entry == pytest.approx(0.5, abs=1e-9)


def test_pws_crossing_connects_halves():
    s = make_sys("1", "1", "1", "1", window=Window(-2, 2, -2, 2))
    traj = integrate_pws(s, (0.0, -0.5), t_max=0.9)
    kinds = [a.kind for a in traj.arcs]
    assert kinds == ["lower", "upper"]
    cross = [e for e in traj.events if e.kind == "sigma-cross"]
    assert len(cross) == 1
    assert h_value(s, cross[0].x) > 0
    assert abs(cross[0].y) <= 1e-12


def test_pws_zero_time_is_a_point():
    s = make_sys("1", "1", "1", "1")
    traj = integrate_pws(s, (0.1, 0.2), t_max=0.0)
    xs = np.concatenate([a.x for a in traj.arcs]) if traj.arcs else []
    assert len(xs) <= 1 or (np.ptp(xs) == 0.0)


def test_arcs_chain_continuously():
    s = make_sys("1", "0.3 - x", "1", "1", window=Window(-2, 2, -2, 2))
    traj = integrate_pws(s, (-1.5, -0.4), t_max=6.0)
    assert len(traj.arcs) >= 2
    for a, b in zip(traj.arcs, traj.arcs[1:]):
        gap = math.hypot(float(b.x[0] - a.x[-1]), float(b.y[0] - a.y[-1]))
        assert gap < 1e-9
    for a in traj.arcs:
        if a.kind == "upper":
            assert np.min(a.y) >= -1e-9
        elif a.kind == "lower":
            assert np.max(a.y) <= 1e-9
        else:
            assert np.max(np.abs(a.y)) <= 1e-12


def test_reversibility_away_from_sliding():
    s = make_sys("1", "1 + 0.2*x", "1", "2 - x", window=Window(-3, 3, -3, 3))
    fwd = integrate_pws(s, (-1.2, -0.7), t_max=1.7)
    xe, ye = fwd.end()
    t_total = fwd.events[-1].t
    back = integrate_pws(s, (xe, ye), t_max=t_total, direction="backward")
    xb, yb = back.end()
    assert math.hypot(xb - (-1.2), yb - (-0.7)) < 1e-7


def test_trajectory_csv_round_trip(tmp_path):
    s = make_sys("1", "-1", "1", "1", window=Window(-2, 2, -2, 2))
    traj = integrate_pws(s, (0.0, 0.5), t_max=3.0)
    p = tmp_path / "traj.csv"
    trajectory_to_csv(traj, str(p))
    version, header, rows = read_trajectory_csv(str(p))
    assert version == "filippov2d-trajectory-v1"
    assert header == ["t", "x", "y", "arc_kind", "arc_index", "event"]
    n_samples = sum(len(a.t) for a in traj.arcs)
    assert len(rows) == n_samples
    marked = [r for r in rows if r[5]]
    assert marked, "event rows should be flagged in the event column"
    kinds = {r[3] for r in rows}
    assert kinds <= {"upper", "lower", "sliding"}


def test_no_function_takes_integration_settings():
    # the tolerances are module constants (flow.RTOL/ATOL,
    # loops.CLOSURE_TOL), the leg budget follows from the window, and the
    # step length is the integrator's own choice
    knobs = {"rtol", "atol", "t_leg", "closure_tol", "max_step"}
    hits = []
    for mod in (flow, maps, loops, unfolding):
        for obj in vars(mod).values():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isclass(obj):
                fns = [v for v in vars(obj).values() if inspect.isfunction(v)]
            else:
                fns = [obj] if inspect.isfunction(obj) else []
            hits += [f"{mod.__name__}.{fn.__qualname__}({name})"
                     for fn in fns
                     for name in inspect.signature(fn).parameters
                     if name in knobs]
    assert hits == []


def test_transit_evaluates_its_side_once_per_stepper_rhs_call(monkeypatch):
    # a sheared upper side with g~ = 1 - (1 + 0.2 u) psi' > 0 (psi' stays
    # below 0.3 on this 0.01 plateau): the orbit from (-0.9, 0.1) rises
    # through the bump without turning and leaves the window, so every
    # field evaluation is a DOP853 stepper's (the transit's, then the two
    # of its landing on the window edge)
    psi_calls, psi_per_call, steppers = [], [], []
    psi_core = unfolding._psi_core

    def counted_psi(spec, x):
        psi_calls.append(x)
        return psi_core(spec, x)
    monkeypatch.setattr(unfolding, "_psi_core", counted_psi)

    class Recorded(flow.DOP853):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            steppers.append(self)
    monkeypatch.setattr(flow, "DOP853", Recorded)

    window = Window(-1.0, 1.0, -1.0, 1.0)
    base = CanonicalBase.from_strings("1 + 0.2*y", "1", 0, "-1", "-1", 0,
                                      window)
    system = build_unfolded(UnfoldingSpec(
        base, psi_plus=PsiSpec(1, (-0.6, -0.3, 0.0, 0.01))))
    f, g = system.side("upper")
    side = flow._side_fn(f, g)

    def counted_side(x, y):
        before = len(psi_calls)
        out = side(x, y)
        psi_per_call.append(len(psi_calls) - before)
        return out
    monkeypatch.setattr(flow, "_side_fn", lambda f, g: counted_side)
    run = integrate_smooth(f, g, (-0.9, 0.1), "upper", t_max=10.0,
                           window=window)
    assert run.terminal.kind == "window-exit"
    assert len(steppers) == 3
    assert len(psi_per_call) == sum(s.nfev for s in steppers)
    assert set(psi_per_call) == {1}
    assert min(psi_calls) < -0.3 < max(psi_calls)   # through the bump
