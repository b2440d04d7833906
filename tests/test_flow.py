"""Event-driven integration: smooth arcs, crossings, sliding, export."""

import inspect
import math
import struct
import types
import warnings

import numpy as np
import pytest
from numpy.polynomial.polynomial import polyder, polyfromroots, polyval
from hypothesis import given, settings, strategies as st

from filippov2d import (CanonicalBase, PsiSpec, PwsSystem, UnfoldingSpec,
                        Window, build_unfolded, cutoffs, flow, h_value,
                        integrate_pws, integrate_smooth, loops, maps,
                        numerics, read_trajectory_csv, trajectory_to_csv,
                        unfolding)
from conftest import make_sys

BIG = Window(-4.0, 4.0, -4.0, 4.0)


def upper_sys(f_src, g_src, window=BIG):
    """A system whose upper field is (f, g); the lower field is unused."""
    return make_sys(f_src, g_src, "0", "0", window=window)


def test_constant_flow_reaches_time_end():
    run = integrate_smooth(upper_sys("1", "0"), "upper", (0.0, 1.0),
                           t_max=1.0)
    assert run.terminal.kind == "time-end"
    assert run.terminal.x == pytest.approx(1.0, abs=1e-12)
    assert run.terminal.y == pytest.approx(1.0, abs=1e-12)
    assert run.touch_events() == []


def test_parabolic_contact_at_sqrt_two():
    # dy/dx = -x from (-1, 0.5): y = 0.5 - (x^2 - 1)/2, zero at x = sqrt(2)
    run = integrate_smooth(upper_sys("1", "0 - x"), "upper", (-1.0, 0.5),
                           t_max=10.0)
    assert run.terminal.kind == "sigma-cross"
    assert run.terminal.x == pytest.approx(math.sqrt(2.0), abs=1e-9)
    assert abs(run.terminal.y) <= 1e-12


@pytest.mark.parametrize("eps", [1e-6, 1e-4, 1e-3])
def test_shallow_dip_inside_one_step_is_a_crossing(eps):
    # dy/dx = x from (-1, 0.5 - eps): y = x^2/2 - eps dips eps below Sigma
    # between -sqrt(2 eps) and sqrt(2 eps), far inside one accepted step
    run = integrate_smooth(upper_sys("1", "x"), "upper", (-1.0, 0.5 - eps),
                           t_max=10.0)
    assert run.terminal.kind == "sigma-cross"
    assert run.terminal.x == pytest.approx(-math.sqrt(2.0 * eps), abs=1e-9)


def test_vertical_drop_contact():
    run = integrate_smooth(upper_sys("0", "-1"), "upper", (0.0, 0.3),
                           t_max=10.0)
    assert run.terminal.kind == "sigma-cross"
    assert run.terminal.t == pytest.approx(0.3, abs=1e-10)
    assert run.terminal.x == pytest.approx(0.0, abs=1e-12)


def test_start_must_be_on_own_side():
    with pytest.raises(ValueError):
        integrate_smooth(upper_sys("1", "0"), "upper", (0.0, -0.5))


coefs = st.lists(st.floats(0.05, 1.5), min_size=1, max_size=4)


@given(coefs, st.floats(-0.5, 0.5), st.floats(0.1, 1.0))
@settings(max_examples=50, deadline=None)
def test_contact_matches_exact_quadrature(cs, x0, y0):
    # f = 1 and strictly negative g(x): y(x) = y0 + G(x) - G(x0) with the
    # exact polynomial antiderivative G; the contact solves y(x) = 0
    g_src = "-(" + " + ".join(f"{c!r} * x^{2 * i}" for i, c in enumerate(cs)) \
        + ")"
    wide = Window(-40.0, 40.0, -4.0, 4.0)  # slowest drop travels ~y0/min|g|
    run = integrate_smooth(upper_sys("1", g_src, wide), "upper", (x0, y0),
                           t_max=100.0)
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


@pytest.mark.parametrize("window", [Window(-2.0, 2.0, -2.0, 2.0), BIG])
def test_resting_orbit_runs_out_the_leg_budget_of_its_window(window):
    # with no t_max a transit's budget is 6 * width + 30 of the system's window
    run = integrate_smooth(upper_sys("0", "0", window), "upper", (0.0, 0.5))
    assert run.terminal.kind == "time-end"
    assert run.terminal.t == pytest.approx(6.0 * window.width + 30.0,
                                           abs=1e-12)


def test_a_capped_system_stops_its_transit_at_the_cap():
    # the system's window reaches x = 4; a copy capped at x = 0.3 stops the
    # same flow there (a window's exit lines lie 1e-9 of its larger side
    # outside it): a transit takes its window from its system alone
    s = upper_sys("1", "0")
    capped = PwsSystem(*s.upper(), *s.lower(),
                       Window(BIG.x_lo, 0.3, BIG.y_lo, BIG.y_hi))
    run = integrate_smooth(capped, "upper", (0.0, 0.5))
    assert run.terminal.kind == "window-exit"
    assert run.terminal.x == pytest.approx(0.3 + 8e-9, abs=1e-12)
    assert run.terminal.t == pytest.approx(0.3 + 8e-9, abs=1e-12)
    for fn in (flow.integrate_smooth, flow._transit):
        assert "window" not in inspect.signature(fn).parameters


def sliding_sys(speed_src, window=Window(-2.0, 2.0, -2.0, 2.0)):
    """Sigma slides everywhere (g+ = -1, g- = 1) with sliding speed f."""
    return make_sys(speed_src, "0 - 1", speed_src, "1", window=window)


def test_sliding_arc_stops_at_the_window_edge():
    run = flow.sliding_arc(sliding_sys("1"), 0.0)
    [arc], end = run.arcs, run.terminal
    assert end.kind == "window-exit"
    assert end.x == pytest.approx(2.0, abs=1e-12)
    assert end.t == pytest.approx(2.0, abs=1e-10)
    assert np.all(np.diff(arc.x) > 0.0) and np.all(np.diff(arc.t) > 0.0)


@pytest.mark.parametrize("window", [Window(-2.0, 2.0, -2.0, 2.0), BIG])
def test_sliding_arc_runs_out_the_leg_budget_of_its_window(window):
    # at speed 1e-3 the arc moves 0.05-0.08 before its budget
    # 6 * width + 30 runs out
    budget = 6.0 * window.width + 30.0
    end = flow.sliding_arc(sliding_sys("0.001", window), 0.0).terminal
    assert end.kind == "time-end"
    assert end.t == pytest.approx(budget, abs=1e-12)
    assert end.x == pytest.approx(1e-3 * budget, abs=1e-12)


def test_sliding_arc_lands_on_x_stop():
    end = flow.sliding_arc(sliding_sys("1"), 0.0, x_stop=0.5).terminal
    assert end.kind == "sliding-exit"
    assert end.x == 0.5
    assert end.t == pytest.approx(0.5, abs=1e-10)


def test_sliding_arc_counts_time_from_its_offset():
    # one sliding arc on Sigma and its terminal, both shifted by t_offset
    here = flow.sliding_arc(sliding_sys("1"), 0.0, x_stop=0.5)
    later = flow.sliding_arc(sliding_sys("1"), 0.0, x_stop=0.5, t_offset=2.0)
    [arc], [end] = later.arcs, later.events
    assert arc.kind == "sliding" and not any(arc.y)
    assert arc.t == tuple(t + 2.0 for t in here.arcs[0].t)
    assert arc.x == here.arcs[0].x
    assert end == here.terminal._replace(t=here.terminal.t + 2.0)


def test_sliding_arc_stalls_at_a_pseudo_equilibrium():
    # f+ = f- = -x: the sliding speed -x decays toward the origin and never
    # reaches it; when the budget 6 * 4 + 30 runs out it is below 1e-9
    s = make_sys("0 - x", "0 - 1", "0 - x", "1",
                 window=Window(-2.0, 2.0, -2.0, 2.0))
    end = flow.sliding_arc(s, 0.5).terminal
    assert end.kind == "pseudo-equilibrium"
    assert end.t == pytest.approx(54.0, abs=1e-12)
    assert abs(end.x) <= 1e-9


def test_sliding_arc_stops_at_the_segment_boundary():
    # g+ = x - 0.5 < 0 below x = 0.5 and g- = 1: the segment ends at 0.5,
    # and the sliding speed (g- f+ - g+ f-) / (g- - g+) is 1 throughout
    s = make_sys("1", "x - 0.5", "1", "1", window=Window(-2, 2, -2, 2))
    end = flow.sliding_arc(s, 0.0).terminal
    assert end.kind == "sliding-boundary"
    assert end.x == pytest.approx(0.5, abs=1e-9)
    assert end.t == pytest.approx(0.5, abs=1e-9)


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
        gp, gm = s.g_plus.value(x, 0.0), s.g_minus.value(x, 0.0)
        a = gm / (gm - gp)
        assert -1e-12 <= a <= 1 + 1e-12
    t_entry = next(e.t for e in traj.events if e.kind == "sliding-entry")
    x_entry = next(e.x for e in traj.events if e.kind == "sliding-entry")
    assert h_value(s, x_entry) < 0
    assert t_entry == pytest.approx(0.5, abs=1e-9)


def test_pws_from_a_crossing_point_of_sigma_leaves_upward():
    # g+ = g- = 1 at the start: step_filippov(sys, x, None) picks the upper
    # side, and the orbit leaves as one upper arc from (0, 0)
    s = make_sys("1", "1", "1", "1", window=Window(-2, 2, -2, 2))
    traj = integrate_pws(s, (0.0, 0.0), t_max=0.5)
    [arc] = traj.arcs
    assert arc.kind == "upper" and arc.start() == (0.0, 0.0)
    assert traj.terminal.kind == "time-end"
    assert traj.terminal.t == pytest.approx(0.5, abs=1e-12)


def test_pws_from_a_sliding_point_of_sigma_slides():
    # g+ = -1, g- = 1: the start slides at speed f = 1 to x = 1 by t = 1
    traj = integrate_pws(sliding_sys("1"), (0.0, 0.0), t_max=1.0)
    assert [arc.kind for arc in traj.arcs] == ["sliding"]
    assert [ev.kind for ev in traj.events] == ["time-end"]
    assert traj.terminal.t == pytest.approx(1.0, abs=1e-12)
    assert traj.terminal.x == pytest.approx(1.0, abs=1e-10)


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
    # the tolerances are module constants (flow.RTOL/ATOL, the 1e-6
    # distance from stop_at that ends a chained transit,
    # loops.CLOSURE_TOL), the leg budget follows from the system's window,
    # and the step length is the integrator's own choice
    knobs = {"rtol", "atol", "t_leg", "t_budget", "closure_tol", "max_step",
             "stop_tol"}
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


# (g+, g-) at x = 0 -> the side an orbit leaves on (None: it slides), by
# the side it arrives from: upper, lower, or None (a fresh start on Sigma)
_DECISIONS = [
    ("1", "1", ("upper", "upper", "upper")),     # crossing up
    ("-1", "-1", ("lower", "lower", "lower")),   # crossing down
    ("-1", "1", (None, None, None)),             # attracting sliding
    ("1", "-1", (None, None, None)),             # repelling sliding
    ("x", "-1", ("lower", "upper", "lower")),    # upper tangent, g- enters
    ("x", "1", (None, "upper", "upper")),        # upper tangent, g- pushes
    ("1", "x", ("lower", "upper", "upper")),     # lower tangent, g+ enters
    ("-1", "x", ("lower", None, "lower")),       # lower tangent, g+ pushes
]


@pytest.mark.parametrize("g_p, g_m, want", _DECISIONS,
                         ids=[f"{p},{m}" for p, m, _ in _DECISIONS])
def test_step_filippov_decision_table(g_p, g_m, want):
    s = make_sys("1", g_p, "1", g_m)
    got = tuple(flow.step_filippov(s, 0.0, side)
                for side in ("upper", "lower", None))
    assert got == want


def test_step_filippov_refuses_a_double_tangency():
    with pytest.raises(flow.AmbiguousTangency, match="double tangency"):
        flow.step_filippov(make_sys("1", "x", "1", "x"), 0.0, None)


def test_flow_entry_points_take_the_system_first():
    # a transit reads its fields, window and leg budget from its system
    for fn in (flow.integrate_smooth, maps._flow_to_section, flow.sliding_arc,
               flow.integrate_pws, flow.step_filippov):
        assert next(iter(inspect.signature(fn).parameters)) == "sys", fn


def _turns_by_polyval(c0, c1, c2):
    """The turn test as numpy states it: c0 * (c0 + c1 tau + c2 tau^2) < 0
    at some tau of the grid."""
    with np.errstate(all="ignore"):
        return bool(np.any(c0 * polyval(flow._GRID, (c0, c1, c2)) < 0.0))


def _extremes(rng, n):
    """n-tuples of extreme floats: special values, random signs, mantissas
    and exponents (under- and overflowing too), and normal draws."""
    specials = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                -1e-310, 1e300, -1e300, 1.7e308, -1.7e308, 1.0, -1.0]
    out = [tuple(specials[i] for i in rng.integers(len(specials), size=n))
           for _ in range(400)]
    for _ in range(2000):   # signs, mantissas and exponents at random
        signs, mants = rng.choice((-1.0, 1.0), n), rng.uniform(1.0, 10.0, n)
        exps = rng.integers(-330, 300, n)
        out.append(tuple(float(s * m) * 10.0 ** int(e)
                         for s, m, e in zip(signs, mants, exps)))
    return out + [tuple(v) for v in rng.normal(0.0, 1.0, (500, n))]


def test_turn_test_decides_as_polyval_does():
    rng = np.random.default_rng(14)
    triples = _extremes(rng, 3)
    for k in range(33):   # zeros exactly on a grid point, double and simple
        tau = k / 32
        triples += [(tau * tau, -2.0 * tau, 1.0),
                    (-tau * tau, 2.0 * tau, -1.0),
                    (tau, -1.0, 0.0), (-tau, 1.0, -0.0)]
    decisions = [flow._turns(*c) for c in triples]
    assert decisions == [_turns_by_polyval(*c) for c in triples]
    assert any(decisions) and not all(decisions)


def test_grid_is_numpys_linspace():
    assert flow._GRID == np.linspace(0.0, 1.0, 33).tolist()


def _with_specials(rng, n):
    """_extremes with infinities and nans mixed in, one or two a tuple."""
    out = []
    for c in _extremes(rng, n):
        c = list(c)
        for i in rng.integers(n, size=rng.integers(1, 3)).tolist():
            c[i] = rng.choice([math.inf, -math.inf, math.nan]).item()
        out.append(tuple(c))
    return out


def test_horner_is_polyval_bit_for_bit():
    # the unrolled scheme on the step polynomial (8 coefficients) and on
    # its y' (7, padded with a zero, as _minima reads it), on signed zeros,
    # subnormals, huge values, infinities and nans
    rng = np.random.default_rng(20)
    points = flow._GRID + [0.3, 1.0 + 2.0 ** -52, -0.7, 1e-300, 5e-324,
                           -0.0, 1e300, -1e300, math.inf, -math.inf,
                           math.nan]
    with np.errstate(all="ignore"):
        for horner, n in ((flow._horner, 8),
                          (lambda c, u: flow._horner(c + [0.0], u), 7)):
            for c in _extremes(rng, n) + _with_specials(rng, n)[::2]:
                for u in rng.choice(points, 4).tolist():
                    assert horner(list(c), u).hex() \
                        == float(polyval(u, np.array(c))).hex(), (c, u)


def _step_poly_by_roll(dense):
    """The step polynomial as numpy builds it, an (8, n) array: one roll
    and one subtraction of rows per coefficient row of the dense output."""
    c = np.zeros((8, len(dense.y_old)))
    for i, row in enumerate(np.transpose(dense.F)[::-1]):
        c[0] += row
        shifted = np.roll(c, 1, axis=0)
        c = shifted if i % 2 == 0 else c - shifted
    c[0] += dense.y_old
    return c


def _dense_outputs(monkeypatch, run):
    """Every step's dense output of the DOP853 steppers that run() starts
    in flow."""
    dense = []

    class Recorded(flow.DOP853):
        def step(self):
            message = super().step()
            if self.status != "failed" and self.t != self.t_old:
                dense.append(self.dense_output())
            return message
    monkeypatch.setattr(flow, "DOP853", Recorded)
    run()
    monkeypatch.undo()
    return dense


def _sheared_upper_sys():
    """A system whose upper side is sheared by a plateau bump of psi on
    [-0.6, 0]; its upper orbit from (-0.9, 0.1) rises through the bump."""
    base = CanonicalBase.from_strings("1 + 0.2*y", "1", 0, "-1", "-1", 0,
                                      Window(-1.0, 1.0, -1.0, 1.0))
    return build_unfolded(UnfoldingSpec(
        base, psi_plus=PsiSpec(1, (-0.6, -0.3, 0.0, 0.01))))


# (system, upper start) of transits whose steps the event search reads:
# through the sheared bump to the window edge; over two turns of
# y' = sin(3x) above Sigma to the window edge; across Sigma
_TRANSITS = [(_sheared_upper_sys, (-0.9, 0.1)),
             (lambda: upper_sys("1", "sin(3 * x)"), (-1.0, 0.7)),
             (lambda: upper_sys("1", "sin(3 * x)"), (-1.0, 0.35))]


def _real_dense_outputs(monkeypatch):
    """Dense outputs of the _TRANSITS (2-D), their Henon landings on lines
    (3-D) and a sliding arc (1-D)."""
    sliding = make_sys("1 + x * x", "x - 0.5", "0.5", "1",
                       window=Window(-2.0, 2.0, -2.0, 2.0))
    dense = _dense_outputs(monkeypatch, lambda: flow.sliding_arc(
        sliding, -0.9))
    for system, start in _TRANSITS:
        dense += _dense_outputs(monkeypatch, lambda: integrate_smooth(
            system(), "upper", start, t_max=10.0))
    return dense


def test_step_poly_is_the_roll_construction_bit_for_bit(monkeypatch):
    dense = _real_dense_outputs(monkeypatch)
    dims = [len(d.y_old) for d in dense]
    assert {1, 2, 3} <= set(dims) and min(map(dims.count, (1, 2, 3))) >= 3
    for d in dense:
        ours = [[v.hex() for v in comp] for comp in flow._step_poly(d)]
        theirs = [[v.hex() for v in comp]
                  for comp in _step_poly_by_roll(d).T.tolist()]
        assert ours == theirs


def test_step_poly_is_the_roll_construction_on_extreme_rows():
    # rows of 1-, 2- and 3-component dense outputs drawn from extreme
    # floats, infinities and nans: the straight-line expansion is the
    # (8, n) roll-and-subtract, float.hex for float.hex
    rng = np.random.default_rng(30)
    rows = _extremes(rng, 8)[::3] + _with_specials(rng, 8)[::3]
    with np.errstate(all="ignore"):
        for i in range(0, len(rows) - 3, 3):
            n = 1 + i % 3
            dense = types.SimpleNamespace(
                F=[list(r[:7]) for r in rows[i:i + n]],
                y_old=[r[7] for r in rows[i:i + n]])
            ours = [[v.hex() for v in comp] for comp in flow._step_poly(dense)]
            theirs = [[v.hex() for v in comp]
                      for comp in _step_poly_by_roll(dense).T.tolist()]
            assert ours == theirs, dense


def _exits_by_polyval(coef, lo, hi):
    """flow._exits as numpy states it, with no early exit."""
    coef = np.array(coef)
    taus = lo + (hi - lo) * np.array(flow._GRID)
    v = polyval(taus, coef)
    return [flow._root(lambda u: polyval(u, coef), taus[i], taus[i + 1])
            for i in np.flatnonzero((v[:-1] >= 0.0) & (v[1:] < 0.0))]


def _minima_by_polyval(c, sgn, slope):
    """flow._minima as numpy states it, on an (8, 2) array c."""
    grid = np.array(flow._GRID)

    def slope_at(u):
        return slope(*polyval(u, c).tolist())
    v = sgn * polyval(grid, polyder(c[:, 1]))
    out = []
    for i in np.flatnonzero((v[:-1] < 0.0) & (v[1:] >= 0.0)):
        for a, b in ((i, i + 1), (max(i - 1, 0), min(i + 2, len(v) - 1))):
            if slope_at(grid[a]) < 0.0 <= slope_at(grid[b]):
                out.append(flow._root(slope_at, grid[a], grid[b]))
                break
    return out


def _hexes(xs):
    return [float(x).hex() for x in xs]


def test_exits_and_minima_are_polyval_bit_for_bit(monkeypatch):
    # the step polynomials of the _TRANSITS against lines through each
    # step and Sigma, and random polynomials
    rng = np.random.default_rng(21)
    found = {"exits": 0, "minima": 0, "several": 0}

    def check_exits(coef, spans):
        for lo, hi in spans:
            ours = flow._exits(coef, lo, hi)
            assert _hexes(ours) == _hexes(_exits_by_polyval(coef, lo, hi))
            # the scan that stops at its first root returns the head
            assert _hexes(flow._exits(coef, lo, hi, first=True)) \
                == _hexes(ours[:1])
            found["exits"] += bool(ours)
            found["several"] += len(ours) > 1

    def check_minima(c, slopes):
        for sgn, slope in slopes:
            ours = flow._minima(c, sgn, slope)
            assert _hexes(ours) \
                == _hexes(_minima_by_polyval(np.array(c).T, sgn, slope))
            found["minima"] += bool(ours)

    for build, start in _TRANSITS:
        system = build()
        fg = system.side_fn("upper")
        slopes = [(sgn, lambda x, y, sgn=sgn: sgn * fg(x, y)[1])
                  for sgn in (1.0, -1.0)]
        dense = _dense_outputs(monkeypatch, lambda: integrate_smooth(
            system, "upper", start, t_max=10.0))
        for c in (flow._step_poly(d) for d in dense if len(d.y_old) == 2):
            cx, cy = c
            spans = [(0.0, 1.0), tuple(sorted(rng.uniform(0.0, 1.0, 2)))]
            # lines through the middle of the step, and Sigma
            for n1, n2, level in ((1.0, 0.0, (cx[0] + sum(cx)) / 2),
                                  (0.0, -1.0, -(cy[0] + sum(cy)) / 2),
                                  (0.0, 1.0, 0.0)):
                coef = [n1 * a + n2 * b for a, b in zip(cx, cy)]
                coef[0] -= level
                check_exits(coef, spans)
            check_minima(c, slopes)
    for k in range(4, 8):   # 2-4 exits: roots spread over [0, 1]
        for _ in range(10):
            roots = (np.arange(k) + rng.uniform(0.2, 0.8, k)) / k
            coef = np.zeros(8)
            coef[:k + 1] = (-1.0) ** k * polyfromroots(roots)
            check_exits(coef.tolist(), [(0.0, 1.0), (0.1, 0.9)])
    for _ in range(300):
        coef = rng.normal(0.0, 1.0, 8) * rng.uniform(0.0, 2.0, 8) ** 4
        check_exits(coef.tolist(), [(0.0, 1.0), (0.1, 0.9)])
        c = [[0.0, 1.0] + [0.0] * 6, coef.tolist()]   # x = tau

        def slope(x, y, d=polyder(coef)):
            return float(polyval(x, d))
        check_minima(c, [(1.0, slope), (-1.0, lambda x, y: -slope(x, y))])
    assert found["exits"] >= 100 and found["minima"] >= 100, found
    assert found["several"] >= 10, found


def _exits_outcome(exits, coef, lo, hi):
    """The exits found, as float.hex, or the exception raised: Brent's
    method can divide by zero on subnormal values, and does so alike on
    either side."""
    try:
        with np.errstate(all="ignore"):
            return _hexes(exits(coef, lo, hi))
    except ZeroDivisionError as err:
        return type(err)


def _ulps(x, k):
    """x moved k ulps (toward +inf when k > 0)."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


def _transit_turns(c0, c1, c2):
    """_transit's turn test: its early-out, then _turns' grid scan."""
    return abs(c0) <= flow._TURN_SLACK * (abs(c1) + abs(c2)) \
        and flow._turns(c0, c1, c2)


def test_early_exits_agree_with_the_full_scan():
    # coefficients at the bounds of both early exits, a few ulps either
    # side, half of them with every other coefficient pulling toward zero
    # (the worst case, at tau = 1), at normal, tiny, subnormal and huge
    # scales; then infinities and nans
    rng = np.random.default_rng(22)
    exits_taken = turns_taken = 0
    cases = []
    for _ in range(500):
        scale = rng.choice([1.0, 1e-300, 5e-324, 1e300])
        tail = [float(v) for v in rng.integers(1, 1000, 7) * scale] \
            if scale == 5e-324 else (rng.uniform(0.0, 1.0, 7) * scale).tolist()
        if rng.uniform() < 0.5:
            tail = [-v for v in tail]
        else:
            tail = [v * s for v, s in
                    zip(tail, rng.choice((-1.0, 1.0), 7).tolist())]
        cases.append(tail)
    for tail in cases:
        s_exits = (1.0 + 1e-13) * sum(abs(a) for a in tail)
        s_turns = flow._TURN_SLACK * (abs(tail[0]) + abs(tail[1]))
        for k in range(-4, 5):
            c0 = _ulps(s_exits, k)
            lo, hi = (0.0, 1.0) if k % 2 else sorted(rng.uniform(0.0, 1.0, 2))
            coef = [c0] + tail
            assert _exits_outcome(flow._exits, coef, lo, hi) \
                == _exits_outcome(_exits_by_polyval, coef, lo, hi), coef
            exits_taken += c0 > s_exits
            for sign in (1.0, -1.0):
                c = (sign * _ulps(s_turns, k), tail[0], tail[1])
                assert _transit_turns(*c) == _turns_by_polyval(*c), c
                turns_taken += abs(c[0]) > s_turns
    specials = [[math.inf] + [-1.0] * 7, [1.0, -math.inf] + [0.0] * 6,
                [math.inf, math.inf] + [-1.0] * 6, [math.nan] + [0.0] * 7,
                [1.0, math.nan] + [0.0] * 6, [5e-324] + [-0.0] * 7,
                [1e-323, -5e-324] + [0.0] * 6, [1.7e308] + [-1.7e307] * 7]
    for coef in specials:
        assert _exits_outcome(flow._exits, coef, 0.0, 1.0) \
            == _exits_outcome(_exits_by_polyval, coef, 0.0, 1.0), coef
        for c in (coef[:3], [coef[1], coef[0], coef[2]]):
            assert _transit_turns(*c) == _turns_by_polyval(*c), c
    assert exits_taken > 1000 and turns_taken > 2000, (exits_taken,
                                                       turns_taken)


def test_a_landing_with_no_normal_speed_fails_as_a_step_underflow():
    # F.n = 0 on the line's normal: the Henon field divides by zero; its
    # quotients are IEEE's (inf or nan), so every step is rejected until
    # the stepper gives up, and no ZeroDivisionError escapes
    with np.errstate(all="ignore"), pytest.raises(flow.StepUnderflow):
        flow._land(lambda x, y: (0.0, 1.0), 0.0, np.array([0.0, 0.0]), 0.1,
                   (1.0, 0.0, 1.0))


@pytest.mark.parametrize("zero", [0.0, -0.0])
def test_a_quotient_by_zero_is_numpys_bit_for_bit(zero):
    # the Henon field's quotients where F.n = 0, with no ZeroDivisionError
    # and no warning: numpy's, NaN payloads and signs included
    values = (1.0, -1.0, 0.0, -0.0, math.nan, -math.nan, math.inf)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ours = flow._by_zero(values, zero)
    with np.errstate(all="ignore"):
        theirs = np.divide(values, zero).tolist()
    assert [struct.pack("<d", v) for v in ours] \
        == [struct.pack("<d", v) for v in theirs]


def _recorded_steppers(monkeypatch):
    """Every DOP853 stepper flow starts from here on, in order."""
    steppers = []

    class Recorded(flow.DOP853):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            steppers.append(self)
    monkeypatch.setattr(flow, "DOP853", Recorded)
    return steppers


def test_transit_evaluates_its_side_once_per_stepper_rhs_call(monkeypatch):
    # a sheared upper side with g~ = 1 - (1 + 0.2 u) psi' > 0 (psi' stays
    # below 0.3 on this 0.01 plateau): the orbit from (-0.9, 0.1) rises
    # through the bump without turning and leaves the window, so every
    # field evaluation is a DOP853 stepper's (the transit's, then the two
    # of its landing on the window edge); the side evaluates psi inline,
    # its generated source holding psi's body once and calling no psi
    bodies, side_calls = [], []
    compiled = unfolding.generated_fn

    def recorded(args, body, out, names):
        bodies.append(body)
        return compiled(args, body, out, names)
    monkeypatch.setattr(unfolding, "generated_fn", recorded)
    steppers = _recorded_steppers(monkeypatch)
    system = _sheared_upper_sys()
    f, _ = system.side("upper")
    side = system.side_fn("upper")

    def counted_side(x, y):
        side_calls.append(x)
        return side(x, y)
    monkeypatch.setattr(system, "side_fn",
                        lambda which, time_sign=1.0: counted_side)
    run = integrate_smooth(system, "upper", (-0.9, 0.1), t_max=10.0)
    assert run.terminal.kind == "window-exit"
    assert len(steppers) == 3
    assert len(side_calls) == sum(s.nfev for s in steppers)
    assert min(side_calls) < -0.3 < max(side_calls)   # through the bump
    [body] = bodies
    psi_body, _ = cutoffs._psi_source(f._spec)
    assert body.startswith(psi_body) and body.count(psi_body) == 1
    assert "psi" not in body


@pytest.mark.parametrize("system", [_sheared_upper_sys(),
                                    upper_sys("1 + 0.2*y", "1 - x")],
                         ids=["sheared", "expression"])
def test_a_forward_transit_steps_on_the_compiled_side_itself(monkeypatch,
                                                             system):
    # forward, the stepper calls the system's compiled side with no wrapper
    # between; backward, the side's compiled negation, kept on the system
    steppers = _recorded_steppers(monkeypatch)
    side = system.side_fn("upper")
    for time_sign in (1.0, -1.0):
        steppers.clear()
        integrate_smooth(system, "upper", (-0.9, 0.1), t_max=1.0,
                         time_sign=time_sign)
        assert (steppers[0]._fun is side) == (time_sign == 1.0)
        assert steppers[0]._fun is system.side_fn("upper", time_sign)
        if time_sign == -1.0:
            fv, gv = side(-0.9, 0.1)
            assert steppers[0]._fun(-0.9, 0.1) == (-fv, -gv)


def _lines_fired(exits, z_a, z_b):
    """The exit lines a step crosses, by each line's own comparison."""
    (xa, ya), (xb, yb) = z_a, z_b
    return [(line, kind) for line, kind in exits
            if line[0] * xb + line[1] * yb < line[2]
            <= line[0] * xa + line[1] * ya]


def test_the_bounding_test_fires_as_the_lines_do(monkeypatch):
    # the exit lines and box of real transits: an upper and a lower Sigma
    # transit and a section transit from a point of its section. With step
    # ends exactly on each line (and a float and 1e-10 to either side), on
    # Sigma as +0.0 and -0.0, and on the section, the one bounding
    # comparison fires exactly the lines the line-by-line test fires
    seen, fired = {}, flow._fired

    def record(exits, box, x_at, z_a, z_b):
        seen.setdefault((x_at, tuple(box)), (exits, box, x_at, z_a))
        return fired(exits, box, x_at, z_a, z_b)
    monkeypatch.setattr(flow, "_fired", record)
    system = make_sys("1", "0 - x", "1", "x")
    integrate_smooth(system, "upper", (-0.5, 0.1))
    integrate_smooth(system, "lower", (-0.5, -0.1))
    flow._transit(system, "upper", (0.25, 0.5), x_at=0.25)
    assert sorted(x_at is None for x_at, _ in seen) == [False, True, True]
    crossed = 0
    for exits, box, x_at, z_a in seen.values():
        xs = [level / n1 for (n1, _, level), _ in exits if n1] + [z_a[0]]
        ys = [level / n2 for (_, n2, level), _ in exits if n2] + [
            z_a[1], 0.0, -0.0]
        near = [v for c in (xs, ys) for u in c
                for v in (u - 1e-10, math.nextafter(u, -1.0), u,
                          math.nextafter(u, 1.0), u + 1e-10)]
        ends = [(u, z_a[1]) for u in near] + [(z_a[0], v) for v in near]
        assert x_at in (None, z_a[0])   # a section transit starts on it
        for a in [z_a] + ends:
            for b in ends:
                want = _lines_fired(exits, a, b)
                assert fired(exits, box, x_at, a, b) == want, (a, b)
                crossed += bool(want)
    assert crossed > 100


def test_a_landing_leaves_the_3d_dense_function_uncompiled(monkeypatch):
    # _land's second stepper (state and time over the line coordinate, 3
    # components) never interpolates, so only step functions are built;
    # a stepper builds its dense function at its first dense_output()
    built, real = [], numerics.generated_fn

    def recording(args, *rest):
        built.append(args)
        return real(args, *rest)
    numerics._generated.cache_clear()
    monkeypatch.setattr(numerics, "generated_fn", recording)
    t, z = flow._land(lambda x, y: (1.0, 0.5 - x), 0.0, [-0.5, 0.1], 0.2,
                      (1.0, 0.0, -0.25))
    assert t == pytest.approx(0.25, abs=1e-12)
    assert z[0] == pytest.approx(-0.25, abs=1e-12)
    assert built == ["fun, y, f, h, rtol, atol"] * 2   # 2 and 3 components
    solver = numerics.DOP853(lambda x, y, t: (1.0, 0.0, 1.0), 0.0,
                             [0.0, 0.0, 0.0], 1.0, rtol=flow.RTOL,
                             atol=flow.ATOL)
    solver.step()
    solver.dense_output()
    assert built[2:] == ["fun, y, z, h, K"]
