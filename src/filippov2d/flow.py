"""Filippov flows for two-zone systems: smooth arcs, Sigma events, sliding.

Every transit takes its system: the fields of the side it flows, the
system's window and a leg budget of 6 * width + 30 time units of that
window. Only ``integrate_pws`` (its remaining time) and the crossing-cycle
witness (a window capped at its seed) pass other values.

Every smooth arc is integrated by one kernel, ``_transit``: a loop over the
accepted steps of a ``numerics.DOP853`` stepper. After each step it checks
a fixed set of stops from the step's ends and the slopes the stepper
already holds there (FSAL):

* exit lines: Sigma (a transit in one half-plane, ``integrate_smooth``)
  and the window padded by 1e-9 of its larger side;
* a vertical line x = x_at (``maps._flow_to_section``, upper field),
  crossed either way: the first crossing other than the start point ends
  the transit (as a tangent hit when not transversal);
* turns of y (g changes sign, or the step's cubic Hermite interpolant
  turns): a turn toward Sigma whose height, integrated onto its abscissa,
  is within 1e-8 is a touch, a graze of Sigma; one beyond it is a dip;
* the time budget.

Only a step where one may fire builds the dense output, to locate the
earliest stop on the step polynomial. A transversal stop on a line is then
landed: the step is integrated again to the polynomial's estimate, and a
Henon step (Physica D 5, 1982) in the line coordinate s, dz/ds = F / (F.n),
finishes on the line, carrying the time; the interpolant's error never
reaches a reported point. Tangential contacts keep the polynomial's root:
the orbit flies past them, or with graze chaining each ends a leg, one
``Arc`` per leg, and the flow restarts from (x, 0) until one lands near
``stop_at``.

A transit evaluates its side's field through one callable (x, y) -> (f, g)
with Python floats, one call per RHS point: expression and sheared sides
compile their pair into one function (``side_with``), any other pair of
fields falls back to a ``.value`` call on each.

Sliding arcs step the scalar Filippov field along Sigma on the same
stepper and stop at sliding-region boundaries (tangent points), at window
exits, or when the sliding speed collapses (pseudo-equilibrium).

Tolerances are fixed contracts, not options: every DOP853 integration,
steps and landings alike, runs at rtol = RTOL = 1e-10 and atol = ATOL =
1e-12 with steps of its own choosing (the nudge off Sigma resolves |y|
below the nudge floor with atol = 1e-2 * ATOL). loops.CLOSURE_TOL and the
counts it certifies rest on these values; nothing widens them.

integrate_pws chains arcs forward in time with a deterministic default
policy:

* transversal crossing -> switch half-plane;
* arrival on the boundary of an attracting sliding segment -> slide;
* visible tangential touch -> continue on the same side;
* sliding reaching a boundary tangent point -> take off along a visible
  tangency, cross when the far region is a crossing region.

Forward non-uniqueness (repelling sliding) is resolved by staying on
Sigma; loop-witness builders override the policy with explicit leg plans.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np
from numpy.polynomial.polynomial import polyder, polyval

from .numerics import DOP853, brentq, solve_ivp
from .system import (PwsSystem, Window, _side_fn, h_value, sliding_field,
                     NotSliding, DegenerateDenominator)


class TransitFailure(RuntimeError):
    """A smooth transit could not deliver what its caller asked for."""


class StepUnderflow(TransitFailure):
    pass


class AmbiguousTangency(TransitFailure):
    pass


@dataclass(frozen=True)
class Event:
    t: float
    x: float
    y: float
    kind: str


@dataclass
class Arc:
    kind: str                # 'upper' | 'lower' | 'sliding'
    t: np.ndarray
    x: np.ndarray
    y: np.ndarray

    def start(self) -> Tuple[float, float]:
        return float(self.x[0]), float(self.y[0])

    def end(self) -> Tuple[float, float]:
        return float(self.x[-1]), float(self.y[-1])


@dataclass
class Trajectory:
    arcs: List[Arc]
    events: List[Event]
    system: Optional[PwsSystem] = None

    def start(self) -> Tuple[float, float]:
        return self.arcs[0].start()

    def end(self) -> Tuple[float, float]:
        return self.arcs[-1].end()

    def touch_events(self) -> List[Event]:
        return [e for e in self.events if e.kind == "tangency-touch"]


RTOL = 1e-10               # every DOP853 integration (module docstring)
ATOL = 1e-12
_NUDGE_FLOOR = 1e-11       # |y| a start on Sigma must clear before a segment
_NUDGE_FIRST_STEP = 1e-8   # first micro-step of the nudge, grown 4x per try
_TOUCH_TOL = 1e-8          # |y| of a g-zero inside a step that counts as a touch
_TRANSVERSAL_TOL = 1e-6    # relative normal speed of an accepted section hit
_MAX_CONTACTS = 64         # Sigma contacts that restart one transit
_GRID = np.linspace(0.0, 1.0, 33)   # samples of a step polynomial
_MAX_ARCS = 200            # arcs of one integrate_pws trajectory


@dataclass
class SmoothRun:
    legs: List[Arc]          # one per leg; several only under graze chaining
    touches: List[Event]
    terminal: Event

    @property
    def t(self) -> np.ndarray:
        return np.concatenate([a.t for a in self.legs])

    @property
    def x(self) -> np.ndarray:
        return np.concatenate([a.x for a in self.legs])

    @property
    def y(self) -> np.ndarray:
        return np.concatenate([a.y for a in self.legs])


def _own_sign(side: str) -> float:
    if side == "upper":
        return 1.0
    if side == "lower":
        return -1.0
    raise ValueError("side must be 'upper' or 'lower'")


def _nudge_off_sigma(rhs, x0: float, side: str) -> Tuple[float, float, float]:
    """March a Sigma start strictly into its own half-plane along the
    transit's rhs.

    Grows the micro-step until |y| clears the nudge floor; raises
    AmbiguousTangency when the orbit insists on the other side (the caller
    asked for an impossible continuation) or cannot leave Sigma at all.
    """
    sgn = _own_sign(side)
    h = _NUDGE_FIRST_STEP
    state = (x0, 0.0)
    for _ in range(80):
        sol = solve_ivp(rhs, (0.0, h), state, rtol=RTOL, atol=ATOL * 1e-2)
        xe, ye = sol.y[0, -1], sol.y[1, -1]
        if abs(ye) >= _NUDGE_FLOOR:
            if ye * sgn < 0:
                raise AmbiguousTangency(
                    f"orbit from ({x0}, 0) leaves into the other half-plane")
            return float(xe), float(ye), h
        h *= 4.0
    raise AmbiguousTangency(f"orbit from ({x0}, 0) will not leave Sigma")


def _step(solver) -> None:
    message = solver.step()
    if solver.status == "failed":
        raise StepUnderflow(f"integrator failed near {solver.y}: {message}")


def _run_to(fun, s0: float, w0, s1: float) -> np.ndarray:
    """Integrate dw/ds = fun(s, w) from (s0, w0) to s1; one step first."""
    solver = DOP853(fun, s0, w0, s1, rtol=RTOL, atol=ATOL,
                    first_step=abs(s1 - s0) or None)
    while solver.status == "running":
        _step(solver)
    return solver.y


def _land(rhs, t_a: float, z_a: np.ndarray, t_e: float,
          line: Tuple[float, float, float]) -> Tuple[float, np.ndarray]:
    """Land a step from (t_a, z_a) on the line n1 x + n2 y = level near
    time t_e: integrate again to t_e, then a Henon step (Physica D 5, 1982)
    in the line coordinate s, dz/ds = F / (F.n) and dt/ds = 1 / (F.n).
    Returns the landing time and state."""
    n1, n2, level = line

    def fun(s, w):
        v = np.asarray(rhs(w[-1], w[:-1]))
        return np.append(v, 1.0) / (n1 * v[0] + n2 * v[1])
    z = _run_to(rhs, t_a, z_a, t_e)
    w = _run_to(fun, n1 * z[0] + n2 * z[1] - level, np.append(z, t_e), 0.0)
    return float(w[-1]), w[:-1]


def _step_poly(dense) -> np.ndarray:
    """A DOP853 step's interpolant as power-series coefficients in
    tau = (t - t_old) / h, shape (8, n): one column per state component."""
    c = np.zeros((8, len(dense.y_old)))
    for i, row in enumerate(dense.F[::-1]):   # DenseOutput's nested tau/1-tau
        c[0] += row
        shifted = np.roll(c, 1, axis=0)
        c = shifted if i % 2 == 0 else c - shifted
    c[0] += dense.y_old
    return c


def _root(fun, a: float, b: float) -> float:
    try:   # Brent's method creeps at high-order zeros: room to bisect
        return brentq(fun, a, b, xtol=1e-15, rtol=1e-15, maxiter=400,
                      disp=False)
    except ValueError:   # rounding lost the sign change at b
        return b


def _exits(coef: np.ndarray, lo: float, hi: float) -> List[float]:
    """Where a step polynomial goes from >= 0 to < 0 on [lo, hi], in order."""
    taus = lo + (hi - lo) * _GRID
    v = polyval(taus, coef)
    return [_root(lambda u: polyval(u, coef), taus[i], taus[i + 1])
            for i in np.flatnonzero((v[:-1] >= 0.0) & (v[1:] < 0.0))]


def _minima(c: np.ndarray, sgn: float, slope) -> List[float]:
    """Where sgn * y has a minimum along a step polynomial c: brackets from
    its y', then Brent's method on slope(x, y), the field's sgn * y'."""
    def slope_at(u):
        return slope(*polyval(u, c).tolist())
    v = sgn * polyval(_GRID, polyder(c[:, 1]))
    out = []
    for i in np.flatnonzero((v[:-1] < 0.0) & (v[1:] >= 0.0)):
        for a, b in ((i, i + 1), (max(i - 1, 0), min(i + 2, len(v) - 1))):
            if slope_at(_GRID[a]) < 0.0 <= slope_at(_GRID[b]):
                out.append(_root(slope_at, _GRID[a], _GRID[b]))
                break
    return out


def _leg_budget(sys: PwsSystem) -> float:
    """Time budget of one leg (one transit) inside the system's window."""
    return 6.0 * sys.window.width + 30.0


def _transit(sys: PwsSystem, side: str, start: Tuple[float, float], *,
             t_max: Optional[float] = None, window: Optional[Window] = None,
             time_sign: float = 1.0, tangency_tol: float = 0.0,
             chain: bool = False, stop_at: Optional[float] = None,
             stop_tol: float = 0.0, t_offset: float = 0.0,
             x_at: Optional[float] = None) -> SmoothRun:
    """The one smooth-transit loop (module docstring) on the field of
    `side`: a Sigma transit in that half-plane, or with x_at a transit to
    the vertical line x = x_at. Times count from t_offset; each leg has the
    budget t_max (default: the system's leg budget) and the transit stops
    at the edges of `window` (default: the system's). Terminal kinds:
    sigma-cross, tangent-arrival, tangent-exit, section-hit, tangent-hit,
    window-exit, time-end."""
    t_max = _leg_budget(sys) if t_max is None else t_max
    w = sys.window if window is None else window
    x, y = float(start[0]), float(start[1])
    fg = _side_fn(*sys.side(side))   # the only field evaluation in a transit

    def rhs(t, s):
        fv, gv = fg(*s.tolist())
        return time_sign * fv, time_sign * gv

    # exit lines (n1, n2, level): the orbit stays where n1 x + n2 y >= level;
    # a section is a line exited either way
    if x_at is None:
        sgn = _own_sign(side)
        if y * sgn < -1e-9:
            raise ValueError(f"start {start} is not in the {side} half-plane")
        exits = [((0.0, sgn, 0.0), "sigma")]
    else:
        exits = [(line, "section")
                 for line in ((-1.0, 0.0, -x_at), (1.0, 0.0, x_at))]
        on_line_at_start = abs(x - x_at) <= 1e-12
    pad = 1e-9 * max(w.width, w.y_hi - w.y_lo)
    exits += [(line, "window-exit") for line in (
        (1.0, 0.0, w.x_lo - pad), (-1.0, 0.0, -w.x_hi - pad),
        (0.0, 1.0, w.y_lo - pad), (0.0, -1.0, -w.y_hi - pad))]

    legs, touches = [], []    # touches: every touch of Sigma, in order
    samples = [(0.0, x, y)]   # (leg time, x, y) of the current leg
    t_leg0 = t_offset         # start time of the current leg

    def finish(t_end: float, xe: float, ye: float, kind: str) -> SmoothRun:
        if x_at is not None:
            return SmoothRun([], [], Event(t_end, xe, ye, kind))
        close_leg(t_end, xe, ye)
        return SmoothRun(legs, touches, Event(t_leg0 + t_end, xe, ye, kind))

    def close_leg(t_end: float, xe: float, ye: float) -> None:
        if samples[-1][0] != t_end:   # the end point is the leg's last sample
            samples.append((t_end, xe, ye))
        t_all, x_all, y_all = (np.array(c) for c in zip(*samples))
        legs.append(Arc(side, t_all + t_leg0, x_all, y_all))

    t = 0.0
    if x_at is None and abs(y) < _NUDGE_FLOOR:
        x, y, t = _nudge_off_sigma(rhs, x, side)
        samples.append((t, x, y))
    z = np.array([x, y])

    for _contact in range(_MAX_CONTACTS):
        if t >= t_max:
            return finish(t, x, y, "time-end")
        solver = DOP853(rhs, t, z, t_max, rtol=RTOL, atol=ATOL)
        t_seg = t + 1e-12   # where touches count: off the restart point
        contact = None   # (leg time, x) of a Sigma contact that restarts
        while contact is None:
            t_a, z_a, f_a = solver.t, solver.y, solver.f
            _step(solver)
            t_b, z_b, h = solver.t, solver.y, solver.t - t_a
            fired = [(line, kind) for line, kind in exits
                     if line[0] * z_b[0] + line[1] * z_b[1] < line[2]
                     <= line[0] * z_a[0] + line[1] * z_a[1]]
            # y may turn: the slope of its cubic Hermite interpolant (end
            # slopes d0, d1 times the step) changes sign
            dy, d0, d1 = z_b[1] - z_a[1], h * f_a[1], h * solver.f[1]
            turned = x_at is None and bool(np.any(d0 * polyval(_GRID, (
                d0, 6 * dy - 4 * d0 - 2 * d1, 3 * (d0 + d1 - 2 * dy))) < 0.0))
            stops = []   # (tau, kind, line) on the step polynomial c
            if fired or turned:
                c = _step_poly(solver.dense_output())
                lo, dip = 0.0, None
                # y turns toward Sigma in this step: a touch, or a dip
                # across it, judged by y integrated onto the turn's abscissa
                for tau in _minima(c, sgn, lambda x, y: sgn * time_sign
                                   * fg(x, y)[1]) if turned else ():
                    x_g = float(polyval(tau, c[:, 0]))
                    y_g = _land(rhs, t_a, z_a, t_a + tau * h,
                                (1.0, 0.0, x_g))[1][1] * sgn
                    if abs(y_g) <= _TOUCH_TOL and t_a + tau * h > t_seg:
                        stops.append((tau, "touch", None))
                        lo = tau
                    elif y_g < -_TOUCH_TOL:
                        dip = tau
                        break
                # a line may be crossed and recrossed inside one step, so
                # once one fires every line is searched (Sigma after the
                # touches and up to a dip)
                for line, kind in exits if fired or dip is not None else ():
                    span = (lo, 1.0 if dip is None else dip) \
                        if kind == "sigma" else (0.0, 1.0)
                    coef = line[0] * c[:, 0] + line[1] * c[:, 1]
                    coef[0] -= line[2]
                    roots = _exits(coef, *span)
                    if kind != "section":   # (hi: rounding lost the root)
                        roots = roots[:1] or [span[1]] * (
                            (line, kind) in fired
                            or kind == "sigma" and dip is not None)
                    stops += [(tau, kind, line) for tau in roots]

            for tau, kind, line in sorted(stops, key=lambda s: s[0]):
                t_e = t_a + tau * h
                p = polyval(tau, c)
                if kind == "section":
                    # an arrival is not the start point
                    if on_line_at_start and t_e <= 1e-9:
                        continue
                    fz, gz = rhs(0.0, p)
                    kind = ("section-hit" if abs(fz)
                            > _TRANSVERSAL_TOL * math.hypot(fz, gz)
                            else "tangent-hit")
                elif kind == "sigma" \
                        and abs(fg(float(p[0]), 0.0)[1]) > tangency_tol:
                    kind = "sigma-cross"
                if kind == "touch" and not chain:
                    touches.append(Event(t_leg0 + t_e, float(p[0]),
                                         float(p[1]), "tangency-touch"))
                elif kind in ("touch", "sigma"):   # a tangential contact
                    contact = (t_e, float(p[0]))
                    break
                elif kind == "tangent-hit":
                    return finish(t_e, float(p[0]), float(p[1]), kind)
                else:   # a transversal stop on a line
                    t_c, z_c = _land(rhs, t_a, z_a, t_e, line)
                    return finish(t_c, float(z_c[0]), 0.0 if kind ==
                                  "sigma-cross" else float(z_c[1]), kind)
            if contact is None:
                samples.append((t_b, z_b[0], z_b[1]))
                if solver.status == "finished":
                    return finish(t_b, float(z_b[0]), float(z_b[1]),
                                  "time-end")

        # a tangential contact with Sigma: fly on past it, or under graze
        # chaining end the leg there, stop, or restart a new leg from it
        t_touch, x_touch = contact
        touches.append(Event(t_leg0 + t_touch, x_touch, 0.0, "tangency-touch"))
        if chain:
            if stop_at is not None and abs(x_touch - stop_at) <= stop_tol:
                return finish(t_touch, x_touch, 0.0, "tangent-arrival")
            close_leg(t_touch, x_touch, 0.0)
            t_leg0, t_touch, samples = t_leg0 + t_touch, 0.0, []
        samples.append((t_touch, x_touch, 0.0))
        try:
            x, y, dt = _nudge_off_sigma(rhs, x_touch, side)
        except AmbiguousTangency:
            if chain:
                raise
            return finish(t_touch, x_touch, 0.0, "tangent-exit")
        t = t_touch + dt
        samples.append((t, x, y))
        z = np.array([x, y])
    raise AmbiguousTangency("too many tangential contacts in one transit")


def integrate_smooth(sys: PwsSystem, side: str, start: Tuple[float, float],
                     *, t_max: Optional[float] = None,
                     window: Optional[Window] = None,
                     time_sign: float = 1.0,
                     tangency_tol: float = 1e-7,
                     chain: bool = False,
                     stop_at: Optional[float] = None,
                     stop_tol: float = 1e-6,
                     t_offset: float = 0.0) -> SmoothRun:
    """One smooth transit of the `side` field of sys in its half-plane,
    with Sigma event handling, in sys.window with the leg budget unless
    t_max or window says otherwise.

    Returns the legs, all tangential touch events and the terminal event,
    one of: sigma-cross, tangent-arrival (graze chaining reached stop_at),
    tangent-exit (tangential departure from the half-plane), window-exit,
    time-end.

    With chain=True every touch ends a leg and the flow restarts from the
    touch point on Sigma; the transit ends at the first touch within
    stop_tol of stop_at, when one is given. Times count from t_offset.
    """
    return _transit(sys, side, start, t_max=t_max, window=window,
                    time_sign=time_sign, tangency_tol=tangency_tol,
                    chain=chain, stop_at=stop_at, stop_tol=stop_tol,
                    t_offset=t_offset)


def sliding_arc(sys: PwsSystem, x_start: float, *,
                t_max: Optional[float] = None,
                x_stop: Optional[float] = None) -> Tuple[np.ndarray, np.ndarray, Event]:
    """Integrate the sliding field from a point inside a sliding segment.

    Stops at the segment boundary (h -> 0), a window edge, the time budget
    (default: the system's leg budget), a pseudo-equilibrium (the sliding
    speed collapses below 1e-9), or -- when x_stop is given -- at the
    prescribed abscissa.
    Returns (t, x, terminal_event); y is identically 0 on the arc.
    """
    w = sys.window
    t_max = _leg_budget(sys) if t_max is None else t_max

    def rhs(t, s):
        try:
            return (sliding_field(sys, float(s[0])),)
        except (NotSliding, DegenerateDenominator):
            return (0.0,)

    # stop functions of x, each >= 0 until its stop fires
    stops = [(lambda x: -h_value(sys, x), "sliding-boundary"),
             (lambda x: x - w.x_lo, "window-exit"),
             (lambda x: w.x_hi - x, "window-exit")]
    if x_stop is not None:
        ahead = 1.0 if x_stop >= x_start else -1.0
        stops.append((lambda x: ahead * (x_stop - x), "target-reached"))
    solver = DOP853(rhs, 0.0, [x_start], t_max, rtol=RTOL, atol=ATOL)
    ts, xs, kind = [0.0], [float(x_start)], "time-end"
    while solver.status == "running" and kind == "time-end":
        t_a, x_a = solver.t, float(solver.y[0])
        _step(solver)
        t_b, x_b = solver.t, float(solver.y[0])
        fired = [(fn, kind) for fn, kind in stops if fn(x_b) < 0.0 <= fn(x_a)]
        if fired:
            dense = solver.dense_output()
            t_b, kind = min((_root(lambda t: fn(dense(t)[0]), t_a, t_b), kind)
                            for fn, kind in fired)
            x_b = x_stop if kind == "target-reached" else float(dense(t_b)[0])
        ts.append(t_b)
        xs.append(x_b)
    if kind == "time-end" and abs(rhs(0.0, (xs[-1],))[0]) <= 1e-9:
        kind = "pseudo-equilibrium"
    return np.array(ts), np.array(xs), Event(ts[-1], xs[-1], 0.0, kind)


@dataclass
class StepDecision:
    action: str          # 'cross' | 'slide' | 'continue' | 'stop'
    side: Optional[str]  # target side for 'cross'/'continue'


def step_filippov(sys: PwsSystem, x: float,
                  arriving_from: Optional[str]) -> StepDecision:
    """Deterministic continuation at a Sigma point.

    arriving_from is the half-plane the orbit came from (None when starting
    fresh on Sigma). Uses the sign pattern of (g+, g-) at x with the
    system's tangency tolerance; raises AmbiguousTangency when the signs
    sit below resolution in a conflicting pattern.
    """
    gp = sys.g_plus.value(x, 0.0)
    gm = sys.g_minus.value(x, 0.0)
    tol_p = 1e-7 * sys.sigma_g_scale("upper")
    tol_m = 1e-7 * sys.sigma_g_scale("lower")
    p_zero = abs(gp) <= tol_p
    m_zero = abs(gm) <= tol_m

    if p_zero and m_zero:
        raise AmbiguousTangency(f"double tangency at x={x}")

    if not p_zero and not m_zero:
        if gp * gm > 0:  # crossing region
            return StepDecision("cross", "upper" if gp > 0 else "lower")
        # sliding region (attracting or repelling): stay on Sigma
        return StepDecision("slide", None)

    # exactly one side tangent
    tangent_side = "upper" if p_zero else "lower"
    other = "lower" if p_zero else "upper"
    g_other = gm if p_zero else gp
    other_enters_own = (g_other < 0) if other == "lower" else (g_other > 0)
    if arriving_from == tangent_side:
        # tangential departure from its own half-plane
        if other_enters_own:
            return StepDecision("cross", other)
        # both fields point at Sigma around the contact: attracting sliding
        return StepDecision("slide", None)
    if arriving_from is None:
        if other_enters_own:
            return StepDecision("cross", other)
        # far side pushes back: take off along the tangent side
        return StepDecision("continue", tangent_side)
    # arriving transversally from the other side onto a tangency of this side
    if other_enters_own and arriving_from != other:
        return StepDecision("cross", other)
    return StepDecision("continue", tangent_side)


def integrate_pws(sys: PwsSystem, start: Tuple[float, float], *,
                  t_max: float) -> Trajectory:
    """Chain smooth and sliding arcs under the default Filippov policy."""
    x, y = float(start[0]), float(start[1])
    arcs: List[Arc] = []
    events: List[Event] = []
    t_used = 0.0

    side: Optional[str]
    if abs(y) > _NUDGE_FLOOR:
        side = "upper" if y > 0 else "lower"
        pending = ("smooth", side)
    else:
        dec = step_filippov(sys, x, None)
        if dec.action == "slide":
            pending = ("slide", None)
        else:
            pending = ("smooth", dec.side)

    while len(arcs) < _MAX_ARCS and t_used < t_max:
        if pending[0] == "smooth":
            side = pending[1]
            run = integrate_smooth(sys, side, (x, y), t_max=t_max - t_used,
                                   tangency_tol=1e-7 * sys.sigma_g_scale(side),
                                   t_offset=t_used)
            arcs.extend(run.legs)
            events.extend(run.touches)
            term = run.terminal
            events.append(term)
            t_used = term.t
            x, y = term.x, term.y
            if term.kind in ("window-exit", "time-end"):
                break
            # Sigma contact: transversal or tangential exit
            dec = step_filippov(sys, x, side)
            if dec.action == "cross" or dec.action == "continue":
                pending = ("smooth", dec.side)
                y = 0.0
            elif dec.action == "slide":
                events.append(Event(t_used, x, 0.0, "sliding-entry"))
                pending = ("slide", None)
                y = 0.0
            else:
                break
        else:
            ts, xs, term = sliding_arc(sys, x, t_max=t_max - t_used)
            arcs.append(Arc("sliding", ts + t_used, xs, np.zeros_like(xs)))
            events.append(Event(term.t + t_used, term.x, 0.0, term.kind))
            t_used += term.t
            x, y = term.x, 0.0
            if term.kind in ("window-exit", "time-end", "pseudo-equilibrium"):
                break
            # boundary tangent point: decide takeoff/cross
            dec = step_filippov(sys, x, None)
            if dec.action in ("cross", "continue"):
                events.append(Event(t_used, x, 0.0, "sliding-exit"))
                pending = ("smooth", dec.side)
            else:
                break
    return Trajectory(arcs, events, sys)


# ---------------------------------------------------------------------------
# CSV export

TRAJECTORY_CSV_VERSION = "filippov2d-trajectory-v1"


def trajectory_to_csv(traj: Trajectory, path: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(f"# {TRAJECTORY_CSV_VERSION}\n")
        writer = csv.writer(fh)
        writer.writerow(["t", "x", "y", "arc_kind", "arc_index", "event"])
        ev_by_t = {round(e.t, 12): e.kind for e in traj.events}
        for i, arc in enumerate(traj.arcs):
            for t, x, y in zip(arc.t, arc.x, arc.y):
                ev = ev_by_t.get(round(float(t), 12), "")
                writer.writerow([repr(float(t)), repr(float(x)),
                                 repr(float(y)), arc.kind, i, ev])


def read_trajectory_csv(path: str):
    """Round-trip reader: returns (version, header, rows)."""
    with open(path) as fh:
        first = fh.readline().strip()
        version = first.lstrip("# ").strip()
        reader = csv.reader(fh)
        header = next(reader)
        rows = [row for row in reader]
    return version, header, rows
