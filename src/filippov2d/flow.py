"""Filippov flows for two-zone systems: smooth arcs, Sigma events, sliding.

Every smooth arc is integrated by one kernel, ``_transit``: DOP853 with
dense output, run in segments, each segment one ``solve_ivp`` call that
ends at the first stop condition. The stop conditions are a fixed set:

* Sigma contact (transits confined to one half-plane, ``integrate_smooth``):
  the contact is polished by Newton steps on y and reported on y = 0. It
  is transversal, and ends the transit, when |g| exceeds the tangency
  tolerance there; otherwise it is a tangential touch.
* g-zero touches: a zero of g inside a step with |y| <= 1e-8 is a graze of
  Sigma that need not reach it. By default the orbit flies through every
  touch (a touch on Sigma itself is first nudged off into the orbit's own
  half-plane). With graze chaining each touch ends a leg, and the flow
  restarts from the touch point (x, 0) in a new leg, one ``Arc`` per leg,
  until a touch lands near ``stop_at``.
* Target section (``maps._flow_to_section``): the transit ends at the
  first *accepted* crossing of the section's line: inside its half-width,
  not the start point itself, and transversal (a tangential crossing ends
  the transit as a tangent hit). A rejected crossing stops its segment
  too; the segment is then integrated again from the same start with
  twice as many crossings allowed, so the accepted hit is exactly the one
  an unstopped integration would have found.
* Window exit: the window padded by 1e-9 of its larger side.
* Runaway guard: a transit without a window stops where |x| + |y|
  reaches 1e9.
* Time budget.

Sliding arcs integrate the scalar Filippov field along Sigma and stop at
sliding-region boundaries (tangent points), at window exits, or when the
sliding speed collapses (pseudo-equilibrium).

Tolerances are fixed contracts, not options: every DOP853 integration
runs at rtol = RTOL = 1e-10 and atol = ATOL = 1e-12, except the nudge
off Sigma, whose micro-steps use atol = 1e-2 * ATOL so that they resolve
|y| below the nudge floor. The closure tolerance every loop witness is
judged against (loops.CLOSURE_TOL) and the counts it certifies rest on
these values; nothing in the package widens them.

integrate_pws chains arcs with a deterministic default policy:

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
from scipy.integrate import solve_ivp

from .system import (PwsSystem, Window, h_value, sliding_field, NotSliding,
                     DegenerateDenominator)


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
    direction: str = "forward"

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
_GUARD_RADIUS = 1e9        # |x| + |y| where a transit without a window stops
_MAX_SEGMENTS = 64
_MAX_ARCS = 200            # arcs of one integrate_pws trajectory


@dataclass
class SmoothRun:
    legs: List[Arc]          # one per leg; several only under graze chaining
    touches: List[Event]
    terminal: Event
    div_integral: float = 0.0   # section transits with the divergence only

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


def _nudge_off_sigma(f, g, x0: float, side: str, *,
                     time_sign: float) -> Tuple[float, float, float]:
    """March a Sigma start strictly into its own half-plane.

    Grows the micro-step until |y| clears the nudge floor; raises
    AmbiguousTangency when the orbit insists on the other side (the caller
    asked for an impossible continuation) or cannot leave Sigma at all.
    """
    sgn = _own_sign(side)
    rhs = lambda t, s: (time_sign * f.value(s[0], s[1]),
                        time_sign * g.value(s[0], s[1]))
    h = _NUDGE_FIRST_STEP
    state = (x0, 0.0)
    for _ in range(80):
        sol = solve_ivp(rhs, (0.0, h), state, method="DOP853",
                        rtol=RTOL, atol=ATOL * 1e-2)
        xe, ye = sol.y[0, -1], sol.y[1, -1]
        if abs(ye) >= _NUDGE_FLOOR:
            if ye * sgn < 0:
                raise AmbiguousTangency(
                    f"orbit from ({x0}, 0) leaves into the other half-plane")
            return float(xe), float(ye), h
        h *= 4.0
    raise AmbiguousTangency(f"orbit from ({x0}, 0) will not leave Sigma")


def _transit(f, g, start: Tuple[float, float], *, t_max: float,
             time_sign: float, window: Optional[Window],
             max_step: Optional[float] = None,
             side: Optional[str] = None, tangency_tol: float = 0.0,
             chain: bool = False, stop_at: Optional[float] = None,
             stop_tol: float = 0.0, t_offset: float = 0.0,
             target=None, with_divergence: bool = False) -> SmoothRun:
    """The one smooth-transit loop (see the module docstring).

    A Sigma transit names its half-plane `side`; a section transit names
    its `target` section and collects no samples. Times of legs, touches
    and the terminal count from t_offset; each leg runs on its own time
    budget t_max, so its solve_ivp spans are those of a separate transit.
    Terminal kinds: sigma-cross, tangent-arrival, tangent-exit,
    section-hit, tangent-hit, window-exit, runaway, time-end.
    """
    x, y = float(start[0]), float(start[1])

    def rhs(t, s):
        xs, ys = s[0], s[1]
        v = (time_sign * f.value(xs, ys), time_sign * g.value(xs, ys))
        if with_divergence:
            return v + (time_sign * (f.dx(xs, ys) + g.dy(xs, ys)),)
        return v

    if target is None:
        sgn = _own_sign(side)
        if y * sgn < -1e-9:
            raise ValueError(f"start {start} is not in the {side} half-plane")

        def ev_stop(t, s):
            return s[1]
        ev_stop.terminal = True
        ev_stop.direction = -sgn

        def ev_g(t, s):
            # ninth root: same zeros and signs as g, but bounded flatness, so
            # scipy's bracketing converges even at high-order tangencies
            return np.cbrt(np.cbrt(g.value(s[0], s[1])))
        ev_g.terminal = False
        ev_g.direction = 0
        events = [ev_stop, ev_g]
    else:
        on_line_at_start = abs(target.line_coordinate(x, y)) <= 1e-12

        def ev_stop(t, s):
            return target.line_coordinate(s[0], s[1])
        ev_stop.terminal = 1     # the number of crossings that end a segment
        ev_stop.direction = 0
        events = [ev_stop]
    if window is not None:
        w = window
        pad = 1e-9 * max(w.width, w.y_hi - w.y_lo)

        def ev_end(t, s):
            return min(s[0] - w.x_lo + pad, w.x_hi - s[0] + pad,
                       s[1] - w.y_lo + pad, w.y_hi - s[1] + pad)
        end_kind = "window-exit"
    else:
        def ev_end(t, s):
            return _GUARD_RADIUS - abs(s[0]) - abs(s[1])
        end_kind = "runaway"
    ev_end.terminal = True
    ev_end.direction = -1
    events.append(ev_end)

    legs: List[Arc] = []
    touches: List[Event] = []
    chunks: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    t_leg0 = t_offset   # start time of the current leg
    t_used = 0.0        # time used within the current leg

    def emit(sol, t_stop):
        tt = sol.t[sol.t <= t_stop]
        xy = sol.sol(tt)
        chunks.append((tt + t_used, xy[0], xy[1]))

    def close_leg(t_end: float, xe: float, ye: float) -> None:
        if chunks:
            t_all, x_all, y_all = (np.concatenate(c) for c in zip(*chunks))
        else:   # no segment ran: the leg is its start point
            t_all, x_all, y_all = np.array([0.0]), np.array([x]), np.array([y])
        # the end point is the leg's last sample
        if abs(t_all[-1] - t_end) > 0:
            t_all = np.append(t_all, t_end)
            x_all = np.append(x_all, xe)
            y_all = np.append(y_all, ye)
        legs.append(Arc(side, t_all + t_leg0, x_all, y_all))

    def finish(t_end: float, xe: float, ye: float, kind: str) -> SmoothRun:
        close_leg(t_end, xe, ye)
        return SmoothRun(legs, touches, Event(t_leg0 + t_end, xe, ye, kind))

    def touched(t_touch: float, xt: float, yt: float) -> None:
        touches.append(Event(t_touch + t_leg0, xt, yt, "tangency-touch"))

    if target is None and abs(y) < _NUDGE_FLOOR:
        chunks.append((np.array([0.0]), np.array([x]), np.array([y])))
        x, y, t_used = _nudge_off_sigma(f, g, x, side, time_sign=time_sign)

    for _seg in range(_MAX_SEGMENTS):
        if t_used >= t_max:
            return finish(t_used, x, y, "time-end")
        sol = solve_ivp(rhs, (0.0, t_max - t_used),
                        (x, y, 0.0) if with_divergence else (x, y),
                        method="DOP853", rtol=RTOL, atol=ATOL,
                        max_step=np.inf if max_step is None else max_step,
                        dense_output=True, events=events)
        if sol.status == -1:
            raise StepUnderflow(
                f"integrator failed near ({x}, {y}): {sol.message}")
        t_end_local = sol.t[-1]

        if target is not None:
            for t_e in sol.t_events[0]:
                if on_line_at_start and t_e <= 1e-9:
                    continue
                z = sol.sol(t_e)
                xe, ye = float(z[0]), float(z[1])
                if abs(target.offset_of(xe, ye)) > target.half_width:
                    continue
                fz = time_sign * f.value(xe, ye)
                gz = time_sign * g.value(xe, ye)
                speed = math.hypot(fz, gz)
                trans = abs(fz * (-target.direction[1])
                            + gz * target.direction[0])
                kind = ("section-hit" if speed > 0.0
                        and trans > _TRANSVERSAL_TOL * speed
                        else "tangent-hit")
                return SmoothRun([], [], Event(float(t_e), xe, ye, kind),
                                 float(z[2]) if with_divergence else 0.0)
            if sol.status == 1 and not len(sol.t_events[-1]):
                # a rejected crossing ended the segment: run it again from
                # the same start, past twice as many crossings
                ev_stop.terminal *= 2
                continue
            xe, ye = sol.sol(t_end_local)[:2]
            return SmoothRun([], [], Event(
                float(t_end_local), float(xe), float(ye),
                end_kind if sol.status == 1 else "time-end"))

        # tangential touches strictly inside this segment: g = 0, tiny |y|
        seg_touches: List[Event] = []
        for tg in sol.t_events[1]:
            if tg <= 1e-12 or tg >= t_end_local - 1e-12:
                continue
            xg, yg = sol.sol(tg)
            if abs(yg) <= _TOUCH_TOL and yg * sgn >= -_TOUCH_TOL:
                seg_touches.append(Event(t_used + tg, float(xg), float(yg),
                                         "tangency-touch"))

        terminal_kind = "time-end"
        t_term = t_end_local
        if sol.status == 1:  # a terminal event fired
            terminal_kind = None
            if len(sol.t_events[0]):
                t_term = sol.t_events[0][0]
                terminal_kind = "sigma"
            if len(sol.t_events[-1]):
                t_exit = sol.t_events[-1][0]
                if terminal_kind is None or t_exit < t_term:
                    t_term = t_exit
                    terminal_kind = end_kind

        touch_at = None   # (local time, x) of a touch that ends the leg
        early = [e for e in seg_touches
                 if e.t - t_used < t_term - 1e-12] if chain else []
        if early:
            touch_at = (early[0].t, early[0].x)
            emit(sol, touch_at[0] - t_used)
        else:
            for e in seg_touches:
                if e.t - t_used <= t_term + 1e-12:
                    touched(e.t, e.x, e.y)
            if terminal_kind != "sigma":
                emit(sol, t_term)
                xe, ye = sol.sol(t_term)
                return finish(t_used + t_term, float(xe), float(ye),
                              terminal_kind)

            # Sigma contact: polish, then classify transversal vs tangential
            t_c = t_term
            for _ in range(3):
                xc, yc = sol.sol(t_c)
                gy = time_sign * g.value(float(xc), float(yc))
                if abs(gy) < 1e-300 or abs(yc) <= 1e-13:
                    break
                t_c = t_c - yc / gy
                t_c = min(max(t_c, 0.0), t_end_local)
            xc, yc = sol.sol(t_c)
            xc, yc = float(xc), float(yc)
            emit(sol, t_c)
            if abs(g.value(xc, 0.0)) > tangency_tol:
                return finish(t_used + t_c, xc, 0.0, "sigma-cross")
            if chain:
                touch_at = (t_used + t_c, xc)
            else:
                touched(t_used + t_c, xc, 0.0)
                try:
                    x, y, dt = _nudge_off_sigma(f, g, xc, side,
                                                time_sign=time_sign)
                except AmbiguousTangency:
                    return finish(t_used + t_c, xc, 0.0, "tangent-exit")
                t_used += t_c + dt
                continue

        # graze chaining: the touch ends this leg; stop there, or restart
        # the flow from the touch point in a new leg with a fresh budget
        t_touch, x_touch = touch_at
        touched(t_touch, x_touch, 0.0)
        if stop_at is not None and abs(x_touch - stop_at) <= stop_tol:
            return finish(t_touch, x_touch, 0.0, "tangent-arrival")
        close_leg(t_touch, x_touch, 0.0)
        t_leg0 = t_leg0 + t_touch
        chunks = [(np.array([0.0]), np.array([x_touch]), np.array([0.0]))]
        x, y, t_used = _nudge_off_sigma(f, g, x_touch, side,
                                        time_sign=time_sign)
    raise AmbiguousTangency("too many tangential contacts in one transit")


def integrate_smooth(f, g, start: Tuple[float, float], side: str, *,
                     t_max: float, window: Optional[Window] = None,
                     time_sign: float = 1.0,
                     tangency_tol: float = 1e-7,
                     chain: bool = False,
                     stop_at: Optional[float] = None,
                     stop_tol: float = 1e-6,
                     t_offset: float = 0.0,
                     max_step: Optional[float] = None) -> SmoothRun:
    """One smooth transit in a single half-plane, with Sigma event handling.

    Returns the legs, all tangential touch events and the terminal event,
    one of: sigma-cross, tangent-arrival (graze chaining reached stop_at),
    tangent-exit (tangential departure from the half-plane), window-exit,
    runaway (no window given), time-end.

    With chain=True every touch ends a leg and the flow restarts from the
    touch point on Sigma; the transit ends at the first touch within
    stop_tol of stop_at, when one is given. Times count from t_offset.

    Event checks only see step endpoints, so a brief dip below Sigma can be
    strided over by a large accepted step; pass max_step to bound the step
    length when such shallow excursions must be caught.
    """
    return _transit(f, g, start, side=side, t_max=t_max, window=window,
                    time_sign=time_sign, tangency_tol=tangency_tol,
                    chain=chain, stop_at=stop_at, stop_tol=stop_tol,
                    t_offset=t_offset, max_step=max_step)


def sliding_arc(sys: PwsSystem, x_start: float, *, t_max: float,
                time_sign: float = 1.0,
                x_stop: Optional[float] = None) -> Tuple[np.ndarray, np.ndarray, Event]:
    """Integrate the sliding field from a point inside a sliding segment.

    Stops at the segment boundary (h -> 0), a window edge, the time budget,
    a pseudo-equilibrium (the sliding speed collapses below 1e-9), or --
    when x_stop is given -- at the prescribed abscissa.
    Returns (t, x, terminal_event); y is identically 0 on the arc.
    """
    w = sys.window

    def rhs(t, s):
        try:
            return (time_sign * sliding_field(sys, float(s[0])),)
        except (NotSliding, DegenerateDenominator):
            return (0.0,)

    def ev_boundary(t, s):
        return h_value(sys, float(s[0]))
    ev_boundary.terminal = True
    ev_boundary.direction = 1

    def ev_exit(t, s):
        return min(s[0] - w.x_lo, w.x_hi - s[0])
    ev_exit.terminal = True
    ev_exit.direction = -1

    events = [ev_boundary, ev_exit]
    if x_stop is not None:
        def ev_target(t, s):
            return s[0] - x_stop
        ev_target.terminal = True
        ev_target.direction = 0
        events.append(ev_target)

    sol = solve_ivp(rhs, (0.0, t_max), (x_start,), method="DOP853",
                    rtol=RTOL, atol=ATOL, dense_output=True,
                    events=events)
    if sol.status == -1:
        raise StepUnderflow(f"sliding integration failed: {sol.message}")
    ts = sol.t
    xs = sol.y[0]
    x_end = float(xs[-1])
    if sol.status == 1:
        if x_stop is not None and len(sol.t_events[2]):
            t_b = float(sol.t_events[2][0])
            return ts, xs, Event(t_b, float(x_stop), 0.0, "target-reached")
        if len(sol.t_events[0]):
            t_b = float(sol.t_events[0][0])
            x_b = float(sol.sol(t_b)[0])
            return ts, xs, Event(t_b, x_b, 0.0, "sliding-boundary")
        t_b = float(sol.t_events[1][0])
        x_b = float(sol.sol(t_b)[0])
        return ts, xs, Event(t_b, x_b, 0.0, "window-exit")
    try:
        speed = abs(sliding_field(sys, x_end))
    except (NotSliding, DegenerateDenominator):
        speed = 0.0
    if speed <= 1e-9:
        return ts, xs, Event(float(ts[-1]), x_end, 0.0, "pseudo-equilibrium")
    return ts, xs, Event(float(ts[-1]), x_end, 0.0, "time-end")


@dataclass
class StepDecision:
    action: str          # 'cross' | 'slide' | 'continue' | 'stop'
    side: Optional[str]  # target side for 'cross'/'continue'


def step_filippov(sys: PwsSystem, x: float, arriving_from: Optional[str],
                  *, time_sign: float = 1.0) -> StepDecision:
    """Deterministic continuation at a Sigma point.

    arriving_from is the half-plane the orbit came from (None when starting
    fresh on Sigma). Uses the sign pattern of (g+, g-) at x with the
    system's tangency tolerance; raises AmbiguousTangency when the signs
    sit below resolution in a conflicting pattern. time_sign < 0 analyses
    the reversed flow, so crossings connect in the backward direction.
    """
    gp = time_sign * sys.g_plus.value(x, 0.0)
    gm = time_sign * sys.g_minus.value(x, 0.0)
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
                  t_max: float, direction: str = "forward") -> Trajectory:
    """Chain smooth and sliding arcs under the default Filippov policy."""
    time_sign = 1.0 if direction == "forward" else -1.0
    x, y = float(start[0]), float(start[1])
    arcs: List[Arc] = []
    events: List[Event] = []
    t_used = 0.0
    w = sys.window

    side: Optional[str]
    if abs(y) > _NUDGE_FLOOR:
        side = "upper" if y > 0 else "lower"
        pending = ("smooth", side)
    else:
        dec = step_filippov(sys, x, None, time_sign=time_sign)
        if dec.action == "slide":
            pending = ("slide", None)
        else:
            pending = ("smooth", dec.side)

    while len(arcs) < _MAX_ARCS and t_used < t_max:
        if pending[0] == "smooth":
            side = pending[1]
            f, g = sys.side(side)
            run = integrate_smooth(f, g, (x, y), side,
                                   t_max=t_max - t_used, window=w,
                                   time_sign=time_sign,
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
            dec = step_filippov(sys, x, side, time_sign=time_sign)
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
            ts, xs, term = sliding_arc(sys, x, t_max=t_max - t_used,
                                       time_sign=time_sign)
            arcs.append(Arc("sliding", ts + t_used, xs, np.zeros_like(xs)))
            events.append(Event(term.t + t_used, term.x, 0.0, term.kind))
            t_used += term.t
            x, y = term.x, 0.0
            if term.kind in ("window-exit", "time-end", "pseudo-equilibrium"):
                break
            # boundary tangent point: decide takeoff/cross
            dec = step_filippov(sys, x, None, time_sign=time_sign)
            if dec.action in ("cross", "continue"):
                events.append(Event(t_used, x, 0.0, "sliding-exit"))
                pending = ("smooth", dec.side)
            else:
                break
    return Trajectory(arcs, events, sys, direction)


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
