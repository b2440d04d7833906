"""Filippov flows for two-zone systems: smooth arcs, Sigma events, sliding.

Smooth arcs are integrated with DOP853 (dense output). Sigma contacts are
located by the solver's event machinery on the dense interpolant and then
polished with a Newton step so the reported contact satisfies |y| <= 1e-12.
Transversal contacts terminate an arc; tangential contacts (|g| below the
tangency tolerance at the contact) are recorded as touch events and the arc
continues on its own side when the orbit re-enters it.

Sliding arcs integrate the scalar Filippov field along Sigma and stop at
sliding-region boundaries (tangent points), at window exits, or when the
sliding speed collapses (pseudo-equilibrium).

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
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np
from scipy.integrate import solve_ivp

from .system import (PwsSystem, Window, h_value, sliding_field, NotSliding,
                     DegenerateDenominator)


class StepUnderflow(RuntimeError):
    pass


class AmbiguousTangency(RuntimeError):
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

    def terminal_event(self) -> Optional[Event]:
        return self.events[-1] if self.events else None

    def touch_events(self) -> List[Event]:
        return [e for e in self.events if e.kind == "tangency-touch"]


DEFAULT_RTOL = 1e-10
DEFAULT_ATOL = 1e-12
_NUDGE_FLOOR = 1e-11


@dataclass
class SmoothRun:
    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    touches: List[Event]
    terminal: Event


def _own_sign(side: str) -> float:
    if side == "upper":
        return 1.0
    if side == "lower":
        return -1.0
    raise ValueError("side must be 'upper' or 'lower'")


def _nudge_off_sigma(f, g, x0: float, side: str, *, time_sign: float = 1.0,
                     rtol: float = DEFAULT_RTOL, atol: float = DEFAULT_ATOL,
                     t_hint: float = 1e-8,
                     floor: float = _NUDGE_FLOOR) -> Tuple[float, float, float]:
    """March a Sigma start strictly into its own half-plane.

    Grows the micro-step until |y| clears the nudge floor; raises
    AmbiguousTangency when the orbit insists on the other side (the caller
    asked for an impossible continuation) or cannot leave Sigma at all.
    """
    sgn = _own_sign(side)
    rhs = lambda t, s: (time_sign * f.value(s[0], s[1]),
                        time_sign * g.value(s[0], s[1]))
    h = t_hint
    state = (x0, 0.0)
    t_used = 0.0
    for _ in range(80):
        sol = solve_ivp(rhs, (0.0, h), state, method="DOP853",
                        rtol=rtol, atol=atol * 1e-2)
        xe, ye = sol.y[0, -1], sol.y[1, -1]
        if abs(ye) >= floor:
            if ye * sgn < 0:
                raise AmbiguousTangency(
                    f"orbit from ({x0}, 0) leaves into the other half-plane")
            return float(xe), float(ye), t_used + h
        h *= 4.0
    raise AmbiguousTangency(f"orbit from ({x0}, 0) will not leave Sigma")


def integrate_smooth(f, g, start: Tuple[float, float], side: str, *,
                     t_max: float, window: Optional[Window] = None,
                     time_sign: float = 1.0,
                     tangency_tol: float = 1e-7,
                     touch_tol: float = 1e-8,
                     stop_on_touch: bool = False,
                     rtol: float = DEFAULT_RTOL, atol: float = DEFAULT_ATOL,
                     nudge_floor: float = _NUDGE_FLOOR,
                     max_step: Optional[float] = None,
                     max_segments: int = 64) -> SmoothRun:
    """One smooth arc in a single half-plane, with Sigma event handling.

    Returns the chained samples, all tangential touch events, and the
    terminal event, one of: sigma-cross, tangent-arrival (when
    stop_on_touch), tangent-exit (tangential departure from the
    half-plane), window-exit, time-end.

    Event checks only see step endpoints, so a brief dip below Sigma can be
    strided over by a large accepted step; pass max_step to bound the step
    length when such shallow excursions must be caught.
    """
    sgn = _own_sign(side)
    x0, y0 = float(start[0]), float(start[1])
    if y0 * sgn < -1e-9:
        raise ValueError(f"start {start} is not in the {side} half-plane")

    rhs = lambda t, s: (time_sign * f.value(s[0], s[1]),
                        time_sign * g.value(s[0], s[1]))

    def ev_sigma(t, s):
        return s[1]
    ev_sigma.terminal = True
    ev_sigma.direction = -sgn

    def ev_g(t, s):
        # ninth root: same zeros and signs as g, but bounded flatness, so
        # scipy's bracketing converges even at high-order tangencies
        return np.cbrt(np.cbrt(g.value(s[0], s[1])))
    ev_g.terminal = False
    ev_g.direction = 0

    events: List[Callable] = [ev_sigma, ev_g]
    if window is not None:
        w = window
        pad = 1e-9 * max(w.width, w.y_hi - w.y_lo)

        def ev_exit(t, s, w=w, pad=pad):
            return min(s[0] - w.x_lo + pad, w.x_hi - s[0] + pad,
                       s[1] - w.y_lo + pad, w.y_hi - s[1] + pad)
        ev_exit.terminal = True
        ev_exit.direction = -1
        events.append(ev_exit)

    ts_chunks: List[np.ndarray] = []
    xs_chunks: List[np.ndarray] = []
    ys_chunks: List[np.ndarray] = []
    touches: List[Event] = []
    t_used = 0.0
    x_cur, y_cur = x0, y0

    def emit(sol, t_stop=None):
        tt = sol.t if t_stop is None else sol.t[sol.t <= t_stop]
        ts_chunks.append(tt + t_used)
        xs_chunks.append(sol.sol(tt)[0] if len(tt) else np.array([]))
        ys_chunks.append(sol.sol(tt)[1] if len(tt) else np.array([]))

    def pack(terminal: Event) -> SmoothRun:
        if ts_chunks:
            t_all = np.concatenate(ts_chunks)
            x_all = np.concatenate(xs_chunks)
            y_all = np.concatenate(ys_chunks)
        else:
            t_all = np.array([0.0])
            x_all = np.array([x0])
            y_all = np.array([y0])
        # ensure the terminal point is the last sample
        if abs(t_all[-1] - terminal.t) > 0:
            t_all = np.append(t_all, terminal.t)
            x_all = np.append(x_all, terminal.x)
            y_all = np.append(y_all, terminal.y)
        return SmoothRun(t_all, x_all, y_all, touches, terminal)

    # leave Sigma first if we start on it
    if abs(y_cur) < nudge_floor:
        ts_chunks.append(np.array([0.0]))
        xs_chunks.append(np.array([x_cur]))
        ys_chunks.append(np.array([y_cur]))
        x_cur, y_cur, dt = _nudge_off_sigma(f, g, x_cur, side,
                                            time_sign=time_sign,
                                            rtol=rtol, atol=atol,
                                            floor=nudge_floor)
        t_used += dt

    for _seg in range(max_segments):
        if t_used >= t_max:
            return pack(Event(t_used, x_cur, y_cur, "time-end"))
        sol = solve_ivp(rhs, (0.0, t_max - t_used), (x_cur, y_cur),
                        method="DOP853", rtol=rtol, atol=atol,
                        max_step=np.inf if max_step is None else max_step,
                        dense_output=True, events=events)
        if sol.status == -1:
            raise StepUnderflow(
                f"integrator failed near ({x_cur}, {y_cur}): {sol.message}")

        t_end_local = sol.t[-1]

        # tangential touches strictly inside this segment: g = 0 with tiny |y|
        seg_touches: List[Event] = []
        for tg in sol.t_events[1]:
            if tg <= 1e-12 or tg >= t_end_local - 1e-12:
                continue
            xg, yg = sol.sol(tg)
            if abs(yg) <= touch_tol and yg * sgn >= -touch_tol:
                seg_touches.append(Event(t_used + tg, float(xg), float(yg),
                                         "tangency-touch"))

        terminal_kind = None
        t_term = t_end_local
        if sol.status == 1:  # a terminal event fired
            if len(sol.t_events[0]):
                t_term = sol.t_events[0][0]
                terminal_kind = "sigma"
            if window is not None and len(sol.t_events[-1]):
                t_exit = sol.t_events[-1][0]
                if terminal_kind is None or t_exit < t_term:
                    t_term = t_exit
                    terminal_kind = "window-exit"
        else:
            terminal_kind = "time-end"

        if stop_on_touch:
            early = [e for e in seg_touches if e.t - t_used < t_term - 1e-12]
            if early:
                first = early[0]
                emit(sol, t_stop=first.t - t_used)
                touches.append(first)
                return pack(Event(first.t, first.x, 0.0, "tangent-arrival"))

        touches.extend(e for e in seg_touches if e.t - t_used <= t_term + 1e-12)

        if terminal_kind == "time-end":
            emit(sol)
            xe, ye = sol.sol(t_end_local)
            return pack(Event(t_used + t_end_local, float(xe), float(ye),
                              "time-end"))
        if terminal_kind == "window-exit":
            emit(sol, t_stop=t_term)
            xe, ye = sol.sol(t_term)
            return pack(Event(t_used + t_term, float(xe), float(ye),
                              "window-exit"))

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
        g_here = g.value(xc, 0.0)
        emit(sol, t_stop=t_c)
        if abs(g_here) > tangency_tol:
            return pack(Event(t_used + t_c, xc, 0.0, "sigma-cross"))

        # tangential contact at Sigma level
        touch = Event(t_used + t_c, xc, 0.0, "tangency-touch")
        touches.append(touch)
        if stop_on_touch:
            return pack(Event(t_used + t_c, xc, 0.0, "tangent-arrival"))
        try:
            x_cur, y_cur, dt = _nudge_off_sigma(f, g, xc, side,
                                                time_sign=time_sign,
                                                rtol=rtol, atol=atol,
                                                floor=nudge_floor)
        except AmbiguousTangency:
            return pack(Event(t_used + t_c, xc, 0.0, "tangent-exit"))
        t_used += t_c + dt
    raise AmbiguousTangency("too many tangential contacts in one arc")


def sliding_arc(sys: PwsSystem, x_start: float, *, t_max: float,
                time_sign: float = 1.0, rtol: float = DEFAULT_RTOL,
                atol: float = DEFAULT_ATOL,
                peq_tol: float = 1e-9,
                x_stop: Optional[float] = None) -> Tuple[np.ndarray, np.ndarray, Event]:
    """Integrate the sliding field from a point inside a sliding segment.

    Stops at the segment boundary (h -> 0), a window edge, the time budget,
    a pseudo-equilibrium (the sliding speed collapses below peq_tol), or --
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
                    rtol=rtol, atol=atol, dense_output=True,
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
    if speed <= peq_tol:
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
                  t_max: float, direction: str = "forward",
                  tangency_tol: Optional[float] = None,
                  touch_tol: float = 1e-8,
                  rtol: float = DEFAULT_RTOL, atol: float = DEFAULT_ATOL,
                  nudge_floor: float = _NUDGE_FLOOR,
                  max_arcs: int = 200) -> Trajectory:
    """Chain smooth and sliding arcs under the default Filippov policy."""
    time_sign = 1.0 if direction == "forward" else -1.0
    x, y = float(start[0]), float(start[1])
    arcs: List[Arc] = []
    events: List[Event] = []
    t_used = 0.0
    w = sys.window

    def g_tol(side):
        if tangency_tol is not None:
            return tangency_tol
        return 1e-7 * sys.sigma_g_scale(side)

    side: Optional[str]
    if abs(y) > nudge_floor:
        side = "upper" if y > 0 else "lower"
        pending = ("smooth", side)
    else:
        dec = step_filippov(sys, x, None, time_sign=time_sign)
        if dec.action == "slide":
            pending = ("slide", None)
        else:
            pending = ("smooth", dec.side)

    while len(arcs) < max_arcs and t_used < t_max:
        if pending[0] == "smooth":
            side = pending[1]
            f, g = sys.side(side)
            run = integrate_smooth(f, g, (x, y), side,
                                   t_max=t_max - t_used, window=w,
                                   time_sign=time_sign,
                                   tangency_tol=g_tol(side),
                                   touch_tol=touch_tol,
                                   rtol=rtol, atol=atol,
                                   nudge_floor=nudge_floor)
            arcs.append(Arc(side, run.t + t_used, run.x, run.y))
            for e in run.touches:
                events.append(Event(e.t + t_used, e.x, e.y, e.kind))
            term = run.terminal
            events.append(Event(term.t + t_used, term.x, term.y, term.kind))
            t_used += term.t
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
                                       time_sign=time_sign,
                                       rtol=rtol, atol=atol)
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
