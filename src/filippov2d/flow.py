"""Filippov flows for two-zone systems: smooth arcs, Sigma events, sliding.

Every transit takes its system: the fields of the side it flows, the
system's window and a leg budget of 6 * width + 30 time units of that
window. Only ``integrate_pws`` passes another budget (its remaining time);
the crossing-cycle witness caps its return at its seed by flying it on a
system whose window ends there.

Every smooth arc is integrated by one kernel, ``_transit``: a loop over the
accepted steps of a ``numerics.DOP853`` stepper. After each step it checks
a fixed set of stops from the step's ends and the slopes the stepper
already holds there (FSAL), each read once as Python floats:

* exit lines: Sigma (a transit in one half-plane, ``integrate_smooth``)
  and the window padded by 1e-9 of its larger side;
* a vertical line x = x_at (``maps._flow_to_section``, upper field),
  crossed either way: the first crossing other than the start point ends
  the transit (as a tangent hit when not transversal);
* turns of y (g changes sign, or the slope of the step's cubic Hermite
  interpolant does at one of 33 samples): a turn toward Sigma whose
  height, integrated onto its abscissa, is within 1e-8 is a touch, a
  graze of Sigma; one beyond it is a dip;
* the time budget.

Only a step where one may fire builds the dense output, to locate the
earliest stop on the step polynomial. Once a line fires every line is
searched, since a step may cross one and come back; Sigma only when it
fired or y dipped across it, as a turn that stays off Sigma crosses
nothing. The 33-point scan of a line stops at its first root, which is
all a Sigma or window line reads; a section reads every root. The search
runs on Python floats with the float operations of numpy's ``polyval``
and ``polyder``, and of a roll-and-subtract expansion of the dense
output, in their order (Horner's scheme unrolled, y' padded to its 8
coefficients with a zero, and the expansion generated once as
straight-line code by fieldexpr.generated_fn): it gives their values
bit for bit.
Two exact early exits skip a scan whose answer is already known: the turn
test when the Hermite slope's constant term outweighs the other two, and a
line's 33-point scan when the polynomial's constant term outweighs the sum
of the others' magnitudes, so that no sample on [0, 1] can be negative.

A transversal stop on a line is then landed: the step is integrated again
to the polynomial's estimate, and a Henon step (Physica D 5, 1982) in the
line coordinate s, dz/ds = F / (F.n), finishes on the line, carrying the
time; the interpolant's error never reaches a reported point. Tangential
contacts keep the polynomial's root: the orbit flies past them, or with
graze chaining each ends a leg, one ``Arc`` per leg, and the flow
restarts from (x, 0) until one lands within a fixed 1e-6 in x of
``stop_at`` (a tangent arrival).

A transit evaluates its side's field through one callable (x, y) -> (f, g)
with Python floats, which the system makes once and keeps
(``PwsSystem.side_fn``, the one memo of a side function): expression and
sheared sides compile their pair into one function (``side_with``), any
other pair to a call of each field's ``value`` (its one reader); Sigma
values are read through ``PwsSystem.at_sigma``. The stepper calls the
side itself (the fields are autonomous, ``numerics``): a forward transit
hands that function to DOP853 as it is, and a backward one the side's
negation (-f, -g), generated and kept the same way.

Sliding arcs step the scalar Filippov field along Sigma on the same
stepper and stop at sliding-region boundaries (tangent points), at window
exits, at a given exit abscissa (sliding-exit), or when the sliding speed
collapses (pseudo-equilibrium).

Every entry point returns one record of a flown path, a Trajectory: its
arcs in order and its events in time order, the last being its terminal
(integrate_smooth, a section transit, sliding_arc and integrate_pws
alike; a section transit keeps no arc). Times count from the t_offset a
transit or sliding arc is given.

Tolerances are fixed contracts, not options: every DOP853 integration,
steps and landings alike, runs at rtol = RTOL = 1e-10 and atol = ATOL =
1e-12 with steps of its own choosing (the nudge off Sigma resolves |y|
below the nudge floor with atol = 1e-2 * ATOL). loops.CLOSURE_TOL and the
counts it certifies rest on these values; nothing widens them.

integrate_pws chains arcs forward in time with a deterministic default
policy, step_filippov (the side the next arc leaves on; None: it slides):

* transversal crossing -> switch half-plane;
* arrival on the boundary of an attracting sliding segment -> slide;
* visible tangential touch -> continue on the same side;
* sliding reaching a boundary tangent point -> take off along a visible
  tangency, cross when the far region is a crossing region.

Forward non-uniqueness (repelling sliding) is resolved by staying on
Sigma; loop-witness builders override the policy with explicit leg plans.
"""

from __future__ import annotations

import math
from typing import List, NamedTuple, Optional, Tuple

from .fieldexpr import generated_fn
from .numerics import DOP853, brentq, solve_ivp
from .system import (PwsSystem, h_value, sliding_field, NotSliding,
                     DegenerateDenominator)


class TransitFailure(RuntimeError):
    """A smooth transit could not deliver what its caller asked for."""


class StepUnderflow(TransitFailure):
    pass


class AmbiguousTangency(TransitFailure):
    pass


class Event(NamedTuple):
    t: float
    x: float
    y: float
    kind: str


class Arc(NamedTuple):
    kind: str                # 'upper' | 'lower' | 'sliding'
    t: Tuple[float, ...]     # the samples' times, increasing
    x: Tuple[float, ...]     # and their points (x, y)
    y: Tuple[float, ...]

    def start(self) -> Tuple[float, float]:
        return self.x[0], self.y[0]

    def end(self) -> Tuple[float, float]:
        return self.x[-1], self.y[-1]


class Trajectory(NamedTuple):
    """A flown path: its arcs in order and its events, the last of which
    is the terminal, the event the path ended with."""

    arcs: List[Arc]
    events: List[Event]

    @property
    def terminal(self) -> Event:
        return self.events[-1]

    def start(self) -> Tuple[float, float]:
        return self.arcs[0].start()

    def end(self) -> Tuple[float, float]:
        return self.arcs[-1].end()

    def touch_events(self) -> List[Event]:
        return [e for e in self.events if e.kind == "tangency-touch"]


RTOL = 1e-10               # every DOP853 integration (module docstring)
ATOL = 1e-12
_NUDGE_FLOOR = 1e-11       # |y| a start on Sigma must clear before a segment
# the nudge's micro-step lengths: 1e-8, then each 4x the last (a power of
# two scales exactly, so these are the floats of repeated h *= 4.0)
_NUDGE_STEPS = tuple(1e-8 * 4.0 ** k for k in range(80))
_TOUCH_TOL = 1e-8          # |y| of a g-zero inside a step that counts as a touch
_TRANSVERSAL_TOL = 1e-6    # relative normal speed of an accepted section hit
_MAX_CONTACTS = 64         # Sigma contacts that restart one transit
_ARRIVAL_TOL = 1e-6        # x-distance from stop_at of a touch that ends a chain
_GRID = [k / 32 for k in range(33)]   # samples of a step polynomial
_TURN_SLACK = 1.0 + 1e-12  # |c0| above it times |c1| + |c2|: y cannot turn
_MAX_ARCS = 200            # arcs of one integrate_pws trajectory


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
    state = (x0, 0.0)
    for h in _NUDGE_STEPS:
        sol = solve_ivp(rhs, (0.0, h), state, rtol=RTOL, atol=ATOL * 1e-2)
        xe, ye = sol.y[0][-1], sol.y[1][-1]
        if abs(ye) >= _NUDGE_FLOOR:
            if ye * sgn < 0:
                raise AmbiguousTangency(
                    f"orbit from ({x0}, 0) leaves into the other half-plane")
            return xe, ye, h
    raise AmbiguousTangency(f"orbit from ({x0}, 0) will not leave Sigma")


def _run_to(fun, s0: float, w0, s1: float) -> List[float]:
    """Integrate dw/ds = fun(*w) from (s0, w0) to s1; one step first."""
    solver = DOP853(fun, s0, w0, s1, rtol=RTOL, atol=ATOL,
                    first_step=abs(s1 - s0) or None)
    while solver.status == "running":
        if message := solver.step():
            raise StepUnderflow(
                f"integrator failed near {solver.y}: {message}")
    return solver.y


def _by_zero(values: Tuple[float, ...], zero: float) -> Tuple[float, ...]:
    """Each value divided by a signed zero as IEEE division (and numpy)
    does it, where Python raises ZeroDivisionError: an inf signed by both
    signs, or nan for 0 / 0 and nan / 0."""
    inf = math.copysign(math.inf, zero)
    return tuple(v * inf for v in values)


def _land(rhs, t_a: float, z_a: List[float], t_e: float,
          line: Tuple[float, float, float]) -> Tuple[float, List[float]]:
    """Land a step from (t_a, z_a) on the line n1 x + n2 y = level near
    time t_e: integrate again to t_e, then a Henon step (Physica D 5, 1982)
    in the line coordinate s, dz/ds = F / (F.n) and dt/ds = 1 / (F.n).
    Returns the landing time and state."""
    n1, n2, level = line

    def fun(x, y, t):
        f, g = rhs(x, y)
        d = n1 * f + n2 * g
        if d == 0.0:
            return _by_zero((f, g, 1.0), d)
        return f / d, g / d, 1.0 / d
    z = _run_to(rhs, t_a, z_a, t_e)
    w = _run_to(fun, n1 * z[0] + n2 * z[1] - level, z + [t_e], 0.0)
    return float(w[-1]), w[:-1]


def _roll_source() -> Tuple[str, str]:
    """Straight-line body and return value of fn(r0, ..., r6, y): the 8
    power-series coefficients of one component's DenseOutput rows r and
    y_old, by a roll-and-subtract over 8 coefficients (c[0] += row, then
    the roll; every odd row also subtracts the roll from c), once per row
    from the last, then c[0] += y. Every float operation of it is
    written, in its order, 0.0 + r included; only a - 0.0, which is a
    bit for bit, is left out."""
    lines, c = [], ["0.0"] * 8

    def op(a: str, sign: str, b: str) -> str:
        if b == "0.0":   # only ever subtracted
            return a
        lines.append(f"c{len(lines)} = {a} {sign} {b}\n")
        return f"c{len(lines) - 1}"
    for i in range(7):
        c[0] = op(c[0], "+", f"r{6 - i}")
        shifted = [c[7]] + c[:7]
        c = shifted if i % 2 == 0 else [op(a, "-", b)
                                        for a, b in zip(c, shifted)]
    c[0] = op(c[0], "+", "y")
    return "".join(lines), f"[{', '.join(c)}]"


_expand = generated_fn("r0, r1, r2, r3, r4, r5, r6, y", *_roll_source(), {})


def _step_poly(dense) -> List[List[float]]:
    """A DOP853 step's interpolant as power-series coefficients in
    tau = (t - t_old) / h: 8 floats per state component, lowest first.
    DenseOutput's nested tau / 1 - tau form is expanded with the float
    operations of a roll-and-subtract over an (8, n) array, in its order
    (_roll_source)."""
    return [_expand(*rows, y_old) for rows, y_old in zip(dense.F,
                                                         dense.y_old)]


def _horner(c: List[float], u: float) -> float:
    """c[0] + c[1] u + ... + c[7] u^7 at u: the float operations of
    numpy's ``polyval`` (Horner's scheme), in its order, unrolled."""
    c0, c1, c2, c3, c4, c5, c6, c7 = c
    return c0 + (c1 + (c2 + (c3 + (c4 + (c5 + (c6 + (
        c7 + u * 0.0) * u) * u) * u) * u) * u) * u) * u


def _root(fun, a: float, b: float) -> float:
    try:   # Brent's method creeps at high-order zeros: room to bisect
        return brentq(fun, a, b, xtol=1e-15, rtol=1e-15, maxiter=400,
                      disp=False)
    except ValueError:   # rounding lost the sign change at b
        return b


def _exits(coef: List[float], lo: float, hi: float,
           first: bool = False) -> List[float]:
    """Where a step polynomial goes from >= 0 to < 0 on [lo, hi], in order;
    with first, only the first: the scan stops at the root it returns.

    No scan when coef[0] outweighs the sum of the other coefficients'
    magnitudes: for 0 <= tau <= 1 every Horner value then stays positive,
    rounding included."""
    if coef[0] > (1.0 + 1e-13) * sum(abs(a) for a in coef[1:]):
        return []
    out = []
    u_a = lo + (hi - lo) * _GRID[0]
    v_a = _horner(coef, u_a)
    for tau in _GRID[1:]:
        u_b = lo + (hi - lo) * tau
        v_b = _horner(coef, u_b)
        if v_a >= 0.0 > v_b:
            out.append(_root(lambda u: _horner(coef, u), u_a, u_b))
            if first:
                break
        u_a, v_a = u_b, v_b
    return out


def _turns(c0: float, c1: float, c2: float) -> bool:
    """Whether c0 * (c0 + c1 tau + c2 tau^2) < 0 at a tau of _GRID, with
    the float operations of ``_horner``; _transit skips it when |c0| tops
    _TURN_SLACK (|c1| + |c2|), as the quadratic keeps c0's sign on [0, 1]."""
    for tau in _GRID:
        if c0 * (c0 + (c1 + (c2 + tau * 0.0) * tau) * tau) < 0.0:
            return True
    return False


def _minima(c: List[List[float]], sgn: float, slope) -> List[float]:
    """Where sgn * y has a minimum along a step polynomial c: brackets from
    its y', then Brent's method on slope(x, y), the field's sgn * y'."""
    cx, cy = c

    def slope_at(u):
        return slope(_horner(cx, u), _horner(cy, u))
    dy = [j * cy[j] for j in range(1, 8)] + [0.0]   # y', padded to 8
    v = [sgn * _horner(dy, tau) for tau in _GRID]
    out = []
    for i in range(len(v) - 1):
        if not v[i] < 0.0 <= v[i + 1]:
            continue
        for a, b in ((i, i + 1), (max(i - 1, 0), min(i + 2, len(v) - 1))):
            if slope_at(_GRID[a]) < 0.0 <= slope_at(_GRID[b]):
                out.append(_root(slope_at, _GRID[a], _GRID[b]))
                break
    return out


def _fired(exits, box, x_at: Optional[float], z_a, z_b) -> list:
    """The exit lines (line, kind) with n1 x + n2 y < level at z_b, not at z_a:
    none, at one test, if z_b is in box and strictly on z_a's side of x_at."""
    (xa, ya), (xb, yb) = z_a, z_b
    if box[0] <= xb <= box[1] and box[2] <= yb <= box[3] and (
            x_at is None or (xa - x_at) * (xb - x_at) > 0.0):
        return []
    return [(line, kind) for line, kind in exits
            if line[0] * xb + line[1] * yb < line[2]
            <= line[0] * xa + line[1] * ya]


def _leg_budget(sys: PwsSystem) -> float:
    """Time budget of one leg (one transit) inside the system's window."""
    return 6.0 * sys.window.width + 30.0


def _transit(sys: PwsSystem, side: str, start: Tuple[float, float], *,
             t_max: Optional[float] = None, time_sign: float = 1.0,
             tangency_tol: float = 0.0, chain: bool = False,
             stop_at: Optional[float] = None, t_offset: float = 0.0,
             x_at: Optional[float] = None) -> Trajectory:
    """The one smooth-transit loop (module docstring) on the field of
    `side`: a Sigma transit in that half-plane, or with x_at a transit to
    the vertical line x = x_at. Times count from t_offset; each leg has the
    budget t_max (default: the system's leg budget) and the transit stops
    at the edges of the system's window. Terminal kinds:
    sigma-cross, tangent-arrival, tangent-exit, section-hit, tangent-hit,
    window-exit, time-end."""
    t_max = _leg_budget(sys) if t_max is None else t_max
    w = sys.window
    x, y = float(start[0]), float(start[1])
    # the only field evaluation in a transit, which the stepper calls
    # itself: the side, or backward its negation
    rhs = sys.side_fn(side, time_sign)

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
    # (x_lo, x_hi, y_lo, y_hi) where every axis-aligned non-section line holds
    box = [-math.inf, math.inf, -math.inf, math.inf]
    for (n1, n2, level), kind in exits:
        if kind != "section":
            i = (0 if n1 else 2) + ((n1 or n2) < 0.0)
            box[i] = min(box[i], -level) if i % 2 else max(box[i], level)

    legs, touches = [], []    # touches: every touch of Sigma, in order
    samples = [(0.0, x, y)]   # (leg time, x, y) of the current leg
    t_leg0 = t_offset         # start time of the current leg

    def finish(t_end: float, xe: float, ye: float, kind: str) -> Trajectory:
        if x_at is None:   # a section transit keeps its terminal alone
            close_leg(t_end, xe, ye)
        return Trajectory(legs, touches + [Event(t_leg0 + t_end, xe, ye,
                                                 kind)])

    def close_leg(t_end: float, xe: float, ye: float) -> None:
        if samples[-1][0] != t_end:   # the end point is the leg's last sample
            samples.append((t_end, xe, ye))
        t_all, x_all, y_all = zip(*samples)
        legs.append(Arc(side, tuple(t + t_leg0 for t in t_all), x_all, y_all))

    t = 0.0
    if x_at is None and abs(y) < _NUDGE_FLOOR:
        x, y, t = _nudge_off_sigma(rhs, x, side)
        samples.append((t, x, y))
    z = [x, y]

    for _contact in range(_MAX_CONTACTS):
        if t >= t_max:
            return finish(t, x, y, "time-end")
        solver = DOP853(rhs, t, z, t_max, rtol=RTOL, atol=ATOL)
        t_seg = t + 1e-12   # where touches count: off the restart point
        contact = None   # (leg time, x) of a Sigma contact that restarts
        while contact is None:
            t_a, z_a, f_a = solver.t, solver.y, solver.f
            if message := solver.step():
                raise StepUnderflow(
                    f"integrator failed near {solver.y}: {message}")
            t_b, z_b, h = solver.t, solver.y, solver.t - t_a
            xb, yb = z_b
            fired = _fired(exits, box, x_at, z_a, z_b)
            # y may turn: the slope of its cubic Hermite interpolant (end
            # slopes d0, d1 times the step) changes sign
            dy, d0, d1 = yb - z_a[1], h * f_a[1], h * solver.f[1]
            c1, c2 = 6 * dy - 4 * d0 - 2 * d1, 3 * (d0 + d1 - 2 * dy)
            turned = x_at is None and abs(d0) <= _TURN_SLACK * (
                abs(c1) + abs(c2)) and _turns(d0, c1, c2)
            stops = []   # (tau, kind, line) on the step polynomial c
            if fired or turned:
                c = cx, cy = _step_poly(solver.dense_output())
                lo, dip = 0.0, None
                # y turns toward Sigma in this step: a touch, or a dip
                # across it, judged by y integrated onto the turn's abscissa
                for tau in _minima(c, sgn, lambda x, y: sgn
                                   * rhs(x, y)[1]) if turned else ():
                    x_g = _horner(cx, tau)
                    y_g = _land(rhs, t_a, z_a, t_a + tau * h,
                                (1.0, 0.0, x_g))[1][1] * sgn
                    if abs(y_g) <= _TOUCH_TOL and t_a + tau * h > t_seg:
                        stops.append((tau, "touch", None))
                        lo = tau
                    elif y_g < -_TOUCH_TOL:
                        dip = tau
                        break
                # a line may be crossed and recrossed inside one step, so
                # once one fires every line is searched; Sigma only when it
                # fired or y dipped across it (after the touches, up to the
                # dip): a turn that stays off Sigma is no crossing
                for line, kind in exits if fired or dip is not None else ():
                    crossed = (line, kind) in fired
                    if kind == "sigma" and not crossed and dip is None:
                        continue
                    span = (lo, 1.0 if dip is None else dip) \
                        if kind == "sigma" else (0.0, 1.0)
                    coef = [line[0] * a + line[1] * b
                            for a, b in zip(cx, cy)]
                    coef[0] -= line[2]
                    # only a section reads every root
                    roots = _exits(coef, *span, first=kind != "section")
                    if kind != "section":   # (hi: rounding lost the root)
                        roots = roots or [span[1]] * (
                            crossed or kind == "sigma")
                    stops += [(tau, kind, line) for tau in roots]
                stops.sort(key=lambda s: s[0])

            for tau, kind, line in stops:
                t_e = t_a + tau * h
                px, py = _horner(cx, tau), _horner(cy, tau)
                if kind == "section":
                    # an arrival is not the start point
                    if on_line_at_start and t_e <= 1e-9:
                        continue
                    fz, gz = rhs(px, py)
                    kind = ("section-hit" if abs(fz)
                            > _TRANSVERSAL_TOL * math.hypot(fz, gz)
                            else "tangent-hit")
                elif kind == "sigma" \
                        and abs(rhs(px, 0.0)[1]) > tangency_tol:
                    kind = "sigma-cross"
                if kind == "touch" and not chain:
                    touches.append(Event(t_leg0 + t_e, px, py,
                                         "tangency-touch"))
                elif kind in ("touch", "sigma"):   # a tangential contact
                    contact = (t_e, px)
                    break
                elif kind == "tangent-hit":
                    return finish(t_e, px, py, kind)
                else:   # a transversal stop on a line
                    t_c, z_c = _land(rhs, t_a, z_a, t_e, line)
                    return finish(t_c, float(z_c[0]), 0.0 if kind ==
                                  "sigma-cross" else float(z_c[1]), kind)
            if contact is None:
                samples.append((t_b, xb, yb))
                if solver.status == "finished":
                    return finish(t_b, xb, yb, "time-end")

        # a tangential contact with Sigma: fly on past it, or under graze
        # chaining end the leg there, stop, or restart a new leg from it
        t_touch, x_touch = contact
        touches.append(Event(t_leg0 + t_touch, x_touch, 0.0, "tangency-touch"))
        if chain:
            if stop_at is not None and abs(x_touch - stop_at) <= _ARRIVAL_TOL:
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
        z = [x, y]
    raise AmbiguousTangency("too many tangential contacts in one transit")


def integrate_smooth(sys: PwsSystem, side: str, start: Tuple[float, float],
                     *, t_max: Optional[float] = None,
                     time_sign: float = 1.0,
                     tangency_tol: float = 1e-7,
                     chain: bool = False,
                     stop_at: Optional[float] = None,
                     t_offset: float = 0.0) -> Trajectory:
    """One smooth transit of the `side` field of sys in its half-plane,
    with Sigma event handling, in sys.window with the leg budget unless
    t_max says otherwise.

    Returns its legs as arcs and its events: every tangential touch, then
    the terminal, one of: sigma-cross, tangent-arrival (graze chaining
    reached stop_at; its touch is the event before it), tangent-exit
    (tangential departure from the half-plane), window-exit, time-end.

    With chain=True every touch ends a leg and the flow restarts from the
    touch point on Sigma; the transit ends at the first touch within
    1e-6 of stop_at, when one is given. Times count from t_offset.
    """
    return _transit(sys, side, start, t_max=t_max, time_sign=time_sign,
                    tangency_tol=tangency_tol, chain=chain, stop_at=stop_at,
                    t_offset=t_offset)


def sliding_arc(sys: PwsSystem, x_start: float, *,
                t_max: Optional[float] = None,
                x_stop: Optional[float] = None,
                t_offset: float = 0.0) -> Trajectory:
    """Integrate the sliding field from a point inside a sliding segment.

    Stops at the segment boundary (sliding-boundary: h -> 0), a window
    edge (window-exit), the time budget (default: the system's leg budget;
    time-end, or pseudo-equilibrium where the sliding speed has collapsed
    below 1e-9), or -- when x_stop is given -- at that abscissa
    (sliding-exit). Returns one sliding arc, y identically 0, and its
    terminal event; times count from t_offset.
    """
    w = sys.window
    t_max = _leg_budget(sys) if t_max is None else t_max

    def rhs(x):
        try:
            return (sliding_field(sys, x),)
        except (NotSliding, DegenerateDenominator):
            return (0.0,)

    # stop functions of x, each >= 0 until its stop fires
    stops = [(lambda x: -h_value(sys, x), "sliding-boundary"),
             (lambda x: x - w.x_lo, "window-exit"),
             (lambda x: w.x_hi - x, "window-exit")]
    if x_stop is not None:
        ahead = 1.0 if x_stop >= x_start else -1.0
        stops.append((lambda x: ahead * (x_stop - x), "sliding-exit"))
    solver = DOP853(rhs, 0.0, [x_start], t_max, rtol=RTOL, atol=ATOL)
    ts, xs, kind = [0.0], [float(x_start)], "time-end"
    while solver.status == "running" and kind == "time-end":
        t_a, x_a = solver.t, float(solver.y[0])
        if message := solver.step():
            raise StepUnderflow(
                f"integrator failed near {solver.y}: {message}")
        t_b, x_b = solver.t, float(solver.y[0])
        fired = [(fn, kind) for fn, kind in stops if fn(x_b) < 0.0 <= fn(x_a)]
        if fired:
            dense = solver.dense_output()
            t_b, kind = min((_root(lambda t: fn(dense(t)[0]), t_a, t_b), kind)
                            for fn, kind in fired)
            x_b = x_stop if kind == "sliding-exit" else float(dense(t_b)[0])
        ts.append(t_b)
        xs.append(x_b)
    if kind == "time-end" and abs(rhs(xs[-1])[0]) <= 1e-9:
        kind = "pseudo-equilibrium"
    return Trajectory([Arc("sliding", tuple(t + t_offset for t in ts),
                           tuple(xs), (0.0,) * len(xs))],
                      [Event(ts[-1] + t_offset, xs[-1], 0.0, kind)])


def step_filippov(sys: PwsSystem, x: float,
                  arriving_from: Optional[str]) -> Optional[str]:
    """Deterministic continuation at a Sigma point: the side the orbit
    leaves on, or None when it slides.

    arriving_from is the half-plane the orbit came from (None when starting
    fresh on Sigma). Uses the sign pattern of (g+, g-) at x with the
    system's tangency tolerance; raises AmbiguousTangency when both sides
    are tangent. Where one side is tangent, an orbit from the other side
    stays on the tangent side; any other crosses where the far field enters
    its half-plane, and else slides (arriving from the tangent side) or
    takes off along the tangent side (a fresh start).
    """
    _, gp, _, gm = sys.at_sigma(x)
    tol_p = 1e-7 * sys.sigma_g_scale("upper")
    tol_m = 1e-7 * sys.sigma_g_scale("lower")
    p_zero = abs(gp) <= tol_p
    m_zero = abs(gm) <= tol_m

    if p_zero and m_zero:
        raise AmbiguousTangency(f"double tangency at x={x}")

    if not p_zero and not m_zero:
        if gp * gm > 0:  # crossing region
            return "upper" if gp > 0 else "lower"
        return None   # sliding region (attracting or repelling)

    tangent_side = "upper" if p_zero else "lower"
    other = "lower" if p_zero else "upper"
    g_other = gm if p_zero else gp
    other_enters_own = (g_other < 0) if other == "lower" else (g_other > 0)
    if arriving_from == other:
        return tangent_side
    if other_enters_own:
        return other
    return None if arriving_from == tangent_side else tangent_side


def integrate_pws(sys: PwsSystem, start: Tuple[float, float], *,
                  t_max: float) -> Trajectory:
    """Chain smooth and sliding arcs under the default Filippov policy."""
    x, y = float(start[0]), float(start[1])
    arcs: List[Arc] = []
    events: List[Event] = []
    t_used = 0.0

    # the side of the next smooth arc; None: the next arc slides
    side: Optional[str]
    if abs(y) > _NUDGE_FLOOR:
        side = "upper" if y > 0 else "lower"
    else:
        side = step_filippov(sys, x, None)

    while len(arcs) < _MAX_ARCS and t_used < t_max:
        if side is not None:
            run = integrate_smooth(sys, side, (x, y), t_max=t_max - t_used,
                                   tangency_tol=1e-7 * sys.sigma_g_scale(side),
                                   t_offset=t_used)
        else:
            run = sliding_arc(sys, x, t_max=t_max - t_used, t_offset=t_used)
        arcs += run.arcs
        events += run.events
        term = run.terminal
        t_used, x, y = term.t, term.x, term.y
        if term.kind in ("window-exit", "time-end", "pseudo-equilibrium"):
            break
        if side is None:
            # boundary tangent point: take off or cross, or stay stuck
            side = step_filippov(sys, x, None)
            if side is None:
                break
            events.append(Event(t_used, x, 0.0, "sliding-exit"))
        else:
            # Sigma contact: transversal or tangential exit
            side = step_filippov(sys, x, side)
            if side is None:
                events.append(Event(t_used, x, 0.0, "sliding-entry"))
        y = 0.0
    return Trajectory(arcs, events)
