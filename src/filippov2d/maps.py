"""Sections, transition maps, leading coefficients, displacement functions.

A Section is a straight segment: a line through `anchor` with unit direction
`direction`, truncated to offsets |s| <= half_width. transition_map flows a
smooth field from s0.anchor + r*N0 until the orbit crosses the line of s1
inside its acceptance window and reports the arrival offset relative to the
base orbit's arrival, so V(0) = 0 exactly.

Leading coefficients:

* regular case  V1 = (D0/D1) * exp( integral of div along the base orbit ),
  D_i = f*n_y - g*n_x evaluated against section i's direction; D1 uses the
  field at the ARRIVAL point.
* tangent case  V_{m+1} = g^(m)(p0) * n01^{m+1} / ((m+1)! * D1) * exp(...),
  where n01 is the x-component of the (horizontal) departure section.

Signs depend on the section orientations; order/magnitude are the contract
and are what the tests pin down.

displacement_sigma composes a lower Sigma-to-Sigma transit with an upper
transit back to the vertical line through the start, minus a plateau term:
its zeros are closed-loop certificates.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np
from scipy.integrate import solve_ivp

from .system import PwsSystem, Window
from .tangency import multiplicity_at
from .flow import integrate_smooth, DEFAULT_RTOL, DEFAULT_ATOL


class NoArrival(RuntimeError):
    pass


class TangentialArrival(RuntimeError):
    pass


class TangentialDeparture(RuntimeError):
    pass


class OrderMismatch(RuntimeError):
    pass


@dataclass(frozen=True)
class Section:
    anchor: Tuple[float, float]
    direction: Tuple[float, float]   # unit vector along the section
    half_width: float

    def __post_init__(self):
        n1, n2 = self.direction
        if abs(math.hypot(n1, n2) - 1.0) > 1e-9:
            raise ValueError("section direction must be a unit vector")
        if not self.half_width > 0:
            raise ValueError("half_width must be positive")

    @staticmethod
    def sigma(anchor_x: float, half_width: float) -> "Section":
        return Section((anchor_x, 0.0), (1.0, 0.0), half_width)

    @staticmethod
    def vertical(anchor_x: float, anchor_y: float = 0.0,
                 half_width: float = 1e6) -> "Section":
        return Section((anchor_x, anchor_y), (0.0, 1.0), half_width)

    def point_at(self, r: float) -> Tuple[float, float]:
        return (self.anchor[0] + r * self.direction[0],
                self.anchor[1] + r * self.direction[1])

    def offset_of(self, x: float, y: float) -> float:
        return ((x - self.anchor[0]) * self.direction[0]
                + (y - self.anchor[1]) * self.direction[1])

    def line_coordinate(self, x: float, y: float) -> float:
        """Signed distance off the section's line (zero on the line)."""
        n1, n2 = self.direction
        return (x - self.anchor[0]) * (-n2) + (y - self.anchor[1]) * n1


@dataclass
class Arrival:
    t: float
    x: float
    y: float
    offset: float
    div_integral: float


def _flow_to_section(f, g, start: Tuple[float, float], target: Section, *,
                     time_sign: float = 1.0, t_budget: float = 1e3,
                     window: Optional[Window] = None,
                     rtol: float = DEFAULT_RTOL,
                     atol: float = DEFAULT_ATOL,
                     transversal_tol: float = 1e-6,
                     guard_radius: float = 1e9,
                     with_divergence: bool = False) -> Arrival:
    """Integrate the smooth field until it crosses `target` inside its
    acceptance window; optionally carry the divergence integral along.

    The line-crossing event is non-terminal (crossings outside the
    acceptance window are skipped); a terminal guard stops runaway orbits
    before they overflow the arithmetic.
    """
    if with_divergence:
        def rhs(t, s):
            x, y = s[0], s[1]
            return (time_sign * f.value(x, y), time_sign * g.value(x, y),
                    time_sign * (f.dx(x, y) + g.dy(x, y)))
        state0 = (start[0], start[1], 0.0)
    else:
        def rhs(t, s):
            x, y = s[0], s[1]
            return (time_sign * f.value(x, y), time_sign * g.value(x, y))
        state0 = (start[0], start[1])

    def ev_line(t, s):
        return target.line_coordinate(s[0], s[1])
    ev_line.terminal = False
    ev_line.direction = 0

    def ev_guard(t, s):
        return guard_radius - abs(s[0]) - abs(s[1])
    ev_guard.terminal = True
    ev_guard.direction = -1

    events: List[Callable] = [ev_line, ev_guard]
    if window is not None:
        w = window

        def ev_exit(t, s):
            return min(s[0] - w.x_lo, w.x_hi - s[0],
                       s[1] - w.y_lo, w.y_hi - s[1])
        ev_exit.terminal = True
        ev_exit.direction = -1
        events.append(ev_exit)

    on_line_at_start = abs(target.line_coordinate(*start)) <= 1e-12
    sol = solve_ivp(rhs, (0.0, t_budget), state0, method="DOP853",
                    rtol=rtol, atol=atol, dense_output=True, events=events)
    if sol.status == -1:
        raise NoArrival(f"integration failed: {sol.message}")
    for t_e in sol.t_events[0]:
        if on_line_at_start and t_e <= 1e-9:
            continue
        state = sol.sol(t_e)
        xe, ye = float(state[0]), float(state[1])
        off = target.offset_of(xe, ye)
        if abs(off) > target.half_width:
            continue
        fz = time_sign * f.value(xe, ye)
        gz = time_sign * g.value(xe, ye)
        speed = math.hypot(fz, gz)
        trans = abs(fz * (-target.direction[1]) + gz * target.direction[0])
        if speed == 0.0 or trans <= transversal_tol * speed:
            raise TangentialArrival(
                f"arrival at ({xe:.6g},{ye:.6g}) is tangential to the section")
        zint = float(state[2]) if with_divergence else 0.0
        return Arrival(float(t_e), xe, ye, float(off), zint)
    raise NoArrival("orbit never crossed the target section "
                    f"within t={t_budget} (status {sol.status})")


def transition_map(field, s0: Section, s1: Section, r: float, *,
                   direction: str = "forward", t_budget: float = 1e3,
                   window: Optional[Window] = None,
                   rtol: float = DEFAULT_RTOL,
                   atol: float = DEFAULT_ATOL) -> float:
    """V(r): arrival offset on s1 relative to the base orbit from s0.anchor."""
    f, g = field
    time_sign = 1.0 if direction == "forward" else -1.0
    if abs(r) > s0.half_width:
        raise ValueError(f"|r|={abs(r)} exceeds the departure half-width")
    base = _flow_to_section(f, g, s0.anchor, s1, time_sign=time_sign,
                            t_budget=t_budget, window=window,
                            rtol=rtol, atol=atol)
    if r == 0.0:
        return 0.0
    pert = _flow_to_section(f, g, s0.point_at(r), s1, time_sign=time_sign,
                            t_budget=t_budget, window=window,
                            rtol=rtol, atol=atol)
    return pert.offset - base.offset


@dataclass
class TransitionMapSample:
    r_grid: np.ndarray
    v_values: np.ndarray
    order: int
    coefficient: float
    residual: float


def fit_leading_order(rs: Sequence[float], vs: Sequence[float]) -> Tuple[int, float, float]:
    """Least-squares power fit V ~ c * r^p on a positive grid.

    The slope of log|V| against log r is rounded to the nearest integer p,
    then c is refit at that exact order; returns (p, c, relative residual).
    """
    rs = np.asarray(rs, dtype=float)
    vs = np.asarray(vs, dtype=float)
    if np.any(rs <= 0) or np.any(vs == 0):
        raise ValueError("order fit needs r > 0 and V != 0 on the grid")
    slope, _ = np.polyfit(np.log(rs), np.log(np.abs(vs)), 1)
    p = int(round(slope))
    p = max(p, 1)
    basis = rs ** p
    coeff = float(np.dot(vs, basis) / np.dot(basis, basis))
    resid = float(np.max(np.abs(vs - coeff * basis)) / np.max(np.abs(vs)))
    return p, coeff, resid


def sample_transition_map(field, s0: Section, s1: Section,
                          r_lo: float, r_hi: float, n: int = 9, *,
                          direction: str = "forward", t_budget: float = 1e3,
                          window: Optional[Window] = None,
                          rtol: float = DEFAULT_RTOL,
                          atol: float = DEFAULT_ATOL) -> TransitionMapSample:
    rs = np.geomspace(r_lo, r_hi, n)
    f, g = field
    time_sign = 1.0 if direction == "forward" else -1.0
    base = _flow_to_section(f, g, s0.anchor, s1, time_sign=time_sign,
                            t_budget=t_budget, window=window,
                            rtol=rtol, atol=atol)
    vs = []
    for r in rs:
        pert = _flow_to_section(f, g, s0.point_at(float(r)), s1,
                                time_sign=time_sign, t_budget=t_budget,
                                window=window, rtol=rtol, atol=atol)
        vs.append(pert.offset - base.offset)
    order, coeff, resid = fit_leading_order(rs, vs)
    return TransitionMapSample(rs, np.asarray(vs), order, coeff, resid)


def _delta(f, g, x: float, y: float, section: Section,
           time_sign: float = 1.0) -> float:
    n1, n2 = section.direction
    return (time_sign * f.value(x, y) * n2
            - time_sign * g.value(x, y) * n1)


def regular_leading_coefficient(field, s0: Section, s1: Section, *,
                                direction: str = "forward",
                                t_budget: float = 1e3,
                                window: Optional[Window] = None,
                                rtol: float = DEFAULT_RTOL,
                                atol: float = DEFAULT_ATOL) -> float:
    """First-order coefficient of V(r) for a transversal departure."""
    f, g = field
    time_sign = 1.0 if direction == "forward" else -1.0
    x0, y0 = s0.anchor
    d0 = _delta(f, g, x0, y0, s0, time_sign)
    speed0 = math.hypot(f.value(x0, y0), g.value(x0, y0))
    if abs(d0) <= 1e-9 * max(speed0, 1e-30):
        raise TangentialDeparture(
            f"departure at {s0.anchor} is tangential to its section")
    arr = _flow_to_section(f, g, s0.anchor, s1, time_sign=time_sign,
                           t_budget=t_budget, window=window,
                           rtol=rtol, atol=atol, with_divergence=True)
    d1 = _delta(f, g, arr.x, arr.y, s1, time_sign)
    return (d0 / d1) * math.exp(arr.div_integral)


def tangent_leading_coefficient(field, s0: Section, s1: Section,
                                m: int, *, direction: str = "forward",
                                t_budget: float = 1e3,
                                window: Optional[Window] = None,
                                rtol: float = DEFAULT_RTOL,
                                atol: float = DEFAULT_ATOL) -> float:
    """Leading coefficient of V(r) ~ V_{m+1} r^{m+1} at an order-m contact.

    The departure section must be horizontal and anchored at the contact
    point; the detected contact order is cross-checked against m.
    """
    f, g = field
    if abs(s0.direction[1]) > 1e-12:
        raise ValueError("tangent-case departure section must be horizontal")
    time_sign = 1.0 if direction == "forward" else -1.0
    x0, y0 = s0.anchor
    f0 = time_sign * f.value(x0, y0)
    detected = multiplicity_at(g, f0, x0, y0=y0)
    if detected != m:
        raise OrderMismatch(f"requested contact order {m}, detected {detected}")
    gm = time_sign * g.x_jet(x0, y0, m)[m] * math.factorial(m)
    arr = _flow_to_section(f, g, s0.anchor, s1, time_sign=time_sign,
                           t_budget=t_budget, window=window,
                           rtol=rtol, atol=atol, with_divergence=True)
    d1 = _delta(f, g, arr.x, arr.y, s1, time_sign)
    n01 = s0.direction[0]
    return (gm * n01 ** (m + 1)
            / (math.factorial(m + 1) * d1) * math.exp(arr.div_integral))


@dataclass
class DisplacementSample:
    value: float
    conjugate_x: float
    arrival_y: float
    psi_term: float
    t_lower: float
    t_upper: float


def displacement_sigma(sys: PwsSystem, from_x: float, *,
                       lower_direction: str = "forward",
                       upper_direction: str = "forward",
                       psi_term: Optional[Callable[[float], float]] = None,
                       t_budget: float = 1e3,
                       rtol: float = DEFAULT_RTOL,
                       atol: float = DEFAULT_ATOL,
                       transversal_tol: float = 1e-6) -> DisplacementSample:
    """Signed vertical loop-closure gap at the line x = from_x.

    Lower transit: one smooth arc of the lower subsystem from (from_x, 0)
    back to Sigma, landing at the conjugate abscissa. Upper transit: flow
    the upper subsystem from there to the vertical line through from_x and
    read the signed height. The returned value subtracts the plateau term
    when one is supplied; a zero certifies a closed crossing loop.
    """
    fl, gl = sys.side("lower")
    sgn_l = 1.0 if lower_direction == "forward" else -1.0
    run = integrate_smooth(fl, gl, (from_x, 0.0), "lower",
                           t_max=t_budget, window=None, time_sign=sgn_l,
                           rtol=rtol, atol=atol)
    if run.terminal.kind != "sigma-cross":
        raise NoArrival(
            f"lower transit from x={from_x} ended with {run.terminal.kind}")
    p_conj = run.terminal.x
    t_lower = run.terminal.t

    fu, gu = sys.side("upper")
    sgn_u = 1.0 if upper_direction == "forward" else -1.0
    line = Section.vertical(from_x)
    arr = _flow_to_section(fu, gu, (p_conj, 0.0), line, time_sign=sgn_u,
                           t_budget=t_budget, window=None,
                           rtol=rtol, atol=atol,
                           transversal_tol=transversal_tol)
    pterm = float(psi_term(from_x)) if psi_term is not None else 0.0
    value = arr.offset - pterm
    return DisplacementSample(value, p_conj, arr.offset, pterm,
                              t_lower, arr.t)


def write_map_csv(path: str, rs: Sequence[float], vs: Sequence[float]) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("# filippov2d-map-v1\n")
        writer = csv.writer(fh)
        writer.writerow(["r", "V"])
        for r, v in zip(rs, vs):
            writer.writerow([repr(float(r)), repr(float(v))])
