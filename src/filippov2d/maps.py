"""Sections, transition maps, leading coefficients, displacement functions.

A Section is a straight segment: a line through `anchor` with unit direction
`direction`, truncated to offsets |s| <= half_width. transition_map flows a
smooth field from s0.anchor + r*N0 until the orbit crosses the line of s1
inside its acceptance window and reports the arrival offset relative to the
base orbit's arrival, so V(0) = 0 exactly. Section transits
(_flow_to_section) are configurations of the flow kernel, flow._transit:
they stop at the first accepted crossing, landed on the section's line by
a Henon step.

Leading coefficients:

* regular case  V1 = (D0/D1) * exp( integral of div along the base orbit ),
  D_i = f*n_y - g*n_x evaluated against section i's direction; D1 uses the
  field at the ARRIVAL point.
* tangent case  V_{m+1} = g^(m)(p0) * n01^{m+1} / ((m+1)! * D1) * exp(...),
  where n01 is the x-component of the (horizontal) departure section.

Signs depend on the section orientations; order/magnitude are the contract
and are what the tests pin down.

displacement_sigma composes a lower Sigma transit (flow.integrate_smooth,
the only call of that name in this module) with an upper section transit
back to the vertical line through the start, minus a plateau term: its
zeros are closed-loop certificates.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np
# no transit here calls solve_ivp itself; perfbench/tracing.py wraps this name
from scipy.integrate import solve_ivp  # noqa: F401

from .system import PwsSystem, Window
from .tangency import multiplicity_at
from .flow import TransitFailure, _transit, integrate_smooth


class NoArrival(TransitFailure):
    pass


class TangentialArrival(TransitFailure):
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
                     with_divergence: bool = False) -> Arrival:
    """Integrate the smooth field until it crosses `target` inside its
    acceptance window; optionally carry the divergence integral along.

    The transit stops at that first accepted crossing. It raises
    TangentialArrival when the crossing is tangential to the section, and
    NoArrival when the orbit leaves the window, runs away (no window) or
    uses up t_budget first.
    """
    run = _transit(f, g, start, target=target, t_max=t_budget,
                   time_sign=time_sign, window=window,
                   with_divergence=with_divergence)
    hit = run.terminal
    if hit.kind == "tangent-hit":
        raise TangentialArrival(
            f"arrival at ({hit.x:.6g},{hit.y:.6g}) is tangential to the section")
    if hit.kind != "section-hit":
        raise NoArrival("orbit never crossed the target section "
                        f"within t={t_budget}: {hit.kind}")
    return Arrival(hit.t, hit.x, hit.y, float(target.offset_of(hit.x, hit.y)),
                   run.div_integral)


def transition_map(field, s0: Section, s1: Section, r: float, *,
                   direction: str = "forward", t_budget: float = 1e3,
                   window: Optional[Window] = None) -> float:
    """V(r): arrival offset on s1 relative to the base orbit from s0.anchor."""
    f, g = field
    time_sign = 1.0 if direction == "forward" else -1.0
    if abs(r) > s0.half_width:
        raise ValueError(f"|r|={abs(r)} exceeds the departure half-width")
    base = _flow_to_section(f, g, s0.anchor, s1, time_sign=time_sign,
                            t_budget=t_budget, window=window)
    if r == 0.0:
        return 0.0
    pert = _flow_to_section(f, g, s0.point_at(r), s1, time_sign=time_sign,
                            t_budget=t_budget, window=window)
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
                          window: Optional[Window] = None
                          ) -> TransitionMapSample:
    rs = np.geomspace(r_lo, r_hi, n)
    f, g = field
    time_sign = 1.0 if direction == "forward" else -1.0
    base = _flow_to_section(f, g, s0.anchor, s1, time_sign=time_sign,
                            t_budget=t_budget, window=window)
    vs = []
    for r in rs:
        pert = _flow_to_section(f, g, s0.point_at(float(r)), s1,
                                time_sign=time_sign, t_budget=t_budget,
                                window=window)
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
                                window: Optional[Window] = None) -> float:
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
                           with_divergence=True)
    d1 = _delta(f, g, arr.x, arr.y, s1, time_sign)
    return (d0 / d1) * math.exp(arr.div_integral)


def tangent_leading_coefficient(field, s0: Section, s1: Section,
                                m: int, *, direction: str = "forward",
                                t_budget: float = 1e3,
                                window: Optional[Window] = None) -> float:
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
                           with_divergence=True)
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
                       psi_term: Optional[Callable[[float], float]] = None,
                       t_budget: float = 1e3) -> DisplacementSample:
    """Signed vertical loop-closure gap at the line x = from_x.

    Lower transit: one smooth arc of the lower subsystem from (from_x, 0)
    back to Sigma, landing at the conjugate abscissa. Upper transit: flow
    the upper subsystem from there to the vertical line through from_x and
    read the signed height. The returned value subtracts the plateau term
    when one is supplied; a zero certifies a closed crossing loop.
    """
    fl, gl = sys.side("lower")
    run = integrate_smooth(fl, gl, (from_x, 0.0), "lower", t_max=t_budget)
    if run.terminal.kind != "sigma-cross":
        raise NoArrival(
            f"lower transit from x={from_x} ended with {run.terminal.kind}")
    p_conj = run.terminal.x
    t_lower = run.terminal.t

    fu, gu = sys.side("upper")
    arr = _flow_to_section(fu, gu, (p_conj, 0.0), Section.vertical(from_x),
                           t_budget=t_budget)
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
