"""Sections and the Sigma displacement.

A Section is a straight segment: a line through `anchor` with unit direction
`direction`, truncated to offsets |s| <= half_width. Section transits
(_flow_to_section) are configurations of the flow kernel, flow._transit:
they stop at the first accepted crossing, landed on the section's line by
a Henon step.

displacement_sigma composes a lower Sigma transit (flow.integrate_smooth,
the only call of that name in this module) with an upper section transit
back to the vertical line through the start: its zeros are closed-loop
certificates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

# this module calls neither solve_ivp nor multiplicity_at; both stay bound
# here because perfbench/tracing.py wraps them on every layer
from scipy.integrate import solve_ivp  # noqa: F401

from .system import PwsSystem, Window
from .tangency import multiplicity_at  # noqa: F401
from .flow import TransitFailure, _transit, integrate_smooth


class NoArrival(TransitFailure):
    pass


class TangentialArrival(TransitFailure):
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
    def vertical(anchor_x: float, anchor_y: float = 0.0,
                 half_width: float = 1e6) -> "Section":
        return Section((anchor_x, anchor_y), (0.0, 1.0), half_width)

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


def _flow_to_section(f, g, start: Tuple[float, float], target: Section, *,
                     t_budget: float,
                     window: Optional[Window] = None) -> Arrival:
    """Integrate the smooth field forward until it crosses `target` inside
    its acceptance window.

    The transit stops at that first accepted crossing. It raises
    TangentialArrival when the crossing is tangential to the section, and
    NoArrival when the orbit leaves the window, runs away (no window) or
    uses up t_budget first.
    """
    run = _transit(f, g, start, target=target, t_max=t_budget,
                   time_sign=1.0, window=window)
    hit = run.terminal
    if hit.kind == "tangent-hit":
        raise TangentialArrival(
            f"arrival at ({hit.x:.6g},{hit.y:.6g}) is tangential to the section")
    if hit.kind != "section-hit":
        raise NoArrival("orbit never crossed the target section "
                        f"within t={t_budget}: {hit.kind}")
    return Arrival(hit.t, hit.x, hit.y,
                   float(target.offset_of(hit.x, hit.y)))


def _transit_budget(window: Window) -> float:
    """Time budget of one leg (one smooth transit) inside the window."""
    return 6.0 * window.width + 30.0


@dataclass
class DisplacementSample:
    value: float
    conjugate_x: float
    t_lower: float
    t_upper: float


def displacement_sigma(sys: PwsSystem, from_x: float) -> DisplacementSample:
    """Signed vertical loop-closure gap at the line x = from_x.

    Lower transit: one smooth arc of the lower subsystem from (from_x, 0)
    back to Sigma, landing at the conjugate abscissa. Upper transit: flow
    the upper subsystem from there to the vertical line through from_x and
    read the signed height; a zero certifies a closed crossing loop. Each
    transit has the leg budget of the system's window.
    """
    t_leg = _transit_budget(sys.window)
    fl, gl = sys.side("lower")
    run = integrate_smooth(fl, gl, (from_x, 0.0), "lower", t_max=t_leg)
    if run.terminal.kind != "sigma-cross":
        raise NoArrival(
            f"lower transit from x={from_x} ended with {run.terminal.kind}")
    p_conj = run.terminal.x

    fu, gu = sys.side("upper")
    arr = _flow_to_section(fu, gu, (p_conj, 0.0), Section.vertical(from_x),
                           t_budget=t_leg)
    return DisplacementSample(arr.offset, p_conj, run.terminal.t, arr.t)
