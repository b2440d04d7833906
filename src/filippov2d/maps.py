"""Section transits and the Sigma displacement.

A section is a vertical line x = x_at. A section transit
(_flow_to_section) is a configuration of the flow kernel, flow._transit:
it flows the upper field in its system's window with the system's leg
budget and stops at the first crossing of the line other than its start,
landed on the line by a Henon step.

displacement_sigma composes a lower Sigma transit (flow.integrate_smooth,
the only call of that name in this module) with an upper section transit
back to the vertical line through the start: its zeros are closed-loop
certificates. Both legs run in the system's window.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

# this module calls neither solve_ivp nor multiplicity_at; both stay bound
# here because perfbench/tracing.py wraps them on every layer
from scipy.integrate import solve_ivp  # noqa: F401

from .system import PwsSystem
from .tangency import multiplicity_at  # noqa: F401
from .flow import TransitFailure, _leg_budget, _transit, integrate_smooth


class NoArrival(TransitFailure):
    pass


class TangentialArrival(TransitFailure):
    pass


@dataclass
class Arrival:
    t: float
    x: float
    y: float


def _flow_to_section(sys: PwsSystem, start: Tuple[float, float],
                     x_at: float) -> Arrival:
    """Flow the upper field of sys forward until it crosses the vertical
    line x = x_at.

    The transit stops at that first crossing. It raises TangentialArrival
    when the crossing is tangential to the line, and NoArrival when the
    orbit leaves the window or uses up the leg budget first.
    """
    run = _transit(sys, "upper", start, x_at=x_at)
    hit = run.terminal
    if hit.kind == "tangent-hit":
        raise TangentialArrival(
            f"arrival at ({hit.x:.6g},{hit.y:.6g}) is tangential to the section")
    if hit.kind != "section-hit":
        raise NoArrival("orbit never crossed the target section "
                        f"within t={_leg_budget(sys)}: {hit.kind}")
    return Arrival(hit.t, hit.x, hit.y)


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
    read the signed height; a zero certifies a closed crossing loop.
    """
    run = integrate_smooth(sys, "lower", (from_x, 0.0))
    if run.terminal.kind != "sigma-cross":
        raise NoArrival(
            f"lower transit from x={from_x} ended with {run.terminal.kind}")
    p_conj = run.terminal.x
    arr = _flow_to_section(sys, (p_conj, 0.0), from_x)
    return DisplacementSample(arr.y, p_conj, run.terminal.t, arr.t)
