"""Section transits and the Sigma displacement.

A section is a vertical line x = x_at. A section transit
(_flow_to_section) is a configuration of the flow kernel, flow._transit:
it flows the upper field in its system's window with the system's leg
budget and stops at the first crossing of the line other than its start,
landed on the line by a Henon step. It returns that crossing, the
transit's terminal flow.Event (kind section-hit).

displacement_sigma composes a lower Sigma transit (flow.integrate_smooth,
the only call of that name in this module, read through _landed, the one
landing check, which loops shares) with an upper section transit back to
the vertical line through the start: its zeros are closed-loop
certificates. It flies both legs on the system's transition system, the
one build_unfolded sheared: under u = y + psi+(x) the sheared upper flow
is exactly the transition flow, whose field is a plain expression with no
psi to evaluate and no knots to step across, and the height over the line
is u - psi+(x). An unsheared system is its own transition with psi+ = 0.
"""

from __future__ import annotations

from typing import Tuple

from .cutoffs import psi
from .system import PwsSystem
# this module calls neither numerics.solve_ivp nor multiplicity_at; both
# stay bound here because perfbench/tracing.py wraps them on every layer
from .numerics import solve_ivp  # noqa: F401
from .tangency import multiplicity_at  # noqa: F401
from .flow import (Event, Trajectory, TransitFailure, _leg_budget, _transit,
                   integrate_smooth)


class NoArrival(TransitFailure):
    pass


class TangentialArrival(TransitFailure):
    pass


def _landed(run: Trajectory) -> float:
    """Where a transit from Sigma crossed back to it; NoArrival if it ended
    any other way."""
    if run.terminal.kind != "sigma-cross":
        leg = run.arcs[0]
        raise NoArrival(f"{leg.kind} transit from x={leg.x[0]:.6g} "
                        f"ended with {run.terminal.kind}")
    return run.terminal.x


def _flow_to_section(sys: PwsSystem, start: Tuple[float, float],
                     x_at: float) -> Event:
    """Flow the upper field of sys forward until it crosses the vertical
    line x = x_at.

    The transit stops at that first crossing and returns its terminal
    section-hit Event. It raises TangentialArrival when the crossing is
    tangential to the line, and NoArrival when the orbit leaves the window
    or uses up the leg budget first.
    """
    hit = _transit(sys, "upper", start, x_at=x_at).terminal
    if hit.kind == "tangent-hit":
        raise TangentialArrival(
            f"arrival at ({hit.x:.6g},{hit.y:.6g}) is tangential to the section")
    if hit.kind != "section-hit":
        raise NoArrival("orbit never crossed the target section "
                        f"within t={_leg_budget(sys)}: {hit.kind}")
    return hit


def displacement_sigma(sys: PwsSystem, from_x: float) -> float:
    """Signed vertical loop-closure gap at the line x = from_x.

    Lower transit: one smooth arc of the lower subsystem from (from_x, 0)
    back to Sigma, landing at the conjugate abscissa L. Upper transit: the
    transition system's upper flow from (L, psi+(L)) to the vertical line
    through from_x; its height there less psi+(from_x) is the gap, and a
    zero certifies a closed crossing loop.

    Both legs stop where the sheared system's legs stop: the lower side is
    the transition's own, and a section transit flies through Sigma, so
    its stops are the lines and the window. The window's y-edges bound u
    instead of y, a shift by psi+ (about 0.02 at most in the scenarios),
    well inside the pad canonical_base leaves between its orbits and those
    edges. A system whose lower side is sheared has no such conjugacy here
    and raises ValueError.
    """
    hat, psi_plus = sys.transition or (sys, None)
    if hat.lower() != sys.lower():
        raise ValueError("displacement_sigma needs an unsheared lower side")

    def lift(x: float) -> float:   # psi+(x)
        return 0.0 if psi_plus is None else psi(psi_plus, x)
    p_conj = _landed(integrate_smooth(hat, "lower", (from_x, 0.0)))
    arr = _flow_to_section(hat, (p_conj, lift(p_conj)), from_x)
    return arr.y - lift(from_x)
