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

The displacement has a second, closed form, displacement_closed, which a
scan reads for its sign alone (loops). Where the transition system's f+-
are constants and its g+- products of factors b + a x (the canonical
family: phi * prod(x - lambda)), every transition orbit is a level set of
y - G(x)/f, G the antiderivative of g with G(0) = 0: first_integral
builds G's coefficients and the factors' zeros, G's critical points, once
per transition system and keeps them there. The lower leg from (q, 0)
then lands at the first x1 past q where G-(x1) = G-(q), found one
monotone piece of G- at a time by numerics.brentq, and the displacement
is psi+(x1) - psi+(q) + (G+(q) - G+(x1))/f+. It is None wherever the
flown one could fail or land elsewhere: a start that does not leave Sigma
cleanly into y < 0 (flow's nudge), a lower leg that comes within _FLOOR
of Sigma before it lands or lands with |g-/f-| below _SLOPE_FLOOR,
either leg within _FLOOR of a window edge or past _BUDGET_SHARE of the
leg budget, a tangential section hit, a sheared lower side, and fields
outside the family. No value it returns is ever certified: it only spares
the flight of a scan point whose sign it already knows.
"""

from __future__ import annotations

import math
from typing import List, NamedTuple, Optional, Tuple

from .cutoffs import psi
from .fieldexpr import Add, Div, Mul, Neg, Num, Pow, Sub, Var
from .system import PwsSystem
from .numerics import brentq
# this module calls neither numerics.solve_ivp nor multiplicity_at; both
# stay bound here because perfbench/tracing.py wraps them on every layer
from .numerics import solve_ivp  # noqa: F401
from .tangency import multiplicity_at  # noqa: F401
from .flow import (_NUDGE_FLOOR, _NUDGE_STEPS, _TRANSVERSAL_TOL, Event,
                   Trajectory, TransitFailure, _leg_budget, _transit,
                   integrate_smooth)

# displacement_closed declines a point unless its legs keep _FLOOR (height
# and abscissa) from Sigma and the window edges, its landing slope |g/f|
# tops _SLOPE_FLOOR and each leg takes at most _BUDGET_SHARE of the budget
_FLOOR = 1e-6
_SLOPE_FLOOR = 1e-3
_BUDGET_SHARE = 0.99


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


# --------------------------------------------------------------------------
# the closed form


def _linear(tree) -> Optional[Tuple[float, float]]:
    """(b, a) with tree = b + a x; None unless tree is one by sums,
    products and quotients (it reads y, calls a function, has degree
    above 1 in x or a power)."""
    t = type(tree)
    if t is Num:
        return tree.value, 0.0
    if t is Var:
        return (0.0, 1.0) if tree.name == "x" else None
    if t is Neg:
        p = _linear(tree.a)
        return None if p is None else (-p[0], -p[1])
    if t not in (Add, Sub, Mul, Div):
        return None
    p, r = _linear(tree.a), _linear(tree.b)
    if p is None or r is None:
        return None
    if t is Add:
        return p[0] + r[0], p[1] + r[1]
    if t is Sub:
        return p[0] - r[0], p[1] - r[1]
    if t is Div:
        return (p[0] / r[0], p[1] / r[0]) if r[1] == 0.0 != r[0] else None
    if p[1] == 0.0:
        return p[0] * r[0], p[0] * r[1]
    return (p[0] * r[0], p[1] * r[0]) if r[1] == 0.0 else None


def _factors(tree) -> Optional[List[Tuple[float, float]]]:
    """tree as a product of factors (b, a), each b + a x; None unless it
    is one."""
    if type(tree) is Mul:
        p, r = _factors(tree.a), _factors(tree.b)
        return None if p is None or r is None else p + r
    if type(tree) is Pow and tree.exponent >= 0:
        p = _factors(tree.base)
        return None if p is None else p * tree.exponent
    p = _linear(tree)
    return None if p is None else [p]


def _horner(c, x: float) -> float:
    v = 0.0
    for a in reversed(c):
        v = v * x + a
    return v


class SideIntegral(NamedTuple):
    """One side's first integral: along its orbits y - G(x)/f is constant.
    f is the side's constant f, crit the zeros of g's factors in
    increasing order (G's critical points) and G the coefficients of G,
    lowest first, G(0) = 0."""

    f: float
    crit: Tuple[float, ...]
    G: Tuple[float, ...]


def _side_integral(f, g) -> Optional[SideIntegral]:
    """The first integral of the side (f, g), None outside the family: f a
    nonzero constant, g a nonzero product of factors b + a x."""
    fc = _linear(getattr(f, "expr", None))
    factors = _factors(getattr(g, "expr", None))
    if fc is None or fc[1] != 0.0 or fc[0] == 0.0 or factors is None:
        return None
    coef = g.x_jet(0.0, 0.0, len(factors))   # g's coefficients: its degree
    if not any(coef):
        return None
    crit = tuple(sorted({-b / a for b, a in factors if a}))
    G = (0.0,) + tuple(c / (k + 1) for k, c in enumerate(coef))
    return SideIntegral(fc[0], crit, G)


def first_integral(hat: PwsSystem
                   ) -> Optional[Tuple[SideIntegral, SideIntegral]]:
    """The (upper, lower) first integrals of hat's sides, from their four
    expression trees, built on first use and kept on hat; None when a side
    is outside the family."""
    got = hat._integral
    if got is None:
        sides = tuple(_side_integral(*hat.side(w))
                      for w in ("upper", "lower"))
        got = hat._integral = () if None in sides else sides
    return got or None


def _lower_landing(hat: PwsSystem, side: SideIntegral,
                   q: float) -> Optional[float]:
    """Where hat's lower orbit from (q, 0) lands on Sigma by its first
    integral side: the first x1 past q, in f's direction, with G(x1) =
    G(q), searched one monotone piece of G at a time. None where the flown
    transit could end otherwise (module docstring)."""
    w, f, to = hat.window, side.f, math.copysign(1.0, side.f)
    g_q = _horner(side.G, q)

    def y(x: float) -> float:
        return (_horner(side.G, x) - g_q) / f
    edge = (w.x_hi if to > 0.0 else w.x_lo) - to * _FLOOR
    ends = [c for c in side.crit if 0.0 < (c - q) * to < (edge - q) * to]
    ends.append(edge)
    # flow's nudge ends a micro-step of time h at x = q + f h (f is
    # constant) once |y| there clears its floor: the first end ten floors
    # deep must come before G's first critical point
    for h in _NUDGE_STEPS:
        x = q + f * h
        if (x - ends[0]) * to >= 0.0:
            return None
        if y(x) <= -10.0 * _NUDGE_FLOOR:
            break
    else:
        return None
    a = q
    for b in ends:
        y_b = y(b)
        if y_b >= 0.0:
            if a == q:
                return None
            x1 = brentq(y, a, b, xtol=1e-15, rtol=1e-15)
            return x1 if abs(hat.at_sigma(x1)[3] / f) >= _SLOPE_FLOOR \
                else None
        if not w.y_lo + _FLOOR < y_b <= -_FLOOR:
            return None
        a = b
    return None


def displacement_closed(sys: PwsSystem, from_x: float) -> Optional[float]:
    """displacement_sigma(sys, from_x) by the transition system's first
    integral (module docstring), or None where the flown one could fail
    or differ in sign: sheared lower side, fields outside the family, or
    legs that come near Sigma, the window or the end of their budget."""
    hat, psi_plus = sys.transition or (sys, None)
    integral = first_integral(hat)
    if integral is None or hat.lower() != sys.lower():
        return None
    upper, lower = integral
    w, q = hat.window, float(from_x)
    if not w.x_lo + _FLOOR < q < w.x_hi - _FLOOR:
        return None
    x1 = _lower_landing(hat, lower, q)
    # each leg runs |q - x1| at its constant speed |f|
    if x1 is None or (q - x1) * upper.f <= 0.0 or abs(q - x1) > \
            _BUDGET_SHARE * _leg_budget(hat) * min(abs(upper.f), abs(lower.f)):
        return None

    def lift(x: float) -> float:   # psi+(x)
        return 0.0 if psi_plus is None else psi(psi_plus, x)
    # the upper leg u = psi+(x1) + (G+(x) - G+(x1))/f+, from x1 to q: its
    # extreme heights are at its ends and at G+'s critical points between
    u1, g_1 = lift(x1), _horner(upper.G, x1)
    lo, hi = sorted((x1, q))
    heights = [u1 + (_horner(upper.G, x) - g_1) / upper.f
               for x in (q, x1, *(c for c in upper.crit if lo < c < hi))]
    if not all(w.y_lo + _FLOOR < u < w.y_hi - _FLOOR for u in heights) \
            or abs(upper.f) <= 1e3 * _TRANSVERSAL_TOL * math.hypot(
                upper.f, hat.at_sigma(q)[1]):
        return None
    return heights[0] - lift(q)
