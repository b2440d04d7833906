"""Tangency detection and classification on the switching line.

A point x0 on Sigma is a tangency of one side when that side's normal
component g vanishes there while f does not. The multiplicity m is the
order of the first non-vanishing x-derivative of g(., 0); the local orbit
behaves like y ~ c (x - x0)^(m+1) with

    c = (1 / (m+1)) * (g^(m)(x0, 0) / m!) / f(x0, 0).

Odd m gives a fold-like visible/invisible tangency (V if the branch bends
into the subsystem's own closed half-plane, I otherwise); even m gives a
one-branch contact, labelled L or R by which branch lies in the own
half-plane.

Every x-derivative comes from the component's jet ``g.x_jet(x0, 0, order)``:
multiplicity_at reads orders up to MAX_ORDER against the threshold EPS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

from .system import PwsSystem, SigmaDecomposition, decompose_sigma

MAX_ORDER = 12
EPS = 1e-8


class IndeterminateMultiplicity(ArithmeticError):
    """All x-derivatives up to MAX_ORDER vanish below threshold."""


class ZeroLeadingCoefficient(ArithmeticError):
    pass


@dataclass(frozen=True)
class TangentPointRecord:
    x0: float
    m_plus: int
    m_minus: int
    vis_plus: Optional[str]   # 'V' | 'I' | 'L' | 'R' | None
    vis_minus: Optional[str]
    label: str


@dataclass(frozen=True)
class BoundaryEquilibrium:
    x0: float
    side: str


def multiplicity_at(g_field, f_at: float, x0: float) -> int:
    """Order of the first non-vanishing x-derivative of g at (x0, 0).

    Returns 0 when g itself is nonzero (no tangency). The threshold is
    EPS scaled by max(1, |f|, derivative magnitudes seen so far) — scaling
    by *later* orders would let the enormous high-order derivatives of
    bump-type perturbations swallow a genuinely nonzero low-order one.
    Raises IndeterminateMultiplicity when everything up to MAX_ORDER
    vanishes.
    """
    scale = max(1.0, abs(f_at))
    for k, c in enumerate(g_field.x_jet(x0, 0.0, MAX_ORDER)):
        v = c * math.factorial(k)
        if abs(v) > EPS * scale:
            return k
        scale = max(scale, abs(v))
    raise IndeterminateMultiplicity(
        f"g and its first {MAX_ORDER} x-derivatives vanish at x={x0}")


def visibility(side: str, m: int, f_val: float, g_m_val: float) -> str:
    """Classify the tangency branch geometry from the leading coefficient.

    side is 'upper' or 'lower'; m >= 1 the multiplicity; g_m_val the m-th
    x-derivative of g at the tangent point.
    """
    if side not in ("upper", "lower"):
        raise ValueError("side must be 'upper' or 'lower'")
    if m < 1:
        raise ValueError("visibility needs multiplicity m >= 1")
    if f_val == 0.0:
        raise ZeroDivisionError("f vanishes: boundary equilibrium, not a tangency")
    scale = max(1.0, abs(f_val))
    if abs(g_m_val) <= 1e-12 * scale:
        raise ZeroLeadingCoefficient(
            f"leading x-derivative of g at order {m} is numerically zero")
    c = (g_m_val / math.factorial(m)) / ((m + 1) * f_val)
    if m % 2 == 1:  # fold-like: both branches on one side of Sigma
        if side == "upper":
            return "V" if c > 0 else "I"
        return "V" if c < 0 else "I"
    # even m: branches straddle Sigma; name the one in the own half-plane
    if side == "upper":
        return "R" if c > 0 else "L"
    return "L" if c > 0 else "R"


@dataclass
class TangencyScan:
    records: List[TangentPointRecord]
    boundary_equilibria: List[BoundaryEquilibrium]
    sigma: SigmaDecomposition


def _side_data(sys: PwsSystem, which: str, x0: float):
    f, g = sys.side(which)
    f_val = f.value(x0, 0.0)
    m = multiplicity_at(g, f_val, x0)
    vis = None
    if m >= 1 and f_val != 0.0:
        gm = g.x_jet(x0, 0.0, m)[m] * math.factorial(m)
        vis = visibility(which, m, f_val, gm)
    return m, vis


def find_tangent_points(sys: PwsSystem) -> TangencyScan:
    """Decompose Sigma and classify every tangency candidate.

    Candidates where the vanishing side's f also vanishes are reported as
    boundary equilibria and excluded from the tangency list. The scan
    carries the decomposition it classified as ``sigma``.
    """
    dec = decompose_sigma(sys)
    records: List[TangentPointRecord] = []
    boundary: List[BoundaryEquilibrium] = []
    for x0 in dec.tangency_candidates:
        skip = False
        for which in ("upper", "lower"):
            f, g = sys.side(which)
            g0 = g.value(x0, 0.0)
            f0 = f.value(x0, 0.0)
            gs = sys.sigma_g_scale(which)
            if abs(g0) <= 1e-7 * gs and abs(f0) <= 1e-9 * gs:
                boundary.append(BoundaryEquilibrium(x0, which))
                skip = True
        if skip:
            continue
        try:
            m_p, vis_p = _side_data(sys, "upper", x0)
            m_m, vis_m = _side_data(sys, "lower", x0)
        except IndeterminateMultiplicity:
            records.append(TangentPointRecord(x0, -1, -1, None, None, "??"))
            continue
        if m_p == 0 and m_m == 0:
            continue  # spurious candidate: neither g actually vanishes
        label = (vis_p or ".") + (vis_m or ".")
        records.append(TangentPointRecord(x0, m_p, m_m, vis_p, vis_m, label))
    return TangencyScan(records, boundary, dec)
