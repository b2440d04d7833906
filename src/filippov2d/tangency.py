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
multiplicity_at reads orders up to MAX_ORDER against the threshold EPS,
on demand: the order-2 jet first, which decides every point of degree 2
or less (most candidates are simple), and the order-MAX_ORDER jet only
where orders 0-2 all vanish. Jets are prefix-stable (fieldexpr), so the
answer is the one a single MAX_ORDER read gives, bit for bit. The jet m
is found in also gives g^(m), which multiplicity_at returns with m, so
visibility's input costs no further jet. f and g are read once per
candidate (PwsSystem.at_sigma), through the sides a transit compiled.
"""

from __future__ import annotations

import math
from typing import List, NamedTuple, Optional, Tuple

from .system import PwsSystem, SigmaDecomposition, decompose_sigma

MAX_ORDER = 12
EPS = 1e-8


class IndeterminateMultiplicity(ArithmeticError):
    """All x-derivatives up to MAX_ORDER vanish below threshold."""


class ZeroLeadingCoefficient(ArithmeticError):
    pass


class TangentPointRecord(NamedTuple):
    x0: float
    m_plus: int
    m_minus: int
    vis_plus: Optional[str]   # 'V' | 'I' | 'L' | 'R' | None
    vis_minus: Optional[str]
    label: str


class BoundaryEquilibrium(NamedTuple):
    x0: float
    side: str


def multiplicity_at(g_field, f_at: float,
                    x0: float) -> Tuple[int, float]:
    """(m, g^(m)(x0, 0)): the order of the first non-vanishing x-derivative
    of g at (x0, 0), and that derivative, read from the jet m was found in.

    m is 0 when g itself is nonzero (no tangency). The threshold is
    EPS scaled by max(1, |f|, derivative magnitudes seen so far) — scaling
    by *later* orders would let the enormous high-order derivatives of
    bump-type perturbations swallow a genuinely nonzero low-order one.
    Raises IndeterminateMultiplicity when everything up to MAX_ORDER
    vanishes. Orders are read on demand (module docstring).
    """
    scale = max(1.0, abs(f_at))
    k = 0
    for order in (2, MAX_ORDER):
        for c in g_field.x_jet(x0, 0.0, order)[k:]:
            v = c * math.factorial(k)
            if abs(v) > EPS * scale:
                return k, v
            scale = max(scale, abs(v))
            k += 1
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


class TangencyScan(NamedTuple):
    records: List[TangentPointRecord]
    boundary_equilibria: List[BoundaryEquilibrium]
    sigma: SigmaDecomposition


def _side_data(sys: PwsSystem, which: str, f_val: float, x0: float):
    m, gm = multiplicity_at(sys.side(which)[1], f_val, x0)
    vis = None
    if m >= 1 and f_val != 0.0:
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
        fp, gp, fm, gm = sys.at_sigma(x0)
        skip = False
        for which, f0, g0 in (("upper", fp, gp), ("lower", fm, gm)):
            gs = sys.sigma_g_scale(which)
            if abs(g0) <= 1e-7 * gs and abs(f0) <= 1e-9 * gs:
                boundary.append(BoundaryEquilibrium(x0, which))
                skip = True
        if skip:
            continue
        try:
            m_p, vis_p = _side_data(sys, "upper", fp, x0)
            m_m, vis_m = _side_data(sys, "lower", fm, x0)
        except IndeterminateMultiplicity:
            records.append(TangentPointRecord(x0, -1, -1, None, None, "??"))
            continue
        if m_p == 0 and m_m == 0:
            continue  # spurious candidate: neither g actually vanishes
        label = (vis_p or ".") + (vis_m or ".")
        records.append(TangentPointRecord(x0, m_p, m_m, vis_p, vis_m, label))
    return TangencyScan(records, boundary, dec)
