"""Smooth cutoff steps and the piecewise plateau profile psi.

cutoff_up(x; r1, r2) is the C-infinity step that is exactly 0 for x <= r1,
exactly 1 for x >= r2 and 1 / (1 + exp(eta)) in between, with
eta = 1/(x - r1) + 1/(x - r2). All derivatives vanish at r1 and r2.

psi assembles d plateau bumps from a knot vector k of length 3d+1: knots
k_1 < ... < k_{2d+1}, then d plateau heights. Bump i rises on
(k_{2i-1}, k_{2i}] and falls on (k_{2i}, k_{2i+1}]. If the knots are not
strictly ascending, the fallback branch k_{2d+2} * cutoff_up(x; r1, r2)
is used instead (r1, r2 supplied separately).

The flow reads psi and psi' in closed form: s' = q * nu2 with
s = cutoff_up, q = s(1 - s), nu2 = 1/(x-r1)^2 + 1/(x-r2)^2. cutoff_jet
and psi_jet give derivatives of any order as Taylor jets (fieldexpr).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Optional, Tuple

from .fieldexpr import Jet, jet_constant, jet_div, jet_exp, jet_variable

_ETA_SAT = 700.0  # exp saturation guard
_KNOT_TOL = 1e-14


def _cutoff_core(x: float, r1: float, r2: float) -> Tuple[float, float]:
    """(s, s') of cutoff_up at x; r1 < r2 is the caller's to check."""
    if x <= r1:
        return 0.0, 0.0
    if x >= r2:
        return 1.0, 0.0
    t1 = 1.0 / (x - r1)
    t2 = 1.0 / (x - r2)
    eta = t1 + t2
    if eta >= _ETA_SAT:
        return 0.0, 0.0
    if eta <= -_ETA_SAT:
        return 1.0, 0.0
    if eta >= 0.0:
        u = math.exp(-eta)
        s = u / (1.0 + u)
        q = u / (1.0 + u) ** 2
    else:
        e = math.exp(eta)
        s = 1.0 / (1.0 + e)
        q = e / (1.0 + e) ** 2
    nu2 = t1 * t1 + t2 * t2
    d1 = nu2 * q
    return s, d1


def _checked_cutoff(x: float, r1: float, r2: float) -> Tuple[float, float]:
    if not (r1 < r2):
        raise ValueError("cutoff needs r1 < r2")
    return _cutoff_core(x, r1, r2)


def cutoff_up(x: float, r1: float, r2: float) -> float:
    return _checked_cutoff(x, r1, r2)[0]


def cutoff_jet(x: float, r1: float, r2: float, order: int) -> Jet:
    """Jet of cutoff_up at x; flat where _cutoff_core is (or saturates)."""
    s, _ = _checked_cutoff(x, r1, r2)
    if not r1 < x < r2:
        return jet_constant(s, order)
    one = jet_constant(1.0, order)
    eta = [a + b for a, b in zip(jet_div(one, jet_variable(x - r1, order)),
                                 jet_div(one, jet_variable(x - r2, order)))]
    if abs(eta[0]) >= _ETA_SAT:
        return jet_constant(s, order)
    # s = u / (1 + u) with u = exp(-eta), or 1 / (1 + e) with e = exp(eta)
    up = eta[0] >= 0.0
    w = jet_exp([-c for c in eta] if up else eta)
    return jet_div(w if up else one, [1.0 + w[0]] + w[1:])


@dataclass(frozen=True)
class PsiSpec:
    """Plateau profile: d bumps, knot-and-height vector k (length 3d+1),
    optional fallback window (r1, r2) used when the knots are degenerate."""

    d: int
    k: Tuple[float, ...]
    r1: Optional[float] = None
    r2: Optional[float] = None

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("need d >= 1")
        if len(self.k) != 3 * self.d + 1:
            raise ValueError(
                f"k must have length 3d+1 = {3 * self.d + 1}, got {len(self.k)}")
        if self.r1 is not None and self.r2 is not None and not self.r1 < self.r2:
            raise ValueError("fallback window needs r1 < r2")
        ks, hs = self.k[: 2 * self.d + 1], self.k[2 * self.d + 1:]
        set_once = object.__setattr__   # frozen: derived once, here
        set_once(self, "knots", ks)
        set_once(self, "heights", hs)
        # psi's constant value at each knot: 0 at the feet, h_i at peak i
        set_once(self, "knot_heights",
                 tuple(hs[j // 2] if j % 2 else 0.0 for j in range(len(ks))))
        set_once(self, "_ascending",
                 all(a < b for a, b in zip(ks[:-1], ks[1:])))
        # how near a knot x is taken to be at it (_psi_piece)
        set_once(self, "_knot_tols",
                 tuple(_KNOT_TOL * max(1.0, abs(k)) for k in ks))

    @property
    def fallback_height(self) -> float:
        return self.k[2 * self.d + 1]

    def in_knot_domain(self) -> bool:
        """Exact strict-ascending test on the knot part of k (decided once,
        at construction)."""
        return self._ascending

    def support(self) -> Tuple[float, float]:
        if self.in_knot_domain():
            return self.knots[0], self.knots[-1]
        if self.r1 is None or self.r2 is None:
            raise ValueError("degenerate knots need a fallback (r1, r2) window")
        return self.r1, self.r2


def _psi_piece(spec: PsiSpec, x: float):
    """(h, r1, r2, falling): psi = h * cutoff_up(x; r1, r2) near x (h *
    (1 - cutoff_up) if falling), or the constant h if r1 is None: off the
    support and within _KNOT_TOL of a knot, where all derivatives vanish.
    Bisection finds the knots on either side of x; only those two take the
    tolerance test, the lower one first."""
    if not spec._ascending:
        if spec.r1 is None or spec.r2 is None:
            raise ValueError("degenerate knots need a fallback (r1, r2) window")
        return spec.fallback_height, spec.r1, spec.r2, False
    ks = spec.knots
    j = bisect_left(ks, x)   # ks[j - 1] < x <= ks[j]
    if j and x - ks[j - 1] <= spec._knot_tols[j - 1]:
        return spec.knot_heights[j - 1], None, None, False
    if j < len(ks) and ks[j] - x <= spec._knot_tols[j]:
        return spec.knot_heights[j], None, None, False
    if j == 0 or j == len(ks):   # off the support (or x is nan)
        return 0.0, None, None, False
    # bump (j - 1) // 2 rises on an even piece j - 1 and falls on an odd one
    return spec.heights[(j - 1) // 2], ks[j - 1], ks[j], j % 2 == 0


def _psi_core(spec: PsiSpec, x: float) -> Tuple[float, float]:
    h, r1, r2, falling = _psi_piece(spec, x)
    if r1 is None:
        return h, 0.0
    # r1 < r2: knots ascend strictly, and PsiSpec checked the fallback window
    s, d1 = _cutoff_core(x, r1, r2)
    if falling:
        return h * (1.0 - s), -h * d1
    return h * s, h * d1


def psi(spec: PsiSpec, x: float) -> float:
    return _psi_core(spec, x)[0]


def psi_jet(spec: PsiSpec, x: float, order: int) -> Jet:
    """Jet of psi at x up to `order`."""
    h, r1, r2, falling = _psi_piece(spec, x)
    if r1 is None:
        return jet_constant(h, order)
    s = cutoff_jet(x, r1, r2, order)
    if falling:
        s = [1.0 - s[0]] + [-c for c in s[1:]]
    return [h * c for c in s]


def zero_psi(spec_like: Optional[PsiSpec]) -> bool:
    """True when the profile is identically zero (None or all-zero heights)."""
    if spec_like is None:
        return True
    if spec_like.in_knot_domain():
        return all(h == 0.0 for h in spec_like.heights)
    return spec_like.fallback_height == 0.0
