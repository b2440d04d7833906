"""Two-zone piecewise-smooth systems on a rectangular window.

The plane is split by the switching line Sigma = {y = 0}. A system carries
an upper field Z+ = (f+, g+) acting on y > 0 and a lower field Z- = (f-, g-)
on y < 0. On Sigma the product h(x) = g+(x,0) * g-(x,0) separates crossing
points (h > 0) from sliding segments (h < 0); on sliding segments the
convex-combination (Filippov) field drives the dynamics along Sigma.

decompose_sigma finds the zeros of each g(., 0) separately. A uniform grid
of SCAN_CELLS cells only supplies seeds: the local minima of |g| and the
mid-points of sign-change cells. From each seed, Newton's method runs on
u = g/g_x (Schröder's modified Newton method), whose zeros are simple
whatever g's multiplicity, so a k-fold zero off the grid is reached to
rounding without a multiplicity guess; a simple zero is polished once.
The scan reads every value through PwsSystem.side_fn, as transits do.
"""

from __future__ import annotations

import math
from typing import List, NamedTuple, Protocol, Tuple

from .cutoffs import PsiSpec
from .fieldexpr import as_field, generated_fn

# Sigma scan: grid cells across the window, the distance below which two
# zeros are one candidate, and the cap on Newton steps from one seed
SCAN_CELLS = 1000
MERGE_TOL = 1e-10
_NEWTON_STEPS = 40


class ScalarFunc(Protocol):
    """A field component: its value and its Taylor jet in x.

    Expression and sheared fields also offer side_with(g, negated), which
    compiles the (x, y) -> (self, g), or its negation, that
    PwsSystem.side_fn keeps and every value read goes through, one call
    per point; value is read only where a side offers no such pair."""

    def value(self, x: float, y: float) -> float: ...

    def x_jet(self, x: float, y: float, order: int) -> list[float]: ...


class NotSliding(ValueError):
    pass


class DegenerateDenominator(ArithmeticError):
    pass


class Window:
    """The rectangle x_lo..x_hi by y_lo..y_hi, which must straddle Sigma."""

    def __init__(self, x_lo: float, x_hi: float, y_lo: float, y_hi: float):
        if not (x_lo < x_hi):
            raise ValueError("window needs x_lo < x_hi")
        if not (y_lo < 0.0 < y_hi):
            raise ValueError("window must straddle Sigma: y_lo < 0 < y_hi")
        self.x_lo, self.x_hi, self.y_lo, self.y_hi = x_lo, x_hi, y_lo, y_hi

    @property
    def width(self) -> float:
        return self.x_hi - self.x_lo


class PwsSystem:
    """Both sides' fields and the window; on a sheared system (set by
    build_unfolded) also the transition system the shear conjugates it to,
    with the upper profile psi+ (None: zero). Systems compare by these
    fields, not by the memos sigma_g_scale and side_fn keep."""

    def __init__(self, f_plus: ScalarFunc, g_plus: ScalarFunc,
                 f_minus: ScalarFunc, g_minus: ScalarFunc, window: Window,
                 transition: Tuple[PwsSystem, PsiSpec | None] | None = None):
        self.f_plus, self.g_plus = f_plus, g_plus
        self.f_minus, self.g_minus = f_minus, g_minus
        self.window, self.transition = window, transition
        self._g_scales: dict = {}
        self._side_fns: dict = {}
        self._sigma_sides = None   # at_sigma's (upper, lower) side functions
        self._integral = None      # maps.first_integral's memo

    def __eq__(self, other):
        return type(other) is PwsSystem and all(
            v == vars(other)[k] for k, v in vars(self).items() if k[0] != "_")

    def in_window(self, window: Window) -> PwsSystem:
        """The four fields in window, with this system's side functions."""
        out = PwsSystem(*self.upper(), *self.lower(), window)
        out._side_fns, out._sigma_sides = self._side_fns, self._sigma_sides
        return out

    @classmethod
    def from_strings(cls, f_plus, g_plus, f_minus, g_minus,
                     window) -> "PwsSystem":
        return cls(as_field(f_plus), as_field(g_plus),
                   as_field(f_minus), as_field(g_minus), window)

    def upper(self) -> Tuple[ScalarFunc, ScalarFunc]:
        return self.f_plus, self.g_plus

    def lower(self) -> Tuple[ScalarFunc, ScalarFunc]:
        return self.f_minus, self.g_minus

    def side(self, which: str) -> Tuple[ScalarFunc, ScalarFunc]:
        if which == "upper":
            return self.upper()
        if which == "lower":
            return self.lower()
        raise ValueError("side must be 'upper' or 'lower'")

    def side_fn(self, which: str, time_sign: float = 1.0):
        """The side's one callable (x, y) -> (f, g), or with time_sign -1
        its negation (-f, -g), which a backward transit steps on; each is
        made on first use and kept (the one memo of a side function): the
        pair's compiled side function when f offers one for g (expression
        and sheared sides), else a generated call of each value (its one
        reader)."""
        fn = self._side_fns.get((which, time_sign))
        if fn is None:
            if time_sign not in (1.0, -1.0):
                raise ValueError("time_sign must be 1 or -1")
            f, g = self.side(which)
            negated = time_sign == -1.0
            pair = getattr(f, "side_with", None)
            fn = pair(g, negated) if pair is not None else None
            if fn is None:
                s = "-" if negated else ""
                fn = generated_fn("x, y", "", f"{s}_f(x, y), {s}_g(x, y)",
                                  {"_f": f.value, "_g": g.value})
            self._side_fns[which, time_sign] = fn
        return fn

    def at_sigma(self, x: float) -> Tuple[float, float, float, float]:
        """(f+, g+, f-, g-) at (x, 0), one call of each side function: every
        Sigma value the package reads comes from here or from side_fn. The
        pair of side functions is looked up once and kept."""
        sides = self._sigma_sides
        if sides is None:
            sides = self._sigma_sides = (self.side_fn("upper"),
                                         self.side_fn("lower"))
        return (*sides[0](x, 0.0), *sides[1](x, 0.0))

    def sigma_g_scale(self, which: str) -> float:
        """1 + max |g(x, 0)| over a coarse Sigma sample; tolerance scale."""
        got = self._g_scales.get(which)
        if got is None:
            side, w = self.side_fn(which), self.window
            n = 64
            m = 0.0
            for i in range(n + 1):
                x = w.x_lo + (w.x_hi - w.x_lo) * i / n
                m = max(m, abs(side(x, 0.0)[1]))
            got = 1.0 + m
            self._g_scales[which] = got
        return got


def h_value(sys: PwsSystem, x: float) -> float:
    """h(x) = g+(x,0) g-(x,0); sign classifies the Sigma point."""
    _, gp, _, gm = sys.at_sigma(x)
    return gp * gm


def sliding_field(sys: PwsSystem, x: float) -> float:
    """Sliding (Filippov) velocity a f+ + (1-a) f-, a = g-/(g- - g+), at x.

    Defined only where h(x) < 0; raises NotSliding otherwise and
    DegenerateDenominator when g- - g+ is numerically zero relative to the
    component scale. The four values are one at_sigma read (a sheared side
    evaluates psi's template once: psi' alone when no transition field
    reads y, else psi and psi').
    """
    fp, gp, fm, gm = sys.at_sigma(x)
    if gp * gm >= 0.0:
        raise NotSliding(f"h(x) >= 0 at x={x}; not in a sliding segment")
    den = gm - gp
    scale = abs(gm) + abs(gp)
    if abs(den) <= 1e-12 * max(1.0, scale):
        raise DegenerateDenominator(f"g- - g+ ~ 0 at x={x}")
    return (fp * gm - fm * gp) / den


class SigmaDecomposition(NamedTuple):
    crossing: List[Tuple[float, float]]
    sliding: List[Tuple[float, float]]
    tangency_candidates: List[float]


def _newton_zero(g, x: float, lo: float, hi: float) -> tuple | None:
    """Schröder's iteration from x: Newton's method on u = g/g_x, whose
    zeros are all simple whatever g's multiplicity there. The step
    u / u_x = q / (1 - 2 q c2/c1), q = c0/c1, is taken from g's order-2
    x-jet (c0, c1, c2) in ratios, because c1^2 underflows next to
    high-order zeros. A step below 1e-15 of |x| + (hi - lo) ends the
    iteration: returns x with the c1 and c2 last read; None once it
    leaves [lo, hi] or meets a critical point of g."""
    for _ in range(_NEWTON_STEPS):
        c0, c1, c2 = g.x_jet(x, 0.0, 2)
        if c0 == 0.0:
            return x, c1, c2
        if c1 == 0.0:
            return None
        q = c0 / c1
        den = 1.0 - 2.0 * q * (c2 / c1)
        if den == 0.0:
            return None
        step = q / den
        x -= step
        if not lo <= x <= hi:
            return None
        if abs(step) <= 1e-15 * (abs(x) + (hi - lo)):
            break
    return x, c1, c2


def _side_zeros(sys: PwsSystem, which: str, xs: List[float],
                vs: List[float], tiny: float) -> List[float]:
    """Zeros of one side's g(., 0) on the grid xs with values vs. The grid
    only seeds: each local minimum of |g| (strict on the left, so a
    plateau of equal values, g = 0 on the whole side, is one seed), then
    the mid-point of each sign-change cell, unless a zero kept yet lies in
    the cell with |g_x| > |g_xx| * cell: g is then monotone over the cell
    to second order, so that zero is its only one (a double zero beside a
    simple one still seeds the cell).
    From each seed _newton_zero runs; a zero it reaches without leaving
    the window or two cells around its seed, with |g| <= tiny, is kept."""
    g, side = sys.side(which)[1], sys.side_fn(which)
    n = len(xs) - 1
    mag = [abs(v) for v in vs] + [math.inf]   # inf: past either end
    seeds, cells = [], []
    for i in range(n + 1):
        if mag[i] < mag[i - 1] and mag[i] <= mag[i + 1]:
            seeds.append(xs[i])
        if i < n and (vs[i] < 0.0 < vs[i + 1] or vs[i + 1] < 0.0 < vs[i]):
            cells.append((xs[i], xs[i + 1]))
    reach = 2.0 * (xs[-1] - xs[0]) / n
    out, lone = [], []   # the kept zeros, and those g is monotone around

    def polish(s: float) -> None:
        got = _newton_zero(g, s, max(xs[0], s - reach), min(xs[-1], s + reach))
        if got is not None and abs(side(got[0], 0.0)[1]) <= tiny:
            x, c1, c2 = got
            out.append(x)
            if abs(c1) > abs(c2) * reach:   # c2 = g_xx / 2, reach = 2 cells
                lone.append(x)
    for s in seeds:
        polish(s)
    for a, b in cells:
        if not any(a <= x <= b for x in lone):
            polish(0.5 * (a + b))
    return out


def decompose_sigma(sys: PwsSystem) -> SigmaDecomposition:
    """Split Sigma into crossing/sliding intervals with candidate tangencies.

    Candidate tangencies are the zeros of each g(., 0) factor found
    separately by _side_zeros: a uniform grid of SCAN_CELLS cells seeds
    Newton's method on g/g_x at each local minimum of |g|, then at each
    sign change no such zero explains, and a zero it reaches within two
    cells of its seed is kept.
    Working per factor keeps double tangencies, where the product h has no
    sign change, and zeros sitting where the other factor is tiny, where h
    is numerically mush, detectable. Candidates closer than
    max(MERGE_TOL, 1e-9 width) are merged at their mean. Stretches where
    both factors vanish are flat: neither crossing nor sliding.
    """
    w = sys.window
    n = SCAN_CELLS
    xs = [w.x_lo + w.width * i / n for i in range(n + 1)]
    up, down = sys.side_fn("upper"), sys.side_fn("lower")
    vp = [up(x, 0.0)[1] for x in xs]
    vm = [down(x, 0.0)[1] for x in xs]
    tiny_p = 1e-12 * max(1.0, max(abs(v) for v in vp))
    tiny_m = 1e-12 * max(1.0, max(abs(v) for v in vm))

    flat: List[Tuple[float, float]] = []
    run = 0   # grid points in the current stretch where both g are tiny
    for i, v in enumerate(vp + [math.inf]):   # inf ends the last stretch
        if abs(v) <= tiny_p and abs(vm[i]) <= tiny_m:
            run += 1
        else:
            if run > 2:
                flat.append((xs[i - run], xs[i - 1]))
            run = 0

    candidates = _side_zeros(sys, "upper", xs, vp, tiny_p) \
        + _side_zeros(sys, "lower", xs, vm, tiny_m)
    candidates.sort()
    merged: List[float] = []
    for c in candidates:
        if merged and abs(c - merged[-1]) <= max(MERGE_TOL, 1e-9 * w.width):
            merged[-1] = 0.5 * (merged[-1] + c)
        else:
            merged.append(c)

    cuts = [w.x_lo] + [c for c in merged if w.x_lo < c < w.x_hi] + [w.x_hi]
    crossing: List[Tuple[float, float]] = []
    sliding: List[Tuple[float, float]] = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        if b - a <= MERGE_TOL:
            continue
        if any(fa <= a and b <= fb for fa, fb in flat):
            continue
        x = 0.5 * (a + b)
        hm = h_value(sys, x)
        if hm > 0:
            crossing.append((a, b))
        elif hm < 0:
            sliding.append((a, b))
    return SigmaDecomposition(crossing, sliding, merged)
