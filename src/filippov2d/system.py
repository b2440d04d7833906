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
rounding without a multiplicity guess.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Protocol, Tuple

from .cutoffs import PsiSpec
from .fieldexpr import as_field

# Sigma scan: grid cells across the window, the distance below which two
# zeros are one candidate, and the cap on Newton steps from one seed
SCAN_CELLS = 1000
MERGE_TOL = 1e-10
_NEWTON_STEPS = 40


class ScalarFunc(Protocol):
    """A field component: its value and its Taylor jet in x.

    Expression and sheared fields also offer side_with(g): the compiled
    (x, y) -> (self, g) that _side_fn hands to the flow and the sliding
    field, one call per point."""

    def value(self, x: float, y: float) -> float: ...

    def x_jet(self, x: float, y: float, order: int) -> list[float]: ...


def _side_fn(f, g):
    """One callable (x, y) -> (f, g) for a side: the pair's compiled side
    function when f offers one for g (expression and sheared sides), else
    one .value call on each."""
    pair = getattr(f, "side_with", None)
    fn = pair(g) if pair is not None else None
    if fn is None:
        f_value, g_value = f.value, g.value

        def fn(x, y):
            return f_value(x, y), g_value(x, y)
    return fn


class NotSliding(ValueError):
    pass


class DegenerateDenominator(ArithmeticError):
    pass


@dataclass(frozen=True)
class Window:
    x_lo: float
    x_hi: float
    y_lo: float
    y_hi: float

    def __post_init__(self):
        if not (self.x_lo < self.x_hi):
            raise ValueError("window needs x_lo < x_hi")
        if not (self.y_lo < 0.0 < self.y_hi):
            raise ValueError("window must straddle Sigma: y_lo < 0 < y_hi")

    @property
    def width(self) -> float:
        return self.x_hi - self.x_lo


@dataclass
class PwsSystem:
    f_plus: ScalarFunc
    g_plus: ScalarFunc
    f_minus: ScalarFunc
    g_minus: ScalarFunc
    window: Window
    # set by build_unfolded on a sheared system: the transition system the
    # shear conjugates it to, with the upper profile psi+ (None: zero)
    transition: Tuple[PwsSystem, PsiSpec | None] | None = field(
        default=None, repr=False)
    _g_scales: dict = field(default_factory=dict, repr=False)

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

    def sigma_g_scale(self, which: str) -> float:
        """1 + max |g(x, 0)| over a coarse Sigma sample; tolerance scale."""
        got = self._g_scales.get(which)
        if got is None:
            g = self.g_plus if which == "upper" else self.g_minus
            w = self.window
            n = 64
            m = 0.0
            for i in range(n + 1):
                x = w.x_lo + (w.x_hi - w.x_lo) * i / n
                m = max(m, abs(g.value(x, 0.0)))
            got = 1.0 + m
            self._g_scales[which] = got
        return got


def h_value(sys: PwsSystem, x: float) -> float:
    """h(x) = g+(x,0) g-(x,0); sign classifies the Sigma point."""
    return sys.g_plus.value(x, 0.0) * sys.g_minus.value(x, 0.0)


def sliding_convex_coefficient(sys: PwsSystem, x: float) -> float:
    """Coefficient a(x) with Filippov field = a Z+ + (1-a) Z- on Sigma_s."""
    gp = sys.g_plus.value(x, 0.0)
    gm = sys.g_minus.value(x, 0.0)
    den = gm - gp
    if den == 0.0:
        raise DegenerateDenominator(f"g- - g+ vanishes at x={x}")
    return gm / den


def sliding_field(sys: PwsSystem, x: float) -> float:
    """Sliding (Filippov) velocity along Sigma at x.

    Defined only where h(x) < 0; raises NotSliding otherwise and
    DegenerateDenominator when g- - g+ is numerically zero relative to the
    component scale. Each side is one side-function call, so a sheared
    side evaluates psi once (h and a(x) read g alone: one .value each).
    """
    fp, gp = _side_fn(*sys.upper())(x, 0.0)
    fm, gm = _side_fn(*sys.lower())(x, 0.0)
    if gp * gm >= 0.0:
        raise NotSliding(f"h(x) >= 0 at x={x}; not in a sliding segment")
    den = gm - gp
    scale = abs(gm) + abs(gp)
    if abs(den) <= 1e-12 * max(1.0, scale):
        raise DegenerateDenominator(f"g- - g+ ~ 0 at x={x}")
    return (fp * gm - fm * gp) / den


@dataclass
class SigmaDecomposition:
    crossing: List[Tuple[float, float]]
    sliding: List[Tuple[float, float]]
    tangency_candidates: List[float]
    flat_intervals: List[Tuple[float, float]]


def _newton_zero(g, x: float, lo: float, hi: float) -> float | None:
    """Schröder's iteration from x: Newton's method on u = g/g_x, whose
    zeros are all simple whatever g's multiplicity there. The step
    u / u_x = q / (1 - 2 q c2/c1), q = c0/c1, is taken from g's order-2
    x-jet (c0, c1, c2) in ratios, because c1^2 underflows next to
    high-order zeros. A step below 1e-15 of |x| + (hi - lo) ends the
    iteration; None once it leaves [lo, hi] or meets a critical point
    of g."""
    for _ in range(_NEWTON_STEPS):
        c0, c1, c2 = g.x_jet(x, 0.0, 2)
        if c0 == 0.0:
            return x
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
    return x


def _side_zeros(g, xs: List[float], vs: List[float],
                tiny: float) -> List[float]:
    """Zeros of one g(., 0) on the grid xs with values vs. The grid only
    seeds: each local minimum of |g| (strict on the left, so a plateau of
    equal values, g = 0 on the whole side, is one seed) and the mid-point
    of each sign-change cell. From each seed _newton_zero runs; a zero it
    reaches without leaving the window or two cells around its seed, with
    |g| <= tiny, is kept."""
    n = len(xs) - 1
    mag = [abs(v) for v in vs]
    seeds = [xs[i] for i in range(n + 1)
             if (i == 0 or mag[i] < mag[i - 1])
             and (i == n or mag[i] <= mag[i + 1])]
    seeds += [0.5 * (xs[i] + xs[i + 1]) for i in range(n)
              if (vs[i] < 0.0 < vs[i + 1]) or (vs[i + 1] < 0.0 < vs[i])]
    reach = 2.0 * (xs[-1] - xs[0]) / n
    out: List[float] = []
    for s in seeds:
        x = _newton_zero(g, s, max(xs[0], s - reach), min(xs[-1], s + reach))
        if x is not None and abs(g.value(x, 0.0)) <= tiny:
            out.append(x)
    return out


def decompose_sigma(sys: PwsSystem) -> SigmaDecomposition:
    """Split Sigma into crossing/sliding intervals with candidate tangencies.

    Candidate tangencies are the zeros of each g(., 0) factor found
    separately by _side_zeros: a uniform grid of SCAN_CELLS cells seeds
    Newton's method on g/g_x at each local minimum of |g| and each sign
    change, and a zero it reaches within two cells of its seed is kept.
    Working per factor keeps double tangencies, where the product h has no
    sign change, and zeros sitting where the other factor is tiny, where h
    is numerically mush, detectable. Candidates closer than
    max(MERGE_TOL, 1e-9 width) are merged at their mean. Stretches where
    both factors vanish are reported as flat.
    """
    w = sys.window
    n = SCAN_CELLS
    xs = [w.x_lo + w.width * i / n for i in range(n + 1)]
    vp = [sys.g_plus.value(x, 0.0) for x in xs]
    vm = [sys.g_minus.value(x, 0.0) for x in xs]
    tiny_p = 1e-12 * max(1.0, max(abs(v) for v in vp))
    tiny_m = 1e-12 * max(1.0, max(abs(v) for v in vm))

    flat: List[Tuple[float, float]] = []
    i = 0
    while i <= n:
        if abs(vp[i]) <= tiny_p and abs(vm[i]) <= tiny_m:
            j = i
            while j + 1 <= n and abs(vp[j + 1]) <= tiny_p \
                    and abs(vm[j + 1]) <= tiny_m:
                j += 1
            if j > i + 1:
                flat.append((xs[i], xs[j]))
            i = j + 1
        else:
            i += 1

    candidates = _side_zeros(sys.g_plus, xs, vp, tiny_p) \
        + _side_zeros(sys.g_minus, xs, vm, tiny_m)
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
        hm = h_value(sys, 0.5 * (a + b))
        if hm > 0:
            crossing.append((a, b))
        elif hm < 0:
            sliding.append((a, b))
        else:
            flat.append((a, b))
    return SigmaDecomposition(crossing, sliding, merged, flat)
