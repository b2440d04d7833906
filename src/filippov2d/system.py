"""Two-zone piecewise-smooth systems on a rectangular window.

The plane is split by the switching line Sigma = {y = 0}. A system carries
an upper field Z+ = (f+, g+) acting on y > 0 and a lower field Z- = (f-, g-)
on y < 0. On Sigma the product h(x) = g+(x,0) * g-(x,0) separates crossing
points (h > 0) from sliding segments (h < 0); on sliding segments the
convex-combination (Filippov) field drives the dynamics along Sigma.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Protocol, Tuple

from .fieldexpr import as_field


class ScalarFunc(Protocol):
    """A field component: value, first partials and the Taylor jet in x."""

    def value(self, x: float, y: float) -> float: ...

    def dx(self, x: float, y: float) -> float: ...

    def dy(self, x: float, y: float) -> float: ...

    def x_jet(self, x: float, y: float, order: int) -> list[float]: ...


class WindowMismatch(ValueError):
    pass


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

    def contains(self, x: float, y: float, pad: float = 0.0) -> bool:
        return (self.x_lo - pad <= x <= self.x_hi + pad
                and self.y_lo - pad <= y <= self.y_hi + pad)


@dataclass(frozen=True)
class NormalFormMeta:
    """Tangency orders (m+, m-) at the origin for canonical-form systems."""
    m_plus: int
    m_minus: int


@dataclass
class PwsSystem:
    f_plus: ScalarFunc
    g_plus: ScalarFunc
    f_minus: ScalarFunc
    g_minus: ScalarFunc
    window: Window
    meta: NormalFormMeta | None = None
    _g_scales: dict = field(default_factory=dict, repr=False)

    @classmethod
    def from_strings(cls, f_plus, g_plus, f_minus, g_minus, window,
                     meta=None) -> "PwsSystem":
        return cls(as_field(f_plus), as_field(g_plus),
                   as_field(f_minus), as_field(g_minus), window, meta)

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

def sliding_field(sys: PwsSystem, x: float, tol_rel: float = 1e-12) -> float:
    """Sliding (Filippov) velocity along Sigma at x.

    Defined only where h(x) < 0; raises NotSliding otherwise and
    DegenerateDenominator when g- - g+ is numerically zero relative to the
    component scale.
    """
    gp = sys.g_plus.value(x, 0.0)
    gm = sys.g_minus.value(x, 0.0)
    if gp * gm >= 0.0:
        raise NotSliding(f"h(x) >= 0 at x={x}; not in a sliding segment")
    den = gm - gp
    scale = abs(gm) + abs(gp)
    if abs(den) <= tol_rel * max(1.0, scale):
        raise DegenerateDenominator(f"g- - g+ ~ 0 at x={x}")
    fp = sys.f_plus.value(x, 0.0)
    fm = sys.f_minus.value(x, 0.0)
    return (fp * gm - fm * gp) / den


@dataclass
class SigmaDecomposition:
    crossing: List[Tuple[float, float]]
    sliding: List[Tuple[float, float]]
    tangency_candidates: List[float]
    flat_intervals: List[Tuple[float, float]]

    def kind_at(self, x: float) -> str:
        for a, b in self.sliding:
            if a < x < b:
                return "sliding"
        for a, b in self.crossing:
            if a < x < b:
                return "crossing"
        for a, b in self.flat_intervals:
            if a <= x <= b:
                return "flat"
        return "boundary"


def _side_zeros(g, xs: List[float], vs: List[float], tiny: float,
                n: int) -> List[float]:
    """Zeros of one g(., 0) on the grid: exact hits, sign changes (bisected
    on that factor, which stays well conditioned where the other side is
    tiny), and even-order touches found through a derivative sign change
    around a small interior minimum of |g|."""
    out: List[float] = []
    i = 0
    while i <= n:
        if abs(vs[i]) <= tiny:
            # a high-multiplicity zero flattens g below the threshold over
            # several grid cells; report the run's deepest point once
            j = i
            best = i
            while j + 1 <= n and abs(vs[j + 1]) <= tiny:
                j += 1
                if abs(vs[j]) < abs(vs[best]):
                    best = j
            out.append(xs[best])
            i = j + 1
        else:
            i += 1
    for i in range(n):
        a, b = vs[i], vs[i + 1]
        if abs(a) <= tiny or abs(b) <= tiny or (a > 0) == (b > 0):
            continue
        lo, hi = xs[i], xs[i + 1]
        while hi - lo > 1e-13:
            mid = 0.5 * (lo + hi)
            vm = g.value(mid, 0.0)
            if vm == 0.0:
                lo = hi = mid
                break
            if (vm > 0) == (a > 0):
                lo = mid
            else:
                hi = mid
        out.append(0.5 * (lo + hi))
    for i in range(1, n):
        v0, v1, v2 = vs[i - 1], vs[i], vs[i + 1]
        if abs(v0) <= tiny or abs(v2) <= tiny or (v0 > 0) != (v2 > 0):
            continue
        if not (abs(v1) < abs(v0) and abs(v1) < abs(v2)):
            continue
        curv = abs(v0 - 2.0 * v1 + v2)
        if abs(v1) > max(tiny, 0.75 * curv):
            continue  # the dip bottoms out well off zero
        d0 = g.dx(xs[i - 1], 0.0)
        d2 = g.dx(xs[i + 1], 0.0)
        if d0 == 0.0 or d2 == 0.0 or (d0 > 0) == (d2 > 0):
            continue
        lo, hi = xs[i - 1], xs[i + 1]
        while hi - lo > 1e-13:
            mid = 0.5 * (lo + hi)
            dm = g.dx(mid, 0.0)
            if dm == 0.0:
                lo = hi = mid
                break
            if (dm > 0) == (d0 > 0):
                lo = mid
            else:
                hi = mid
        x_t = 0.5 * (lo + hi)
        # curv ~ |g''| step^2 is the value scale of g across one grid cell
        if abs(g.value(x_t, 0.0)) <= max(tiny, 1e-8 * curv):
            out.append(x_t)
    return out


def decompose_sigma(sys: PwsSystem, resolution: float | None = None,
                    merge_tol: float = 1e-10) -> SigmaDecomposition:
    """Split Sigma into crossing/sliding intervals with candidate tangencies.

    Candidate tangencies are the zeros of each g(., 0) factor found
    separately (sign changes plus even-order touches) on a uniform grid
    (default step: 1e-3 of the window width). Working per factor keeps
    double tangencies, where the product h has no sign change, and zeros
    sitting where the other factor is tiny, where h is numerically mush,
    detectable. Stretches where both factors vanish are reported as flat.
    """
    w = sys.window
    if resolution is None:
        resolution = 1e-3 * w.width
    n = max(8, int(round(w.width / resolution)))
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

    candidates = _side_zeros(sys.g_plus, xs, vp, tiny_p, n) \
        + _side_zeros(sys.g_minus, xs, vm, tiny_m, n)
    candidates.sort()
    merged: List[float] = []
    for c in candidates:
        if merged and abs(c - merged[-1]) <= max(merge_tol, 1e-9 * w.width):
            merged[-1] = 0.5 * (merged[-1] + c)
        else:
            merged.append(c)

    cuts = [w.x_lo] + [c for c in merged if w.x_lo < c < w.x_hi] + [w.x_hi]
    crossing: List[Tuple[float, float]] = []
    sliding: List[Tuple[float, float]] = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        if b - a <= merge_tol:
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


def system_distance(a: PwsSystem, b: PwsSystem, n_grid: int = 201) -> float:
    """C^1-style distance: sum over the four component pairs of the grid max
    of |df| + |df_x| + |df_y| on the (shared) window.

    Grid maxima are lower bounds for the true sup; 201 x 201 is the
    documented default resolution.
    """
    wa, wb = a.window, b.window
    if (wa.x_lo, wa.x_hi, wa.y_lo, wa.y_hi) != (wb.x_lo, wb.x_hi, wb.y_lo, wb.y_hi):
        raise WindowMismatch(f"windows differ: {wa} vs {wb}")
    xs = [wa.x_lo + wa.width * i / (n_grid - 1) for i in range(n_grid)]
    ys = [wa.y_lo + (wa.y_hi - wa.y_lo) * j / (n_grid - 1) for j in range(n_grid)]
    pairs = [(a.f_plus, b.f_plus), (a.g_plus, b.g_plus),
             (a.f_minus, b.f_minus), (a.g_minus, b.g_minus)]
    total = 0.0
    for fa, fb in pairs:
        worst = 0.0
        for x in xs:
            for y in ys:
                d = (abs(fa.value(x, y) - fb.value(x, y))
                     + abs(fa.dx(x, y) - fb.dx(x, y))
                     + abs(fa.dy(x, y) - fb.dy(x, y)))
                if d > worst:
                    worst = d
        total += worst
    return total
