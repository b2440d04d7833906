"""Smooth cutoff steps and the piecewise plateau profile psi.

cutoff_up(x; r1, r2) is the C-infinity step that is exactly 0 for x <= r1,
exactly 1 for x >= r2 and 1 / (1 + exp(eta)) in between, with
eta = 1/(x - r1) + 1/(x - r2). It is exactly flat (0 or 1, all derivatives
0) at r1 and r2 and wherever |eta| >= 700, within about 1/700 of either:
psi is exactly flat at and next to its knots by the cutoff alone.

psi assembles d plateau bumps from a knot vector k of length 3d+1: knots
k_1 < ... < k_{2d+1}, then d plateau heights. Bump i rises on
(k_{2i-1}, k_{2i}] and falls on (k_{2i}, k_{2i+1}]. If the knots are not
strictly ascending, the fallback branch k_{2d+2} * cutoff_up(x; r1, r2)
is used instead (r1, r2 supplied separately; a PsiSpec without them is
refused at construction).

The flow reads psi and psi' in closed form: s' = q * nu2 with
s = cutoff_up, q = s(1 - s), nu2 = 1/(x-r1)^2 + 1/(x-r2)^2. cutoff_jet
and psi_jet give derivatives of any order as Taylor jets (fieldexpr).

That float arithmetic is one psi template, Python source with two
bodies behind one piece lookup (_piece_lookup, which reads the piece
table PsiSpec.pieces, as _psi_piece does): the full body (_psi_source,
_CUTOFF's s and d1) sets psi and psi', the slope body (_slope_source)
psi' alone, through the same float operations on the same values.
_cutoff_core, each profile's psi function (compiled on first use and
kept, PsiSpec._psi_fn) and every sheared side function
(unfolding._compile_sheared, which evaluates psi inline, with no call,
and takes the slope body when no transition field reads y) are
generated from it, so they give the same bits. fieldexpr.generated_fn
builds each of them and compiles a source once: profiles of one knot
count share one code object, their knots and piece table being globals
of each function's own.

cutoff_jet and psi_jet are prefix-stable like every fieldexpr jet: the
order-n jet is the head of any higher-order one, bit for bit.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cached_property
from typing import Optional, Tuple

from .fieldexpr import (Jet, generated_fn, jet_constant, jet_div, jet_exp,
                        jet_variable)

_ETA_SAT = 700.0  # exp saturation guard


# the psi template (module docstring), source on x: _CUTOFF sets (s, d1)
# to cutoff_up and its x-derivative on (r1, r2); _psi_source puts the
# piece lookup in front and leaves (p, dp) = (psi, psi')
_CUTOFF = f"""\
if x <= r1:
    s = d1 = 0.0
elif x >= r2:
    s, d1 = 1.0, 0.0
else:
    t1 = 1.0 / (x - r1)
    t2 = 1.0 / (x - r2)
    eta = t1 + t2
    if eta >= {_ETA_SAT!r}:
        s = d1 = 0.0
    elif eta <= {-_ETA_SAT!r}:
        s, d1 = 1.0, 0.0
    elif eta >= 0.0:
        u = _exp(-eta)
        s = u / (1.0 + u)
        d1 = (t1 * t1 + t2 * t2) * (u / (1.0 + u) ** 2)
    else:
        e = _exp(eta)
        s = 1.0 / (1.0 + e)
        d1 = (t1 * t1 + t2 * t2) * (e / (1.0 + e) ** 2)
"""


# the full body's tail on a knot piece: (p, dp) from (s, d1) and the
# piece's signed height sh
_KNOT_TAIL = "p = sh * s if j % 2 else -sh * (1.0 - s)\ndp = sh * d1\n"

# the slope body on the piece (r1, r2] of signed height sh: dp = sh * d1
# with _CUTOFF's d1, the same float operations on the same values (its two
# exp branches are one on |eta|), so sh * 0.0 where d1 is 0.0 and a
# falling piece keeps -h * 0.0 = -0.0; flat is the test of the piece's
# flat ends
_SLOPE = f"""\
if {{flat}}:
    dp = sh * 0.0
else:
    t1 = 1.0 / (x - r1)
    t2 = 1.0 / (x - r2)
    a = abs(t1 + t2)
    if a >= {_ETA_SAT!r}:
        dp = sh * 0.0
    else:
        w = _exp(-a)
        dp = sh * ((t1 * t1 + t2 * t2) * (w / (1.0 + w) ** 2))
"""


# (s, s') of cutoff_up at x; r1 < r2 is the caller's to check
_cutoff_core = generated_fn("x, r1, r2", _CUTOFF, "s, d1", {})


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


class PsiSpec:
    """Plateau profile: d bumps, knot-and-height vector k (length 3d+1),
    and a fallback window (r1, r2), used and required when the knots are
    degenerate (not strictly ascending). Checked and split into knots
    and heights at construction; psi's function is compiled on first use
    and kept (_psi_fn)."""

    def __init__(self, d: int, k: Tuple[float, ...],
                 r1: Optional[float] = None, r2: Optional[float] = None):
        if d < 1:
            raise ValueError("need d >= 1")
        if len(k) != 3 * d + 1:
            raise ValueError(
                f"k must have length 3d+1 = {3 * d + 1}, got {len(k)}")
        if r1 is not None and r2 is not None and not r1 < r2:
            raise ValueError("fallback window needs r1 < r2")
        self.d, self.k, self.r1, self.r2 = d, k, r1, r2
        self.knots, self.heights = k[: 2 * d + 1], k[2 * d + 1:]
        self._ascending = all(a < b for a, b in zip(self.knots[:-1],
                                                     self.knots[1:]))
        if not self._ascending and (r1 is None or r2 is None):
            raise ValueError("degenerate knots need a fallback (r1, r2) window")
        # the piece table (sh, r1, r2): [0] the fallback window, rising to
        # its height; [j], 1 <= j <= 2d, when the knots ascend, the piece
        # (knots[j - 1], knots[j]] where bisect_left puts x, of bump
        # (j - 1) // 2: its height h on a rise (odd j), -h on a fall
        pieces = [(self.fallback_height, r1, r2)]
        for i, h in enumerate(self.heights if self._ascending else ()):
            a, b, c = self.knots[2 * i: 2 * i + 3]
            pieces += [(h, a, b), (-h, b, c)]
        self.pieces = tuple(pieces)

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
        return self.r1, self.r2

    @cached_property
    def _psi_fn(self):
        """x -> (psi, psi'): compiled from _psi_source on first use."""
        body, names = _psi_source(self)
        return generated_fn("x", body, "p, dp", names)


def _psi_piece(spec: PsiSpec, x: float):
    """(h, r1, r2, falling): psi = h * cutoff_up(x; r1, r2) on the piece
    (r1, r2] that bisection finds x in (h * (1 - cutoff_up) if falling),
    or 0 with r1 None off the support; read from the piece table, as the
    generated sources read it. No knot takes a tolerance test: the cutoff
    alone is flat next to a knot (module docstring)."""
    if not spec._ascending:
        h, r1, r2 = spec.pieces[0]
        return h, r1, r2, False
    j = bisect_left(spec.knots, x)   # knots[j - 1] < x <= knots[j]
    if j == 0 or j == len(spec.knots):   # off the support (or x is nan)
        return 0.0, None, None, False
    sh, r1, r2 = spec.pieces[j]
    falling = j % 2 == 0
    return -sh if falling else sh, r1, r2, falling


def _psi_source(spec: PsiSpec) -> Tuple[str, dict]:
    """The full body: the source that sets (p, dp) to psi and psi' of
    spec at x, and the names it reads."""
    if not spec._ascending:
        return _piece_lookup(spec, _CUTOFF + "p, dp = sh * s, sh * d1\n", "")
    return _piece_lookup(spec, _CUTOFF + _KNOT_TAIL, "p = dp = 0.0\n")


def _slope_source(spec: PsiSpec) -> Tuple[str, dict]:
    """The slope body: the source that sets dp alone to psi' of spec at x,
    as the full body's dp, bit for bit, and the names it reads. x is right
    of a knot piece's r1 (bisection put it there): only a fallback window
    tests it."""
    flat = "x >= r2" if spec._ascending else "x <= r1 or x >= r2"
    return _piece_lookup(spec, _SLOPE.format(flat=flat), "dp = 0.0\n")


def _piece_lookup(spec: PsiSpec, piece: str, off: str) -> Tuple[str, dict]:
    """piece (source on x and its piece's sh, r1, r2) behind the lookup of
    x's piece in the table, as _psi_piece finds it: bisect_left on the
    knots, with off (source) off the support or at nan; or the fallback
    window. r1 < r2 on every piece: knots ascend strictly, and PsiSpec
    checked the window."""
    if not spec._ascending:
        return "sh, r1, r2 = _pieces[0]\n" + piece, {"_pieces": spec.pieces}
    return (f"j = _bisect_left(_knots, x)\n"
            f"if j == 0 or j == {len(spec.knots)}:\n"
            f"    {off}"
            "else:\n"
            "    sh, r1, r2 = _pieces[j]\n"
            + "".join("    " + line for line in piece.splitlines(True)),
            {"_knots": spec.knots, "_pieces": spec.pieces,
             "_bisect_left": bisect_left})


def _psi_core(spec: PsiSpec, x: float) -> Tuple[float, float]:
    """(psi, psi') of spec at x."""
    return spec._psi_fn(x)


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
