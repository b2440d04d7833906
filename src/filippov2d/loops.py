"""Closed orbits: assembly, classification, and counting scenarios.

Loops are stitched from arcs produced by the flow engine (upper/lower
transits, sliding stretches), validated for closure, and classified by how
they meet the switching line. On top of that sit the census builders:

* canonical_critical_loop -- the two-arc loop joining a transversal
  crossing to an odd tangency on each side;
* find_crossing_cycles -- sign-change scan of the sigma displacement with
  integration-verified witnesses;
* scenario_thm2 .. scenario_thm5 -- preconfigured unfoldings realising
  prescribed counts of tangent orbits, nonsliding/critical loops, sliding
  loops and crossing limit cycles. Each returns its LoopCensus and checks
  its theorem's relation between (m, ell) and those counts itself.

Nothing here is synthesised from closed-form orbit formulas: every record
returned carries a trajectory that was actually integrated, so a successful
return certifies the advertised geometry up to the stated tolerances.

Every loop reported goes through one certificate, _certify, which its
witness builder ends in: given the witness's name and the runs it flew
(flow.Trajectory records: its legs, and a sliding stretch), it joins
their arcs and events into the loop, makes the one closure check and
classifies the loop as one of sliding-loop, critical,
crossing-nonsliding or crossing-limit-cycle, with its tangential contact
count; it compares both with the expected ones. It fails in three ways,
each a VerificationFailed naming the witness: the endpoints miss by more
than CLOSURE_TOL, the kind differs, or the contact count does. Only the
crossing-cycle witness edits a run first: an upper return that ends at
its cap becomes a crossing there.

Before that, _leg flies every leg of the canonical loop, _critical_witness,
_sliding_witness, _entry_crossing and thm3, and raises VerificationFailed
naming the leg unless it ends as planned (a crossing or a tangent arrival,
after n contacts where n is planned). Scans, harvests and the crossing-
cycle witness read a landing through maps._landed, whose NoArrival
_evaluable skips and find_crossing_cycles does not: a cycle leg that does
not land fails the census instead of dropping the root. thm2's walk checks
inline, and walks each tangent orbit once: from no point a counted orbit
touches, since by uniqueness that orbit is the one through the point.

Every plateau bump height is a pin, _pin: the height of the transition
system's upper orbit over the bump's peak, VerificationFailed unless it is
positive. Every thm3-thm5 unfolding is laid out by _pinned.

A scenario either returns its census or raises one of three classes:

* RangeError -- a refusal: the parameter it names is outside the range
  the construction supports;
* VerificationFailed -- a certificate or a stage failed (a loop that does
  not close, a root that is not bracketed, orbit data that could not be
  harvested), and the message names it;
* CensusMismatch -- every certificate held, but the counts break the
  theorem's relation.

A transit that cannot continue raises the flow layer's TransitFailure
family (a Sigma transit that ends off Sigma: maps.NoArrival), which the
scans skip and a scenario lets through.

Every root is a zero of a closure gap (the displacement, a landing gap,
the pseudo-equilibrium numerator), bracketed by a sign change of a scan
and polished by brentq in _root. A gap is one memo, _once, which its
scan, brentq and _root read alike: no point is evaluated twice. The root
must leave |gap| <= CLOSURE_TOL: a sign change made by a jump of the gap
raises VerificationFailed before any witness is integrated on it.

The displacement scans (_displacement_root, find_crossing_cycles) are
screened by the closed form, maps.displacement_closed: a scan point flies
only when the closed form declines it (None) or its |value| is at most
SCREEN_MARGIN, 1e2 CLOSURE_TOL; any other point yields the closed form,
for its sign alone. _root reads both ends of its bracket through the gap
before brentq does, so a screened end flies and every brentq iterate,
root and witness is what the flown scan gives. An end that fails to fly,
or flies to the other sign, is a defect of the screen: it raises
AssertionError, which no scan catches. _flank_dip flies every point, since
its minimum value, not a sign, sets thm5's lowered heights.

Searches and certificates fly on different systems of one unfolding. The
displacement (_displacement: the flank dips, the scans and their polish)
is taken on the transition system through the shear conjugacy
(maps.displacement_sigma); each witness then integrates the sheared
system itself. A crossing-cycle root whose witness does not close is
dropped; a thm4/thm5 critical root whose witness does not verify makes
the scenario fail.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import (Callable, Dict, Iterable, Iterator, List, NamedTuple,
                    Optional, Sequence, Tuple)

from .cutoffs import PsiSpec
from .flow import (Arc, Event, Trajectory, TransitFailure, integrate_smooth,
                   sliding_arc)
from .maps import (_flow_to_section, _landed, displacement_closed,
                   displacement_sigma)
from .numerics import brentq
from .system import PwsSystem, Window, h_value
from .tangency import multiplicity_at
from .unfolding import (CanonicalBase, UnfoldingSpec, build_transition,
                        build_unfolded)

CLOSURE_TOL = 1e-8
_CONTACT_TOL = 1e-6   # x-distance of a tangent junction from a zero of g
SCREEN_MARGIN = 1e2 * CLOSURE_TOL   # |closed-form D| above it: not flown


class RangeError(Exception):
    """Scenario parameter outside the range the construction supports."""


class VerificationFailed(Exception):
    """A certificate or a stage failed; the message names it. A failed
    root polish or cycle closure also keeps where it ended (at) and its gap
    there (NaN otherwise)."""

    def __init__(self, message: str, at: float = math.nan,
                 gap: float = math.nan):
        super().__init__(message)
        self.at, self.gap = at, gap


class CensusMismatch(Exception):
    """A census breaks its theorem's relation between (m, ell) and the
    counts."""


# --------------------------------------------------------------------------
# records


class LoopRecord(NamedTuple):
    """A verified closed orbit plus its switching-line fingerprint."""

    trajectory: Trajectory
    kind: str
    switching_points: Tuple[Tuple[float, str], ...]
    tangent_touch_count: int
    closure_residual: float


class DroppedRoot(NamedTuple):
    """A displacement root that find_crossing_cycles did not keep: its
    abscissa (the bracket's start when the polish could not fly), the stage
    that dropped it -- polish (_root found no zero) or witness (the loop did
    not close) -- and the gap it was left with (NaN when none was flown)."""

    q: float
    stage: str
    gap: float


class LoopCensus:
    """Counts of one scenario run, with integrated witnesses and orbits,
    which the scenario fills in as it goes; ell is None for a scan, which
    reads no ell."""

    def __init__(self, scenario: str, m_plus: int, m_minus: int,
                 ell: Optional[int], *,
                 witnesses: Optional[List[Tuple[str, LoopRecord]]] = None,
                 orbits: Optional[List[Trajectory]] = None,
                 spec: Optional[UnfoldingSpec] = None):
        self.scenario, self.m_plus, self.m_minus = scenario, m_plus, m_minus
        self.ell, self.beta_c, self.beta_s = ell, 0, 0
        self.beta_cro, self.beta_cri = {}, {}   # by contacts
        self.tangent_orbits: Dict[int, int] = {}   # by contacts
        self.witnesses = witnesses or []
        self.dropped_cycles: List[DroppedRoot] = []   # thm5
        self.orbits = orbits or []   # plain, no loops
        self.spec = spec   # the unfolding it was taken on


# --------------------------------------------------------------------------
# classification


def _dedup_sorted(xs: Sequence[float]) -> List[float]:
    out: List[float] = []
    for x in sorted(xs):
        if not out or x - out[-1] > _CONTACT_TOL:
            out.append(x)
    return out


def _grazes(sys: PwsSystem, side: str, x: float) -> bool:
    """True when x sits within _CONTACT_TOL of a zero of the side's g.

    Uses the first-order distance |g| / |g_x| (g from the side function,
    g_x from g's order-1 x-jet on either field kind), which separates
    junctions localized onto a tangency (distance ~ solver precision) from
    shallow transversal crossings near one (distance ~ the dip width) far
    more reliably than any fixed threshold on |g| itself.
    """
    g0, scale = sys.side_fn(side)(x, 0.0)[1], sys.sigma_g_scale(side)
    g1 = sys.side(side)[1].x_jet(x, 0.0, 1)[1]
    return abs(g0) <= max(abs(g1) * _CONTACT_TOL, 1e-12 * scale)


def _certify(sys: PwsSystem, name: str, runs: Sequence[Trajectory],
             kind: Optional[str] = None,
             contacts: Optional[int] = None) -> LoopRecord:
    """The one certificate of a loop witness (module docstring).

    The loop is the runs' arcs in order, with their events in time order
    less tangent arrivals (the touch before each is already an event).
    Its endpoints must agree within CLOSURE_TOL. It is a sliding-loop when
    it has a sliding arc, else critical when a switching point (a junction
    of arcs on different sides) is tangent, else crossing-nonsliding when
    it touches Sigma, else a crossing-limit-cycle. A junction is tangent
    within _CONTACT_TOL (in x) of a zero of an adjoining side's g. The
    contacts are the touch events and the tangent switching points, those
    closer than _CONTACT_TOL counting as one; a junction of same-side arcs
    ends a chained leg at a contact, which is a touch event already. The
    kind and contact count must be the expected ones, where given;
    VerificationFailed naming the witness otherwise.
    """
    arcs = [arc for run in runs for arc in run.arcs]
    events = sorted((ev for run in runs for ev in run.events
                     if ev.kind != "tangent-arrival"), key=lambda ev: ev.t)
    traj = Trajectory(arcs, events)
    if not arcs:
        raise VerificationFailed(f"{name} fails to close: trajectory has "
                                 "no arcs")
    (x0, y0), (x1, y1) = traj.start(), traj.end()
    residual = math.hypot(x1 - x0, y1 - y0)
    if residual > CLOSURE_TOL:
        raise VerificationFailed(
            f"{name} fails to close: endpoints ({x0:.12g}, {y0:.3e}) vs "
            f"({x1:.12g}, {y1:.3e}) differ by {residual:.3e} > "
            f"{CLOSURE_TOL:.1e}")
    switching: List[Tuple[float, str]] = []
    touch_xs = [ev.x for ev in traj.touch_events()]
    for a, b in zip(arcs, arcs[1:] + arcs[:1]):
        xj = float(a.x[-1])
        if a.kind == b.kind:
            # consecutive same-side arcs meet at a touch event of Sigma
            continue
        tangent = any(_grazes(sys, side, xj) for side in ("upper", "lower")
                      if side in (a.kind, b.kind))
        switching.append((xj, "tangent" if tangent else "crossing"))
    touch_xs.extend(x for x, lbl in switching if lbl == "tangent")
    ell = len(_dedup_sorted(touch_xs))
    if any(a.kind == "sliding" for a in arcs):
        got = "sliding-loop"
    elif any(lbl == "tangent" for _, lbl in switching):
        got = "critical"
    else:
        got = "crossing-nonsliding" if ell > 0 else "crossing-limit-cycle"
    if kind not in (None, got) or contacts not in (None, ell):
        want = kind if contacts is None else f"{kind} with {contacts}"
        raise VerificationFailed(
            f"{name} classified {got} with {ell} contacts, expected {want}")
    return LoopRecord(traj, got, tuple(switching), ell, residual)


def _leg(sys: PwsSystem, name: str, side: str, x0: float, *,
         end: str = "sigma-cross", contacts: Optional[int] = None,
         **transit) -> Trajectory:
    """One witness leg: the `side` transit of integrate_smooth from (x0, 0),
    with `transit` passed on. It must end with `end` (sigma-cross or
    tangent-arrival) after `contacts` contacts of Sigma when given;
    VerificationFailed naming the leg otherwise."""
    run = integrate_smooth(sys, side, (x0, 0.0), **transit)
    n = len(run.touch_events())
    if run.terminal.kind != end or contacts not in (None, n):
        after = "" if contacts is None else f" after {contacts}"
        want = "tangent arrival" if end == "tangent-arrival" else end
        raise VerificationFailed(
            f"{name}: {run.terminal.kind} after {n} contacts, expected "
            f"{want}{after}")
    return run


def _entry_crossing(sys: PwsSystem, tp: float) -> float:
    """Where the upper orbit arriving at (tp, 0) crossed Sigma last: its
    backward leg, which must cross back with no touch on the way."""
    return float(_leg(sys, f"backward upper leg from {tp:.6g}", "upper", tp,
                      contacts=0, time_sign=-1.0, chain=True).terminal.x)


# _once(f): the memo of a closure gap, f evaluated at most once at each
# point (module docstring); a point whose evaluation raised is not kept
_once = functools.cache


def _displacement(sys: PwsSystem) -> Callable[[float], float]:
    """x -> the displacement of sys at (x, 0), as every scan reads it:
    flown on sys's transition system (maps.displacement_sigma), once."""
    return _once(lambda x: displacement_sigma(sys, float(x)))


def _signed_area(arcs: Sequence[Arc]) -> float:
    """The shoelace area of the closed polygon through the arcs' samples:
    positive when it runs counterclockwise."""
    x = [v for a in arcs for v in a.x]
    y = [v for a in arcs for v in a.y]
    return 0.5 * math.fsum(x[i - 1] * y[i] - x[i] * y[i - 1]
                           for i in range(len(x)))


def _linspace(a: float, b: float, n: int) -> List[float]:
    """n evenly spaced points from a to b, both included: numpy's
    ``linspace``, whose float operations (i * step + a, then b) it repeats
    bit for bit."""
    step = (b - a) / (n - 1)
    return [i * step + a for i in range(n - 1)] + [b]


def _geomspace(a: float, b: float, n: int) -> List[float]:
    """n points from a > 0 to b > 0 in geometric progression, both
    included: numpy's ``geomspace`` (10 to the powers of a _linspace of
    log10 a to log10 b) on the platform's libm. numpy takes its own SIMD
    log10 and power on some CPUs, so its grids are within a few ulp of
    these, not bit for bit."""
    pts = [10.0 ** p for p in _linspace(math.log10(a), math.log10(b), n)]
    pts[0], pts[-1] = a, b
    return pts


# --------------------------------------------------------------------------
# roots of closure gaps


def _evaluable(f: Callable[[float], float],
               xs: Iterable[float]) -> Iterator[Tuple[float, float]]:
    """(x, f(x)) for each x of xs in turn, leaving out every point whose
    transit fails."""
    for x in xs:
        try:
            yield float(x), f(float(x))
        except TransitFailure:
            continue


def _screened_scan(sys: PwsSystem, disp: Callable[[float], float],
                   xs: Iterable[float]) -> Iterator[Tuple[float, float]]:
    """_evaluable over disp, sys's displacement, except that a point whose
    closed-form displacement tops SCREEN_MARGIN is not flown: it yields
    that value, for its sign alone."""
    for x in xs:
        v = displacement_closed(sys, float(x))
        if v is not None and abs(v) > SCREEN_MARGIN:
            yield float(x), v
        else:
            yield from _evaluable(disp, (x,))


def _root(stage: str, f: Callable[[float], float],
          samples: Iterable[Tuple[float, float]]) -> float:
    """Zero of the closure gap f, a _once memo, at the first sign change
    of samples.

    samples are (x, v) pairs in scan order, v being f(x) or a screened
    value of its sign. The first two successive ones of opposite sign
    bracket the root. Both ends are read through f and must keep the sign
    the scan read (AssertionError otherwise), then brentq polishes on f.
    Brent's method returns a point it evaluated, so f(root) is the memo's:
    the root must leave |f(root)| <= CLOSURE_TOL, which a sign change made
    by a jump of f does not. No sign change, or a root that breaks that
    contract, raises VerificationFailed naming the stage.
    """
    scanned: List[Tuple[float, float]] = []
    for x, v in samples:
        if scanned and scanned[-1][1] * v < 0.0:
            break
        scanned.append((x, v))
    else:
        span = (f"in [{scanned[0][0]:.9g}, {scanned[-1][0]:.9g}]"
                if scanned else "at no evaluable point")
        raise VerificationFailed(
            f"{stage}: no sign change over {len(scanned)} points {span}")
    for t, read in (scanned[-1], (x, v)):
        try:
            ft = f(t)
        except TransitFailure as exc:
            raise AssertionError(f"{stage}: the gap at {t:.12g}, {read:.3e} "
                                 f"in the scan, failed to fly: {exc}") from exc
        if not ft * read > 0.0:
            raise AssertionError(f"{stage}: the gap at {t:.12g} flew to "
                                 f"{ft:.3e}, the scan read {read:.3e}")
    a, b = sorted((scanned[-1][0], x))
    root = float(brentq(f, a, b, xtol=1e-13, rtol=4e-15))
    gap = f(root)
    if abs(gap) > CLOSURE_TOL:
        raise VerificationFailed(
            f"{stage}: the sign change in ({a:.9g}, {b:.9g}) holds no zero:"
            f" the gap at {root:.12g} is {gap:.3e}", root, gap)
    return root


# --------------------------------------------------------------------------
# canonical loop


def _hill_height(m: int) -> float:
    xh = -(m + 1) / (m + 2)
    return abs(xh ** (m + 1) * (xh + 1.0))


def canonical_base(m_plus: int = 1, m_minus: int = 1,
                   window: Optional[Window] = None) -> CanonicalBase:
    """Base system with one odd tangency per side at O and a crossing at -1.

    The shape is fixed: upper orbits are graphs of x^(m+1) * (x + 1) +
    const with f = +1, lower orbits mirror them with f = -1, so the arcs
    through (-1, 0) and the origin bound a closed two-arc loop. An even or
    non-positive multiplicity raises RangeError naming it.
    """
    for name, m in (("m_plus", m_plus), ("m_minus", m_minus)):
        if m < 1 or m % 2 == 0:
            raise RangeError(f"odd {name} >= 1 required, got {m}")
    if window is None:
        pad = 4.0 * max(_hill_height(m_plus), _hill_height(m_minus)) + 0.05
        window = Window(-1.75, 0.75, -pad, pad)
    phi_p = f"1.0 * ({m_plus + 2}*x + {m_plus + 1}.0)"
    phi_m = f"1.0 * ({m_minus + 2}*x + {m_minus + 1}.0)"
    return CanonicalBase.from_strings("1", phi_p, m_plus,
                                      "-1", phi_m, m_minus, window)


def canonical_critical_loop(m_plus: int = 1, m_minus: int = 1,
                            ) -> Tuple[PwsSystem, LoopRecord]:
    """Assemble and verify the two-arc loop through (-1, 0) and the origin.

    The upper leg must arrive tangentially at the origin, the lower leg
    must cross back (at -1, a crossing, or the certificate fails), the
    circuit must run clockwise, and the origin multiplicities must come
    out as requested; any failure raises VerificationFailed.
    """
    sys = canonical_base(m_plus, m_minus).system()
    up = _leg(sys, "upper arc from -1", "upper", -1.0, end="tangent-arrival",
              chain=True, stop_at=0.0)
    down = _leg(sys, "lower arc from 0", "lower", up.terminal.x,
                t_offset=up.terminal.t)
    mp, _ = multiplicity_at(sys.g_plus, 1.0, 0.0)
    mm, _ = multiplicity_at(sys.g_minus, -1.0, 0.0)
    if (mp, mm) != (m_plus, m_minus):
        raise VerificationFailed(
            f"origin multiplicities ({mp}, {mm}) != ({m_plus}, {m_minus})")
    if _signed_area(up.arcs + down.arcs) >= 0.0:
        raise VerificationFailed("loop is not traversed clockwise")
    return sys, _certify(sys, "canonical loop through -1", (up, down),
                         "critical", 1)


# --------------------------------------------------------------------------
# crossing cycles


def _crossing_cycle_witness(sys: PwsSystem, q: float) -> LoopRecord:
    """Integrate the closed orbit seeded at the crossing point (q, 0).

    The seed normally comes from a displacement sign change, whose noise
    floor can put it a few 1e-9 off the true cycle; where the return
    crossing is shallow that error is amplified far beyond the closure
    tolerance, so the seed is secant-polished against the integrated
    loop's own signed miss before giving up.
    """
    w = sys.window

    def legs(qq: float):
        low = integrate_smooth(sys, "lower", (qq, 0.0))
        land = _landed(low)
        # the upper return flies on sys capped at the line x = qq (with
        # sys's compiled sides), so one still above Sigma there gives a
        # signed miss too: its height
        cap = Window(w.x_lo, min(w.x_hi, float(qq)), w.y_lo, w.y_hi)
        up = integrate_smooth(sys.in_window(cap), "upper", (land, 0.0),
                              chain=True, t_offset=low.terminal.t)
        term = up.terminal
        if term.kind == "sigma-cross":
            miss = term.x - qq
        elif term.kind == "window-exit" \
                and abs(term.x - qq) <= 1e-6 * cap.width:
            # still above Sigma at the cap: convert the riding height to
            # abscissa units through the local upper slope
            gp = sys.side_fn("upper")(qq, 0.0)[1]
            miss = term.y / max(abs(gp), 1e-30)
        else:
            raise VerificationFailed(
                f"upper return from x={land:.9g} ended with {term.kind}")
        return (low, up), miss

    best, f0 = legs(q)
    if abs(f0) > 0.5 * CLOSURE_TOL:
        qa, fa = q, f0
        qb = q - 0.5 * f0
        for _ in range(6):
            if not w.x_lo <= qb <= w.x_hi:
                break  # a cycle lies in the window: no seed to try off it
            try:
                cand, fb = legs(qb)
            except (VerificationFailed, TransitFailure):
                break
            if abs(fb) < abs(f0):
                best, f0, q = cand, fb, qb
            if abs(fb) <= 0.25 * CLOSURE_TOL or fb == fa:
                break
            qa, fa, qb = qb, fb, qb - fb * (qb - qa) / (fb - fa)

    low, up = best
    term = up.terminal
    if term.kind == "window-exit":   # ends at the cap: close it on Sigma
        up = Trajectory(up.arcs, up.events[:-1]
                        + [Event(term.t, term.x, 0.0, "sigma-cross")])
    try:
        return _certify(sys, f"cycle through x={q:.9g}", (low, up))
    except VerificationFailed as exc:   # keep the best miss as its gap
        raise VerificationFailed(str(exc), gap=f0) from None


def find_crossing_cycles(
        sys: PwsSystem, scan_points: Sequence[float]
) -> Tuple[List[LoopRecord], List[DroppedRoot]]:
    """Isolated crossing cycles found as sign changes of the displacement.

    The displacement at x is the height gap, over the vertical line at x,
    between the upper orbit continuing the lower transit from (x, 0) and
    the line itself; its transversal zeros are cycles. Scan points that are
    not down-crossings are skipped, a profile that is numerically zero on
    most of the scan is treated as a continuum of closed orbits (no
    isolated cycles). The scan is screened by the closed form (module
    docstring). Each sign change between adjacent evaluable scan points
    is polished by _root on the scan's memo: one whose displacement
    at the root is above CLOSURE_TOL marks a jump, not a zero, and is
    dropped before any witness leg is integrated. Every other root is
    certified by integrating the actual loop, and dropped if that loop
    does not close. Returns the cycles, those that graze a tangency
    classified crossing-nonsliding, plain ones crossing-limit-cycle, and a
    DroppedRoot for each drop.
    """
    def down(x: float) -> bool:
        _, gp, _, gm = sys.at_sigma(x)
        return gp * gm > 0.0 and gm < 0.0

    disp = _displacement(sys)
    pts = sorted({float(p) for p in scan_points})
    found = dict(_screened_scan(sys, disp, filter(down, pts)))
    vals = [found.get(x, math.nan) for x in pts]
    finite = [v for v in vals if math.isfinite(v)]
    if not finite or sum(abs(v) < 1e-11 for v in finite) / len(finite) > 0.9:
        return [], []

    roots: List[float] = []
    dropped: List[DroppedRoot] = []
    for a_i in range(len(pts) - 1):
        # only adjacent grid points may bracket: a pair spanning a filtered
        # (sliding) stretch would hand brentq a zero that is not a cycle;
        # a NaN (filtered or failed point) makes no sign change
        if not vals[a_i] * vals[a_i + 1] < 0.0:
            continue
        try:
            root = _root("crossing cycle", disp,
                         [(pts[k], vals[k]) for k in (a_i, a_i + 1)])
        except TransitFailure:
            dropped.append(DroppedRoot(float(pts[a_i]), "polish", math.nan))
            continue
        except VerificationFailed as exc:
            dropped.append(DroppedRoot(exc.at, "polish", exc.gap))
            continue
        if not down(root):
            continue
        if roots and abs(root - roots[-1]) < 1e-10:
            continue
        roots.append(root)
    cycles: List[LoopRecord] = []
    for q in roots:
        try:
            cycles.append(_crossing_cycle_witness(sys, q))
        except VerificationFailed as exc:
            dropped.append(DroppedRoot(q, "witness", exc.gap))
    return cycles, dropped


# --------------------------------------------------------------------------
# cluster scaffolding shared by the unfolding scenarios


def _positive_cluster(m: int, delta: float) -> Tuple[float, ...]:
    return tuple(i * delta for i in range(1, m + 1))


def _negative_cluster(m: int, delta: float) -> Tuple[float, ...]:
    return tuple((i - m - 1) * delta for i in range(1, m + 1))


def _pinned_knots(lam: Sequence[float], delta: float) -> Tuple[float, ...]:
    # one plateau bump per odd-indexed split point, peaks at lam[0], lam[2], ...
    return (lam[0] - 2.0 * delta,) + tuple(lam) + (0.0,)


def _pinned(base: CanonicalBase, lam: Sequence[float], delta: float,
            heights: Sequence[float] = (),
            psi_minus: Optional[PsiSpec] = None) -> UnfoldingSpec:
    """The unfolding of thm3-thm5: the upper cluster lam, the lower cluster
    at O, and one plateau bump of each given height on _pinned_knots (no
    heights: the transition spec)."""
    psi_plus = PsiSpec(len(heights), _pinned_knots(lam, delta)
                       + tuple(heights)) if heights else None
    return UnfoldingSpec(base, lam, (0.0,) * base.m_minus, psi_plus,
                         psi_minus)


def _pin(hat: PwsSystem, start: Tuple[float, float], peak: float) -> float:
    """Height over x = peak of hat's upper orbit from start: the height
    that pins a plateau bump peaking there to that orbit. It must be
    positive; VerificationFailed naming the start, the peak and the height
    otherwise."""
    y = _flow_to_section(hat, start, peak).y
    if y <= 0.0:
        raise VerificationFailed(
            f"pin from ({start[0]:.9g}, {start[1]:.3e}) over x={peak:.6g}: "
            f"height {y:.3e} is not positive")
    return y


class _Pin(NamedTuple):
    tp: float        # tangency the bump peaks at
    conj: float      # landing of the lower transit from the tangency
    height: float    # upper orbit height over its own tangency


def _pin_data(hat: PwsSystem, peaks: Sequence[float],
              first: float) -> List[_Pin]:
    """The pin of each bump peaking at one of peaks, measured on the
    transition system: the upper orbit from the landing of the lower
    transit from the peak. That orbit must also pass positively over
    first, the first peak."""
    pins: List[_Pin] = []
    for tp in peaks:
        conj = _landed(integrate_smooth(hat, "lower", (tp, 0.0)))
        pins.append(_Pin(tp, conj, _pin(hat, (conj, 0.0), tp)))
        if tp != first:
            _pin(hat, (conj, 0.0), first)
    return pins


def _critical_witness(sys: PwsSystem,
                      tp: float) -> Tuple[LoopRecord, float]:
    """Loop dropping at the tangency tp: lower transit out, upper back in.

    Returns (record, crossing abscissa). The upper leg may graze earlier
    tangencies; it must arrive tangentially at tp itself.
    """
    low = _leg(sys, f"lower leg from {tp:.6g}", "lower", tp)
    conj = low.terminal.x
    up = _leg(sys, f"upper leg from {conj:.9g} to {tp:.6g}", "upper", conj,
              end="tangent-arrival", chain=True, stop_at=tp,
              t_offset=low.terminal.t)
    return _certify(sys, f"loop at {tp:.6g}", (low, up), "critical"), conj


def _sliding_witness(sys: PwsSystem, tp: float, gap_hi: float, *,
                     exit_scale: float) -> Tuple[LoopRecord, float]:
    """Sliding loop whose sliding arc starts at the visible tangency tp.

    The upper arc enters tangentially at tp, slides right through the
    repelling segment to the exit point (solved so the lower transit
    returns to the upper arc's entry crossing), and the lower arc closes.
    exit_scale > 0 estimates the exit's distance from tp and shapes the
    bracket, which walks toward tp and toward gap_hi until the landing gap
    changes sign: the root can sit anywhere from a hair right of tp to most
    of the gap. Returns (record, sliding exit abscissa).
    """
    x_left = _entry_crossing(sys, tp)

    @_once
    def land_gap(q: float) -> float:
        return _landed(integrate_smooth(sys, "lower", (q, 0.0))) - x_left

    eps = (gap_hi - tp) * 1e-6
    hi = gap_hi - eps
    a = tp + min(eps, max(0.02 * exit_scale, 1e-12))
    b = min(hi, tp + 50.0 * exit_scale)
    ga = land_gap(a)
    for _ in range(4):
        if ga > 0.0 or (a - tp) <= 4e-13:
            break
        a = tp + 0.02 * (a - tp)
        ga = land_gap(a)
    gb = land_gap(b)
    while gb >= 0.0 and b < hi:
        b = min(hi, tp + 8.0 * (b - tp))
        gb = land_gap(b)
    q_s = _root("sliding exit", land_gap, [(a, ga), (b, gb)])
    if h_value(sys, q_s) >= 0.0:
        raise VerificationFailed(
            f"exit point {q_s:.9g} is not inside the sliding segment")
    up = _leg(sys, f"upper leg from {x_left:.9g} to {tp:.6g}", "upper",
              x_left, end="tangent-arrival", contacts=1, chain=True,
              stop_at=tp)
    nudge = min(1e-9, (q_s - tp) * 1e-3)
    slide = sliding_arc(sys, tp + nudge, x_stop=q_s, t_offset=up.terminal.t)
    sl_term = slide.terminal
    if sl_term.kind != "sliding-exit":
        raise VerificationFailed(
            f"sliding leg ended with {sl_term.kind} at x={sl_term.x:.9g} "
            f"before reaching {q_s:.9g}")
    low = _leg(sys, f"lower leg from {q_s:.9g}", "lower", q_s,
               t_offset=sl_term.t)
    return _certify(sys, f"sliding loop at {tp:.6g}", (up, slide, low),
                    "sliding-loop"), q_s


def _displacement_root(sys: PwsSystem, a: float, b: float) -> float:
    """First sign change of the displacement on (a, b), fine-tailed near b.

    The profile typically stays positive across the gap and only dips below
    zero in a narrow well against the right endpoint, so the grid mixes a
    coarse sweep with a geometric tail clustering toward b.
    """
    gap = b - a
    xs = sorted({*_linspace(a + 0.02 * gap, b - 0.05 * gap, 25),
                 *(b - u for u in _geomspace(0.05 * gap, 2e-5 * gap, 30))})
    disp = _displacement(sys)
    return _root("displacement", disp, _screened_scan(sys, disp, xs))


def _flank_dip(sys: PwsSystem, left: float, peak: float) -> float:
    """Most negative displacement value on the approach to a pinned peak,
    every point flown: the value, not its sign, is read."""
    span = peak - left
    xs = [peak - u for u in _geomspace(0.5 * span, 1e-5 * span, 48)]
    vals = [v for _, v in _evaluable(_displacement(sys), xs)]
    if not vals:
        raise VerificationFailed(
            f"displacement not evaluable left of the peak at {peak:.6g}")
    return min(vals)


# --------------------------------------------------------------------------
# scenario: grouped tangent orbits of a one-sided cluster


def thm2_base(m_plus: int, visibility_of_O: str = "I", *,
              delta: float = 0.4) -> CanonicalBase:
    """thm2's base: (1, -+x^m) above Sigma (O invisible/visible), (-1, -1)
    below, in a window holding the split points i*delta."""
    if m_plus < 1 or m_plus % 2 == 0:
        raise RangeError(f"odd m_plus required, got {m_plus}")
    if visibility_of_O in ("L", "R"):
        raise RangeError("visibility case not supported by this construction")
    if visibility_of_O not in ("I", "V"):
        raise ValueError(f"unknown visibility {visibility_of_O!r}")
    ymax = 2.0 + (m_plus + 3) * delta
    window = Window(-(m_plus + 1) * delta, (m_plus + 3) * delta, -ymax, ymax)
    phi = "-1" if visibility_of_O == "I" else "1"
    return CanonicalBase.from_strings("1", phi, m_plus, "-1", "-1", 0, window)


def scenario_thm2(m_plus: int, visibility_of_O: str = "I", ell: int = 1, *,
                  delta: float = 0.4) -> LoopCensus:
    """Unfold (1, +-x^m) into a positive cluster with grouped tangent orbits.

    The tangency splits into simple points at i*delta. A plateau shear pins
    one reference orbit per group of ell consecutive visible points, so the
    orbit grazes exactly those; bumps past the last full group are raised
    high enough to force separate single-contact orbits. The census walks
    each visible point no counted orbit touches, follows its orbit both
    ways through grazes, and groups the orbits by contact count
    (tangent_orbits; the orbits themselves go to orbits). There must be (m + 1) // (2 ell)
    orbits with ell contacts when O is visible, (m - 1) // (2 ell) when it
    is invisible; CensusMismatch otherwise.

    Supports the invisible case fully and the visible one on a best-effort
    basis; the half-plane cases of even multiplicity are out of range.
    """
    base = thm2_base(m_plus, visibility_of_O, delta=delta)
    invis = visibility_of_O == "I"
    d = (m_plus - 1) // 2 if invis else (m_plus + 1) // 2
    if ell < 1 or (d > 0 and ell > d):
        raise RangeError(f"ell={ell} outside 1..{max(d, 1)}")
    lam = _positive_cluster(m_plus, delta)
    census = LoopCensus("thm2", m_plus, 0, ell,
                        spec=UnfoldingSpec(base, lam, ()))
    if d == 0:
        # multiplicity 1, invisible: the lone split point stays invisible,
        # and (m - 1) // (2 ell) = 0 orbits are due
        return census
    hat = build_transition(census.spec)
    vis_pts = tuple(lam[2 * i - 1] for i in range(1, d + 1)) if invis \
        else tuple(lam[2 * i - 2] for i in range(1, d + 1))
    anchor = vis_pts[0]
    if invis:
        knots = tuple(lam)
    else:
        knots = (0.5 * delta,) + tuple(lam) + (lam[-1] + 0.5 * delta,)
    seeds = [delta ** m_plus * (1.0 + n * delta) for n in range(1, d + 1)]
    full = (d // ell) * ell
    heights: List[float] = []
    for n, v in enumerate(vis_pts, start=1):
        if n > full:
            heights.append(2.0 * delta ** m_plus)
            continue
        seed = seeds[(n - 1) // ell]
        heights.append(seed if v == anchor else _pin(hat, (anchor, seed), v))
    psi = PsiSpec(d, knots + tuple(heights))
    census.spec = UnfoldingSpec(base, lam, (), psi_plus=psi)
    sys4 = build_unfolded(census.spec)

    counts = census.tangent_orbits
    touched: set = set()   # split points the counted orbits touch
    for v in vis_pts:
        if lam.index(v) in touched:
            continue   # by uniqueness, the orbit through v is counted
        touch_xs = {float(v)}
        legs = {}
        for sign, way in ((1.0, "forward"), (-1.0, "backward")):
            run = integrate_smooth(sys4, "upper", (v, 0.0), time_sign=sign,
                                   chain=True)
            if run.terminal.kind not in ("sigma-cross", "window-exit"):
                raise VerificationFailed(
                    f"orbit through {v:.6g} ended {way} "
                    f"with {run.terminal.kind}")
            touch_xs.update(float(ev.x) for ev in run.touch_events())
            legs[way] = run.arcs
        points = set()   # split points this orbit touches
        for tx in touch_xs:
            k = min(range(len(lam)), key=lambda i: abs(tx - lam[i]))
            if abs(tx - lam[k]) > 0.25 * delta:
                raise VerificationFailed(
                    f"contact at {tx:.6g} is not near any split point")
            points.add(k)
        touched |= points
        counts[len(points)] = counts.get(len(points), 0) + 1
        census.orbits.append(_stitch_orbit(legs["backward"],
                                           legs["forward"]))
    got = counts.get(ell, 0)
    want = (m_plus + (-1 if invis else 1)) // (2 * ell)
    if got != want:
        raise CensusMismatch(f"tangent orbit count {got} differs from {want}")
    return census


def _stitch_orbit(bw_arcs: List[Arc], fw_arcs: List[Arc]) -> Trajectory:
    """Join a backward and a forward chained transit from a point of Sigma
    into one forward trajectory. Every junction of its arcs is a touch:
    the start between the two transits, and each touch that ended a leg
    of either."""
    arcs: List[Arc] = []
    t0 = 0.0
    for a in reversed(bw_arcs):
        t_loc = [t - a.t[0] for t in a.t]
        tt = tuple(t0 + (t_loc[-1] - t) for t in reversed(t_loc))
        arcs.append(Arc(a.kind, tt, a.x[::-1], a.y[::-1]))
        t0 = tt[-1]
    for a in fw_arcs:
        arcs.append(Arc(a.kind, tuple((t - fw_arcs[0].t[0]) + t0 for t in a.t),
                        a.x, a.y))
    events = [Event(a.t[-1], a.x[-1], 0.0, "tangency-touch")
              for a in arcs[:-1]]
    return Trajectory(arcs, events)


# --------------------------------------------------------------------------
# scenario: a single loop with ell tangential contacts


def _plateau_psi(height: float, p_x: float) -> PsiSpec:
    """Step shear: exactly `height` right of p_x/3, zero left of 2*p_x/3."""
    if p_x >= 0.0:
        raise ValueError("plateau anchor must be negative")
    return PsiSpec(1, (0.0, 0.0, 0.0, float(height)),
                   r1=2.0 * p_x / 3.0, r2=p_x / 3.0)


def scenario_thm3(base: CanonicalBase, ell: int, kind: str, *,
                  delta: float = 0.08) -> LoopCensus:
    """One nonsliding loop with exactly ell tangential contacts.

    Splits the upper tangency into a negative cluster and pins the first
    ell plateau bumps to the single reference orbit through the first
    split point (the remaining bumps are forced high so the orbit drops
    past them). kind='crossing' lets the orbit cross transversally after
    its last graze; kind='critical' drops it at the ell-th contact. A
    lower plateau shear, its height a root of the landing gap, closes the
    loop at the upper orbit's backward crossing. The census holds that one
    loop: beta_cro[ell] = 1 or beta_cri[ell] = 1, its witness tagged
    "{kind}_l{ell}".
    """
    m = base.m_plus
    if m < 1 or m % 2 == 0:
        raise RangeError("odd upper multiplicity required")
    if kind == "crossing":
        if m < 2 or not (1 <= ell <= m // 2):
            raise RangeError(
                f"crossing loops need 1 <= ell <= {m // 2}, got {ell}")
    elif kind == "critical":
        if not (1 <= ell <= (m + 1) // 2):
            raise RangeError(
                f"critical loops need 1 <= ell <= {(m + 1) // 2}, got {ell}")
    else:
        raise ValueError("kind must be 'crossing' or 'critical'")
    lam = _negative_cluster(m, delta)
    hat = build_transition(_pinned(base, lam, delta))
    p_ref = _landed(integrate_smooth(hat, "lower", (lam[0], 0.0)))
    heights = [_pin(hat, (p_ref, 0.0), tp) * (1.0 if i < ell else 2.0)
               for i, tp in enumerate(lam[::2])]
    up_sys = build_unfolded(_pinned(base, lam, delta, heights))

    p_plus = _entry_crossing(up_sys, lam[0])

    if kind == "crossing":
        # the start at lam[0] is the first of its ell contacts
        fw = _leg(up_sys, f"forward upper leg from {lam[0]:.6g}", "upper",
                  lam[0], contacts=ell - 1, chain=True)
        x_drop = float(fw.terminal.x)
        lo = lam[2 * ell - 1]
        hi = lam[2 * ell] if 2 * ell < m else 0.0
        if not (lo < x_drop < hi):
            raise VerificationFailed(
                f"forward crossing {x_drop:.9g} outside ({lo:.6g}, {hi:.6g})")
    else:
        x_drop = lam[2 * ell - 2]

    @_once
    def gap(y: float) -> float:
        sys_y = build_unfolded(_pinned(base, lam, delta, heights,
                                       _plateau_psi(y, p_plus)))
        return _landed(integrate_smooth(sys_y, "lower", (x_drop, 0.0))) \
            - p_plus

    # the landing moves monotonically with the lower shear's height: double
    # it in the direction the gap at 0 demands until the gap changes sign
    g0, y0 = gap(0.0), 0.0
    if abs(g0) > 1e-12:
        step = math.copysign(max(1e-9, 0.25 * abs(g0)), -g0)
        shears = (step * 2.0 ** k for k in range(40))
        y0 = _root("lower shear", gap,
                   itertools.chain([(0.0, g0)], _evaluable(gap, shears)))
    spec4 = _pinned(base, lam, delta, heights, _plateau_psi(y0, p_plus))
    sys4 = build_unfolded(spec4)

    arrival = {} if kind == "crossing" else {"end": "tangent-arrival",
                                              "stop_at": x_drop}
    up = _leg(sys4, "witness upper leg", "upper", p_plus, contacts=ell,
              chain=True, **arrival)
    term = up.terminal
    low = _leg(sys4, f"lower leg from {term.x:.9g}", "lower", term.x,
               t_offset=term.t)
    want = "crossing-nonsliding" if kind == "crossing" else "critical"
    rec = _certify(sys4, f"{kind} loop from {p_plus:.9g}", (up, low), want,
                   ell)
    census = LoopCensus("thm3", m, base.m_minus, ell, spec=spec4,
                        witnesses=[(f"{kind}_l{ell}", rec)])
    (census.beta_cro if kind == "crossing" else census.beta_cri)[ell] = 1
    return census


# --------------------------------------------------------------------------
# scenario: simultaneous critical and crossing loops


def scenario_thm4(base: CanonicalBase, ell: int, *,
                  delta: float = 0.1) -> LoopCensus:
    """Census with ell+1 single-contact critical loops and the rest of the
    bumps converted into single-contact crossing loops.

    The last ell+1 plateau bumps are pinned to their own conjugate orbits.
    Walking leftward, each remaining bump is pinned to the orbit of the
    crossing cycle that bifurcates in the gap to its right, which turns
    that cycle into a crossing loop that touches the bump's peak.
    """
    m = base.m_plus
    if m < 3 or m % 2 == 0:
        raise RangeError("odd upper multiplicity >= 3 required")
    dmax = (m - 1) // 2
    if not (0 <= ell <= dmax):
        raise RangeError(f"ell={ell} outside 0..{dmax}")
    d = (m + 1) // 2
    n = d - ell
    lam = _negative_cluster(m, delta)
    hat = build_transition(_pinned(base, lam, delta))
    heights = [0.0] * (n - 1) + [
        p.height for p in _pin_data(hat, lam[2 * n - 2::2], lam[0])]

    qs: List[float] = []
    for j in range(n - 1, 0, -1):
        sys_j = build_unfolded(_pinned(base, lam, delta, heights))
        q = _displacement_root(sys_j, lam[2 * j - 1], lam[2 * j])
        qs.append(q)
        p_q = _landed(integrate_smooth(hat, "lower", (q, 0.0)))
        heights[j - 1] = _pin(hat, (p_q, 0.0), lam[2 * j - 2])

    spec4 = _pinned(base, lam, delta, heights)
    sys4 = build_unfolded(spec4)
    census = LoopCensus("thm4", m, base.m_minus, ell, spec=spec4)

    tangencies: List[float] = []
    crossings: List[float] = []
    for i in range(n, d + 1):
        tp = lam[2 * i - 2]
        rec, conj = _critical_witness(sys4, tp)
        if rec.tangent_touch_count != 1:
            raise CensusMismatch(
                f"critical loop at {tp:.6g} has "
                f"{rec.tangent_touch_count} contacts, expected 1")
        tangencies.append(tp)
        crossings.append(conj)
        census.witnesses.append((f"critical@x={tp:.6g}", rec))
    census.beta_cri[1] = d - n + 1

    for j, q in zip(range(n - 1, 0, -1), qs):
        rec = _crossing_cycle_witness(sys4, q)
        if rec.kind != "crossing-nonsliding" or rec.tangent_touch_count != 1:
            raise CensusMismatch(
                f"converted loop at {q:.9g} came back {rec.kind} with "
                f"{rec.tangent_touch_count} contacts")
        census.witnesses.append((f"crossing@x={q:.9g}", rec))
    if n > 1:
        census.beta_cro[1] = n - 1

    got = (census.beta_cro.get(1, 0), census.beta_cri.get(1, 0))
    want = (dmax - ell, ell + 1)
    if got != want:
        raise CensusMismatch(
            f"(crossing, critical) loop counts {got}, expected {want}")
    if len(tangencies) >= 2:
        nested = (all(a < b for a, b in zip(tangencies, tangencies[1:]))
                  and all(a > b for a, b in zip(crossings, crossings[1:])))
        if not nested:
            raise CensusMismatch("critical loops are not nested")
    return census


# --------------------------------------------------------------------------
# scenario: sliding loops and crossing limit cycles


def scenario_thm5(base: CanonicalBase, ell: int, *,
                  delta: float = 0.1) -> LoopCensus:
    """Census of sliding loops and crossing limit cycles.

    Starting from the all-pinned configuration, the first (m+1)/2 - ell
    bump heights are raised (each pinned orbit then enters a repelling
    sliding segment: one sliding loop per bump, plus one crossing cycle
    where the displacement goes negative on the approach flank) and the
    last ell are lowered (the graze detaches, leaving a pair of crossing
    cycles in the displacement dip). The dips shrink by orders of
    magnitude from bump to bump, so a single margin cannot serve both
    moves: each lowered bump gives up a fraction of its own dip, while the
    raise is sized from the conjugate-point geometry so every sliding exit
    stays well inside its own gap.
    """
    m = base.m_plus
    if m < 3 or m % 2 == 0:
        raise RangeError("odd upper multiplicity >= 3 required")
    d = (m + 1) // 2
    if not (0 <= ell <= d):
        raise RangeError(f"ell={ell} outside 0..{d}")
    n = d - ell
    lam = _negative_cluster(m, delta)
    hat = build_transition(_pinned(base, lam, delta))
    pins = _pin_data(hat, lam[::2], lam[0])
    knots = _pinned_knots(lam, delta)

    pinned = build_unfolded(_pinned(base, lam, delta,
                                    [p.height for p in pins]))

    # d(exit)/d(raise) for each raised bump: raising the peak lowers the
    # entry crossing by raise/g(conj), and the exit must drag the lower
    # landing down with it, at |dP/dx| per unit of abscissa
    rates: List[float] = []
    for i in range(1, n + 1):
        tp = lam[2 * i - 2]
        g_conj = hat.side_fn("upper")(pins[i - 1].conj, 0.0)[1]
        h_fd = 0.02 * delta
        p_hi, p_lo = (_landed(integrate_smooth(hat, "lower", (x, 0.0)))
                      for x in (tp + h_fd, tp - h_fd))
        slope = abs(p_hi - p_lo) / (2.0 * h_fd)
        if g_conj <= 0.0 or slope <= 0.0:
            raise VerificationFailed(
                f"conjugate-point geometry degenerate at x={tp:.6g}")
        rates.append(1.0 / (g_conj * slope))

    def _exit_span(i: int) -> float:
        # usable sliding span right of the peak: to the gap's far knot or to
        # the first pseudo-equilibrium, where the sliding flow would stall
        # before reaching any exit past it (the last bump always has one:
        # the lower field's own cluster kills g- at the origin)
        tp, hi = lam[2 * i - 2], knots[2 * i]
        pad = 1e-4 * (hi - tp)

        @_once
        def num(x: float) -> float:
            fp, gp, fm, gm = pinned.at_sigma(x)
            return fp * gm - fm * gp

        xs = _linspace(tp + pad, hi - pad, 160)
        try:
            return _root("pseudo-equilibrium", num, _evaluable(num, xs)) - tp
        except VerificationFailed:
            return hi - tp

    cap = min((_exit_span(i) / rates[i - 1] for i in range(1, n + 1)),
              default=0.0)
    raise_by = [0.1 * cap] * n
    lower_by = []
    for i in range(n + 1, d + 1):
        dip = _flank_dip(pinned, knots[2 * i - 2], lam[2 * i - 2])
        if dip >= 0.0:
            raise VerificationFailed(
                f"no displacement dip resolved at the peak "
                f"x={lam[2 * i - 2]:.6g} (min {dip:.3e})")
        lower_by.append(0.35 * abs(dip))

    heights = []
    for i, p in enumerate(pins, start=1):
        h_i = p.height + (raise_by[i - 1] if i <= n
                          else -lower_by[i - n - 1])
        if h_i <= 0.0:
            raise VerificationFailed(
                f"perturbed height at x={p.tp:.6g} is not positive")
        heights.append(h_i)
    spec5 = _pinned(base, lam, delta, heights)
    sys4 = build_unfolded(spec5)

    census = LoopCensus("thm5", m, base.m_minus, ell, spec=spec5)

    for i in range(1, n + 1):
        tp = lam[2 * i - 2]
        rec, q_s = _sliding_witness(sys4, tp, knots[2 * i],
                                    exit_scale=rates[i - 1] * raise_by[i - 1])
        census.witnesses.append((f"sliding@x={tp:.6g}", rec))
    census.beta_s = n

    scan = _linspace(knots[0] + 0.02 * delta, lam[-1] - 0.02 * delta, 8 * m)
    for i in range(1, d + 1):
        peak = lam[2 * i - 2]
        span = peak - knots[2 * i - 2]
        scan += [peak - u for u in _geomspace(0.6 * span, 1e-6 * span, 80)]
    cycles, census.dropped_cycles = find_crossing_cycles(sys4, scan)
    for rec in cycles:
        x_c = rec.switching_points[0][0] if rec.switching_points else 0.0
        census.witnesses.append((f"cycle@x={x_c:.9g}", rec))
    census.beta_c = len(cycles)

    want_c = m - n
    if census.beta_s != n or census.beta_c < want_c:
        raise CensusMismatch(
            f"(beta_s, beta_c) = ({census.beta_s}, {census.beta_c}), "
            f"expected ({n}, >= {want_c})")
    return census
