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

Every root is a zero of a closure gap (the displacement, a landing gap),
bracketed by a sign change of a scan and polished by brentq in _root. It
must leave |gap| <= CLOSURE_TOL: a sign change made by a jump of the gap
raises VerificationFailed before any witness is integrated on it.

Searches and certificates fly on different systems of one unfolding. The
displacement (_displacement: the flank dips, the scans and their polish)
is taken on the transition system through the shear conjugacy
(maps.displacement_sigma); each witness then integrates the sheared
system itself. A crossing-cycle root whose witness does not close is
dropped; a thm4/thm5 critical root whose witness does not verify makes
the scenario fail.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import (Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)

import numpy as np

from .cutoffs import PsiSpec
from .flow import (Arc, Event, SmoothRun, Trajectory, TransitFailure,
                   integrate_smooth, sliding_arc)
from .maps import NoArrival, _flow_to_section, displacement_sigma
from .numerics import brentq
from .system import PwsSystem, Window, h_value
from .tangency import multiplicity_at
from .unfolding import (CanonicalBase, UnfoldingSpec, build_transition,
                        build_unfolded)

CLOSURE_TOL = 1e-8
_CONTACT_TOL = 1e-6   # x-distance of a tangent junction from a zero of g


class RangeError(Exception):
    """Scenario parameter outside the range the construction supports."""


class VerificationFailed(Exception):
    """A certificate or a stage failed; the message names it."""


class CensusMismatch(Exception):
    """A census breaks its theorem's relation between (m, ell) and the
    counts."""


# --------------------------------------------------------------------------
# records


@dataclass
class LoopRecord:
    """A verified closed orbit plus its switching-line fingerprint."""

    trajectory: Trajectory
    kind: str
    switching_points: Tuple[Tuple[float, str], ...]
    tangent_touch_count: int
    closure_residual: float


@dataclass
class LoopCensus:
    """Counts of one scenario run, with integrated witnesses and orbits."""

    scenario: str
    m_plus: int
    m_minus: int
    ell: int
    beta_c: int = 0
    beta_s: int = 0
    beta_cro: Dict[int, int] = field(default_factory=dict)
    beta_cri: Dict[int, int] = field(default_factory=dict)
    tangent_orbits: Dict[int, int] = field(default_factory=dict)  # by contacts
    witnesses: List[Tuple[str, LoopRecord]] = field(default_factory=list)
    orbits: List[Trajectory] = field(default_factory=list)  # plain, no loops
    spec: Optional[UnfoldingSpec] = None   # the unfolding it was taken on


# --------------------------------------------------------------------------
# classification


def _dedup_sorted(xs: Sequence[float]) -> List[float]:
    out: List[float] = []
    for x in sorted(xs):
        if not out or x - out[-1] > _CONTACT_TOL:
            out.append(x)
    return out


def _grazes(g_field, x: float, scale: float) -> bool:
    """True when x sits within _CONTACT_TOL of a zero of g along the line.

    Uses the first-order distance |g| / |g_x|, g_x read from g's order-1
    x-jet on either field kind, which separates junctions
    localized onto a tangency (distance ~ solver precision) from shallow
    transversal crossings near one (distance ~ the dip width) far more
    reliably than any fixed threshold on |g| itself.
    """
    g0 = g_field.value(x, 0.0)
    g1 = g_field.x_jet(x, 0.0, 1)[1]
    return abs(g0) <= max(abs(g1) * _CONTACT_TOL, 1e-12 * scale)


def classify_loop(traj: Trajectory) -> LoopRecord:
    """Validate closure and classify a loop by its switching-line contacts.

    Kind precedence: any sliding arc makes a sliding-loop; otherwise a
    tangent switching point makes the loop critical; tangential touches
    without a tangent switching point give crossing-nonsliding; purely
    transversal loops come back crossing-periodic (find_crossing_cycles
    upgrades isolated ones to crossing-limit-cycle); loops that never
    change half-plane are grazing. Raises VerificationFailed when the
    endpoints differ by more than CLOSURE_TOL. A junction counts as
    tangent when it sits within _CONTACT_TOL (in x) of a zero of the
    active side's g; contacts closer than that count once.
    """
    sys = traj.system
    if sys is None:
        raise ValueError("classify_loop needs trajectory.system to be set")
    arcs = traj.arcs
    if not arcs:
        raise VerificationFailed("trajectory has no arcs")
    x0, y0 = traj.start()
    x1, y1 = traj.end()
    residual = math.hypot(x1 - x0, y1 - y0)
    if residual > CLOSURE_TOL:
        raise VerificationFailed(
            f"endpoints ({x0:.12g}, {y0:.3e}) vs ({x1:.12g}, {y1:.3e}) "
            f"differ by {residual:.3e} > {CLOSURE_TOL:.1e}")
    scale_up = sys.sigma_g_scale("upper")
    scale_dn = sys.sigma_g_scale("lower")
    switching: List[Tuple[float, str]] = []
    touch_xs: List[float] = [ev.x for ev in traj.touch_events()]
    n = len(arcs)
    for i in range(n):
        a, b = arcs[i], arcs[(i + 1) % n]
        xj = float(a.x[-1])
        if a.kind == b.kind:
            # consecutive same-side arcs meet in a grazing contact
            if a.kind in ("upper", "lower") and abs(float(a.y[-1])) <= 1e-7:
                touch_xs.append(xj)
            continue
        involved = {a.kind, b.kind}
        tangent = False
        if "upper" in involved:
            tangent |= _grazes(sys.g_plus, xj, scale_up)
        if "lower" in involved:
            tangent |= _grazes(sys.g_minus, xj, scale_dn)
        switching.append((xj, "tangent" if tangent else "crossing"))
    touch_xs.extend(x for x, lbl in switching if lbl == "tangent")
    ell = len(_dedup_sorted(touch_xs))
    if any(a.kind == "sliding" for a in arcs):
        kind = "sliding-loop"
    elif not switching:
        kind = "grazing"
    elif any(lbl == "tangent" for _, lbl in switching):
        kind = "critical"
    elif ell > 0:
        kind = "crossing-nonsliding"
    else:
        kind = "crossing-periodic"
    return LoopRecord(traj, kind, tuple(switching), ell, residual)


def _landed(run: SmoothRun) -> float:
    """Where a transit from Sigma crossed back to it; NoArrival if it ended
    any other way."""
    if run.terminal.kind != "sigma-cross":
        leg = run.legs[0]
        raise NoArrival(f"{leg.kind} transit from x={leg.x[0]:.6g} "
                        f"ended with {run.terminal.kind}")
    return run.terminal.x


def _displacement(sys: PwsSystem) -> Callable[[float], float]:
    """x -> the displacement of sys at (x, 0), as every scan reads it:
    flown on sys's transition system (maps.displacement_sigma)."""
    return lambda x: displacement_sigma(sys, float(x)).value


def _signed_area(arcs: Sequence[Arc]) -> float:
    x = np.concatenate([np.asarray(a.x) for a in arcs])
    y = np.concatenate([np.asarray(a.y) for a in arcs])
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


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


def _root(stage: str, f: Callable[[float], float],
          samples: Iterable[Tuple[float, float]]) -> float:
    """Zero of the closure gap f at the first sign change of samples.

    samples are (x, f(x)) pairs in scan order. The first two successive
    ones of opposite sign bracket the root, which brentq polishes. Brent's
    method returns a point it evaluated, so f(root) is read back from its
    own evaluations: the root must leave |f(root)| <= CLOSURE_TOL, which a
    sign change made by a jump of f does not. No sign change, or a root
    that breaks that contract, raises VerificationFailed naming the stage.
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
    a, b = sorted((scanned[-1][0], x))
    seen: Dict[float, float] = {}

    def gap(t: float) -> float:
        seen[t] = ft = f(t)
        return ft

    root = float(brentq(gap, a, b, xtol=1e-13, rtol=4e-15))
    if abs(seen[root]) > CLOSURE_TOL:
        raise VerificationFailed(
            f"{stage}: the sign change in ({a:.9g}, {b:.9g}) holds no zero:"
            f" the gap at {root:.12g} is {seen[root]:.3e}")
    return root


# --------------------------------------------------------------------------
# canonical loop


def _hill_height(m: int, a: float, k: float) -> float:
    xh = -(m + 1) * a / (m + 2)
    return abs(k * xh ** (m + 1) * (xh + a))


def canonical_base(m_plus: int = 1, m_minus: int = 1, a: float = 1.0,
                   k1: float = 1.0, k2: float = -1.0,
                   window: Optional[Window] = None) -> CanonicalBase:
    """Base system with one odd tangency per side at O and a crossing at -a.

    Upper orbits are graphs of k1 * x^(m+1) * (x + a) + const with f = +1;
    lower orbits mirror them with k2 < 0 and f = -1, so the arcs through
    (-a, 0) and the origin bound a closed two-arc loop.
    """
    if m_plus < 1 or m_plus % 2 == 0 or m_minus < 1 or m_minus % 2 == 0:
        raise ValueError("multiplicities must be odd and >= 1")
    if not (a > 0.0 and k1 > 0.0 and k2 < 0.0):
        raise ValueError("need a > 0, k1 > 0, k2 < 0")
    if window is None:
        amp = max(_hill_height(m_plus, a, k1), _hill_height(m_minus, a, -k2))
        pad = 4.0 * amp + 0.05 * a
        window = Window(-1.75 * a, 0.75 * a, -pad, pad)
    phi_p = f"{k1!r} * ({m_plus + 2}*x + {(m_plus + 1) * a!r})"
    phi_m = f"{-k2!r} * ({m_minus + 2}*x + {(m_minus + 1) * a!r})"
    return CanonicalBase.from_strings("1", phi_p, m_plus,
                                      "-1", phi_m, m_minus, window)


def canonical_critical_loop(m_plus: int = 1, m_minus: int = 1, a: float = 1.0,
                            k1: float = 1.0, k2: float = -1.0,
                            window: Optional[Window] = None,
                            ) -> Tuple[PwsSystem, LoopRecord]:
    """Assemble and verify the two-arc loop through (-a, 0) and the origin.

    The upper leg must arrive tangentially at the origin, the lower leg
    must cross back at -a, the circuit must run clockwise, and the origin
    multiplicities must come out as requested; any failure raises
    VerificationFailed with the offending measurement.
    """
    base = canonical_base(m_plus, m_minus, a, k1, k2, window)
    sys = base.system()
    up = integrate_smooth(sys, "upper", (-a, 0.0), chain=True, stop_at=0.0)
    if up.terminal.kind != "tangent-arrival":
        raise VerificationFailed(
            f"upper arc ended with {up.terminal.kind} at x={up.terminal.x:.6g}"
            f"; expected a tangential arrival at 0")
    t1 = up.terminal.t
    down = integrate_smooth(sys, "lower", (up.terminal.x, 0.0), t_offset=t1)
    if down.terminal.kind != "sigma-cross":
        raise VerificationFailed(
            f"lower arc ended with {down.terminal.kind}; expected a crossing")
    gap = abs(down.terminal.x + a)
    if gap > CLOSURE_TOL:
        raise VerificationFailed(
            f"lower arc lands at {down.terminal.x:.12g}, {gap:.2e} from -a")
    if h_value(sys, -a) <= 0.0:
        raise VerificationFailed("the point -a is not a crossing point")
    mp = multiplicity_at(sys.g_plus, 1.0, 0.0)
    mm = multiplicity_at(sys.g_minus, -1.0, 0.0)
    if (mp, mm) != (m_plus, m_minus):
        raise VerificationFailed(
            f"origin multiplicities ({mp}, {mm}) != ({m_plus}, {m_minus})")
    arcs = up.legs + down.legs
    if _signed_area(arcs) >= 0.0:
        raise VerificationFailed("loop is not traversed clockwise")
    events = [Event(t1, up.terminal.x, 0.0, "tangency-touch"), down.terminal]
    rec = classify_loop(Trajectory(arcs, events, system=sys))
    if rec.kind != "critical" or rec.tangent_touch_count != 1:
        raise VerificationFailed(
            f"classified {rec.kind} with {rec.tangent_touch_count} contacts;"
            f" expected critical with exactly one")
    return sys, rec


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
        # the upper return ends at the line x = qq at the latest, so one
        # still above Sigma there gives a signed miss too: its height
        cap = Window(w.x_lo, min(w.x_hi, float(qq)), w.y_lo, w.y_hi)
        up = integrate_smooth(sys, "upper", (land, 0.0), window=cap,
                              chain=True, t_offset=low.terminal.t)
        term = up.terminal
        if term.kind == "sigma-cross":
            miss = term.x - qq
        elif term.kind == "window-exit" \
                and abs(term.x - qq) <= 1e-6 * cap.width:
            # still above Sigma at the cap: convert the riding height to
            # abscissa units through the local upper slope
            gp = sys.g_plus.value(qq, 0.0)
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
    gap = math.hypot(term.x - q, term.y)
    if gap > CLOSURE_TOL:
        raise VerificationFailed(
            f"cycle through x={q:.9g} fails to close: gap {gap:.2e}")
    events = [low.terminal] + up.touches \
        + [Event(term.t, term.x, 0.0, "sigma-cross")]
    events.sort(key=lambda ev: ev.t)
    rec = classify_loop(Trajectory(low.legs + up.legs, events, system=sys))
    if rec.kind == "crossing-periodic":
        rec.kind = "crossing-limit-cycle"
    return rec


def find_crossing_cycles(sys: PwsSystem,
                         scan_points: Sequence[float]) -> List[LoopRecord]:
    """Isolated crossing cycles found as sign changes of the displacement.

    The displacement at x is the height gap, over the vertical line at x,
    between the upper orbit continuing the lower transit from (x, 0) and
    the line itself; its transversal zeros are cycles. Scan points that are
    not down-crossings are skipped, a profile that is numerically zero on
    most of the scan is treated as a continuum of closed orbits (no
    isolated cycles). Each sign change between adjacent evaluable scan
    points is polished by _root: one whose displacement at the root is
    above CLOSURE_TOL marks a jump, not a zero, and is dropped before any
    witness leg is integrated. Every other root is certified by integrating
    the actual loop, and dropped if that loop does not close. Returned
    cycles that graze a tangency stay classified crossing-nonsliding;
    plain ones are upgraded to crossing-limit-cycle.
    """
    def down(x: float) -> bool:
        return h_value(sys, x) > 0.0 and sys.g_minus.value(x, 0.0) < 0.0

    disp = _displacement(sys)
    pts = np.unique(np.asarray([float(p) for p in scan_points]))
    found = dict(_evaluable(disp, filter(down, pts)))
    vals = np.array([found.get(float(x), np.nan) for x in pts])
    finite = np.isfinite(vals)
    if not finite.any():
        return []
    if np.mean(np.abs(vals[finite]) < 1e-11) > 0.9:
        return []

    roots: List[float] = []
    for a_i in range(len(pts) - 1):
        # only adjacent grid points may bracket: a pair spanning a filtered
        # (sliding) stretch would hand brentq a zero that is not a cycle;
        # a NaN (filtered or failed point) makes no sign change
        va, vb = vals[a_i], vals[a_i + 1]
        if not va * vb < 0.0:
            continue
        try:
            root = _root("crossing cycle", disp,
                         [(pts[a_i], va), (pts[a_i + 1], vb)])
        except (TransitFailure, VerificationFailed):
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
        except VerificationFailed:
            continue
    return cycles


# --------------------------------------------------------------------------
# cluster scaffolding shared by the unfolding scenarios


def _positive_cluster(m: int, delta: float) -> Tuple[float, ...]:
    return tuple(i * delta for i in range(1, m + 1))


def _negative_cluster(m: int, delta: float) -> Tuple[float, ...]:
    return tuple((i - m - 1) * delta for i in range(1, m + 1))


def _pinned_knots(lam: Sequence[float], delta: float) -> Tuple[float, ...]:
    # one plateau bump per odd-indexed split point, peaks at lam[0], lam[2], ...
    return (lam[0] - 2.0 * delta,) + tuple(lam) + (0.0,)


@dataclass
class _Pin:
    tp: float        # tangency the bump peaks at
    conj: float      # landing of the lower transit from the tangency
    height: float    # upper orbit height over its own tangency


def _pin_data(hat: PwsSystem, lam: Sequence[float]) -> List[_Pin]:
    """Per-bump pin heights measured on the transition system."""
    d = (len(lam) + 1) // 2
    pins: List[_Pin] = []
    for i in range(1, d + 1):
        tp = lam[2 * i - 2]
        conj = _landed(integrate_smooth(hat, "lower", (tp, 0.0)))
        y = _flow_to_section(hat, (conj, 0.0), tp).y
        anchor = y if i == 1 else _flow_to_section(
            hat, (conj, 0.0), lam[0]).y
        if y <= 0.0 or anchor <= 0.0:
            raise VerificationFailed(
                f"pin at {tp:.6g}: orbit heights not positive "
                f"({y:.3e}, {anchor:.3e})")
        pins.append(_Pin(tp, conj, y))
    return pins


def _critical_witness(sys: PwsSystem,
                      tp: float) -> Tuple[LoopRecord, float]:
    """Loop dropping at the tangency tp: lower transit out, upper back in.

    Returns (record, crossing abscissa). The upper leg may graze earlier
    tangencies; it must arrive tangentially at tp itself.
    """
    low = integrate_smooth(sys, "lower", (tp, 0.0))
    conj = _landed(low)
    up = integrate_smooth(sys, "upper", (conj, 0.0), chain=True, stop_at=tp,
                          t_offset=low.terminal.t)
    term = up.terminal
    if term.kind != "tangent-arrival":
        raise VerificationFailed(
            f"upper leg from {conj:.9g} ended with {term.kind} at "
            f"x={term.x:.9g} instead of reaching the tangency at {tp:.6g}")
    gap = abs(term.x - tp)
    if gap > CLOSURE_TOL:
        raise VerificationFailed(
            f"loop at {tp:.6g} fails to close: gap {gap:.2e}")
    events = [low.terminal] + up.touches
    events.sort(key=lambda ev: ev.t)
    rec = classify_loop(Trajectory(low.legs + up.legs, events, system=sys))
    if rec.kind != "critical":
        raise VerificationFailed(
            f"loop at {tp:.6g} classified {rec.kind}, expected critical")
    return rec, conj


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
    bw = integrate_smooth(sys, "upper", (tp, 0.0), time_sign=-1.0,
                          chain=True)
    if bw.terminal.kind != "sigma-cross":
        raise VerificationFailed(
            f"backward upper leg from {tp:.6g} ended with {bw.terminal.kind}")
    if bw.touches:
        raise VerificationFailed(
            "backward upper leg grazed other tangencies; clearances too thin")
    x_left = float(bw.terminal.x)

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
    up = integrate_smooth(sys, "upper", (x_left, 0.0), chain=True,
                          stop_at=tp)
    if up.terminal.kind != "tangent-arrival" or len(up.touches) != 1:
        raise VerificationFailed(
            f"upper leg ended with {up.terminal.kind} at x={up.terminal.x:.9g}"
            f" instead of the tangency at {tp:.6g}")
    nudge = min(1e-9, (q_s - tp) * 1e-3)
    ts, xs, sl_term = sliding_arc(sys, tp + nudge, x_stop=q_s)
    if sl_term.kind != "target-reached":
        raise VerificationFailed(
            f"sliding leg ended with {sl_term.kind} at x={sl_term.x:.9g} "
            f"before reaching {q_s:.9g}")
    t1 = up.terminal.t
    t2 = t1 + float(ts[-1])
    low = integrate_smooth(sys, "lower", (q_s, 0.0), t_offset=t2)
    land = _landed(low)
    if abs(land - x_left) > CLOSURE_TOL:
        raise VerificationFailed(
            f"sliding loop at {tp:.6g} fails to close: "
            f"{abs(land - x_left):.2e}")
    xs = np.asarray(xs)
    arcs = up.legs + [Arc("sliding", np.asarray(ts) + t1, xs,
                          np.zeros_like(xs))] + low.legs
    events = [Event(t1, up.terminal.x, 0.0, "tangency-touch"),
              Event(t2, q_s, 0.0, "sliding-exit"), low.terminal]
    rec = classify_loop(Trajectory(arcs, events, system=sys))
    if rec.kind != "sliding-loop":
        raise VerificationFailed(
            f"loop at {tp:.6g} classified {rec.kind}, expected sliding-loop")
    return rec, q_s


def _displacement_root(sys: PwsSystem, a: float, b: float) -> float:
    """First sign change of the displacement on (a, b), fine-tailed near b.

    The profile typically stays positive across the gap and only dips below
    zero in a narrow well against the right endpoint, so the grid mixes a
    coarse sweep with a geometric tail clustering toward b.
    """
    gap = b - a
    xs = np.unique(np.concatenate([
        np.linspace(a + 0.02 * gap, b - 0.05 * gap, 25),
        b - np.geomspace(0.05 * gap, 2e-5 * gap, 30),
    ]))
    disp = _displacement(sys)
    return _root("displacement", disp, _evaluable(disp, xs))


def _flank_dip(sys: PwsSystem, left: float, peak: float) -> float:
    """Most negative displacement value on the approach to a pinned peak."""
    span = peak - left
    xs = peak - np.geomspace(0.5 * span, 1e-5 * span, 48)
    vals = [v for _, v in _evaluable(_displacement(sys), xs)]
    if not vals:
        raise VerificationFailed(
            f"displacement not evaluable left of the peak at {peak:.6g}")
    return min(vals)


# --------------------------------------------------------------------------
# scenario: grouped tangent orbits of a one-sided cluster


def scenario_thm2(m_plus: int, visibility_of_O: str = "I", ell: int = 1, *,
                  delta: float = 0.4, window: Optional[Window] = None,
                  ) -> LoopCensus:
    """Unfold (1, +-x^m) into a positive cluster with grouped tangent orbits.

    The tangency splits into simple points at i*delta. A plateau shear pins
    one reference orbit per group of ell consecutive visible points, so the
    orbit grazes exactly those; bumps past the last full group are raised
    high enough to force separate single-contact orbits. The census walks
    every visible point, follows its orbit both ways through grazes, and
    groups the deduplicated orbits by contact count (tangent_orbits; the
    orbits themselves go to orbits). There must be (m + 1) // (2 ell)
    orbits with ell contacts when O is visible, (m - 1) // (2 ell) when it
    is invisible; CensusMismatch otherwise.

    Supports the invisible case fully and the visible one on a best-effort
    basis; the half-plane cases of even multiplicity are out of range.
    """
    if m_plus < 1 or m_plus % 2 == 0:
        raise RangeError(f"odd m_plus required, got {m_plus}")
    if visibility_of_O in ("L", "R"):
        raise RangeError("visibility case not supported by this construction")
    if visibility_of_O not in ("I", "V"):
        raise ValueError(f"unknown visibility {visibility_of_O!r}")
    invis = visibility_of_O == "I"
    d = (m_plus - 1) // 2 if invis else (m_plus + 1) // 2
    if ell < 1 or (d > 0 and ell > d):
        raise RangeError(f"ell={ell} outside 1..{max(d, 1)}")
    lam = _positive_cluster(m_plus, delta)
    if window is None:
        ymax = 2.0 + (m_plus + 3) * delta
        window = Window(-(m_plus + 1) * delta, (m_plus + 3) * delta,
                        -ymax, ymax)
    phi = "-1" if invis else "1"
    base = CanonicalBase.from_strings("1", phi, m_plus, "-1", "-1", 0, window)
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
    for n in range(1, d + 1):
        if n > full:
            heights.append(2.0 * delta ** m_plus)
            continue
        j = (n - 1) // ell + 1
        if vis_pts[n - 1] == anchor:
            h_n = seeds[j - 1]
        else:
            h_n = _flow_to_section(hat, (anchor, seeds[j - 1]),
                                   vis_pts[n - 1]).y
        if h_n <= 0.0:
            raise VerificationFailed(
                f"reference orbit {j} dips to {h_n:.3e} over "
                f"x={vis_pts[n - 1]:.6g}")
        heights.append(h_n)
    psi = PsiSpec(d, knots + tuple(heights))
    census.spec = UnfoldingSpec(base, lam, (), psi_plus=psi)
    sys4 = build_unfolded(census.spec)

    counts = census.tangent_orbits
    seen: set = set()
    for v in vis_pts:
        touch_xs = {float(v)}
        legs = {}
        for sign, way in ((1.0, "forward"), (-1.0, "backward")):
            run = integrate_smooth(sys4, "upper", (v, 0.0), time_sign=sign,
                                   chain=True)
            if run.terminal.kind not in ("sigma-cross", "window-exit"):
                raise VerificationFailed(
                    f"orbit through {v:.6g} ended {way} "
                    f"with {run.terminal.kind}")
            touch_xs.update(float(ev.x) for ev in run.touches)
            legs[way] = run.legs
        key_idx = []
        for tx in touch_xs:
            k = int(np.argmin([abs(tx - l) for l in lam]))
            if abs(tx - lam[k]) > 0.25 * delta:
                raise VerificationFailed(
                    f"contact at {tx:.6g} is not near any split point")
            key_idx.append(k)
        key = tuple(sorted(set(key_idx)))
        if key in seen:
            continue
        seen.add(key)
        counts[len(key)] = counts.get(len(key), 0) + 1
        census.orbits.append(_stitch_orbit(
            sys4, legs["backward"], legs["forward"], sorted(touch_xs)))
    got = counts.get(ell, 0)
    want = (m_plus + (-1 if invis else 1)) // (2 * ell)
    if got != want:
        raise CensusMismatch(f"tangent orbit count {got} differs from {want}")
    return census


def _stitch_orbit(sys: PwsSystem, bw_arcs: List[Arc], fw_arcs: List[Arc],
                  touch_xs: Sequence[float]) -> Trajectory:
    """Join a backward and a forward transit into one forward trajectory."""
    arcs: List[Arc] = []
    t0 = 0.0
    for a in reversed(bw_arcs):
        t_loc = np.asarray(a.t) - float(a.t[0])
        tt = t0 + (t_loc[-1] - t_loc)[::-1]
        arcs.append(Arc(a.kind, tt, np.asarray(a.x)[::-1],
                        np.asarray(a.y)[::-1]))
        t0 = float(tt[-1])
    for a in fw_arcs:
        t_loc = np.asarray(a.t) - float(fw_arcs[0].t[0])
        arcs.append(Arc(a.kind, t_loc + t0, np.asarray(a.x),
                        np.asarray(a.y)))
    events = []
    for tx in touch_xs:
        best_t, best_gap = 0.0, math.inf
        for a in arcs:
            i = int(np.argmin(np.abs(np.asarray(a.x) - tx)))
            g = abs(float(a.x[i]) - tx) + abs(float(a.y[i]))
            if g < best_gap:
                best_gap, best_t = g, float(a.t[i])
        events.append(Event(best_t, float(tx), 0.0, "tangency-touch"))
    events.sort(key=lambda ev: ev.t)
    return Trajectory(arcs, events, system=sys)


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
    lam_m = (0.0,) * base.m_minus
    hat = build_transition(UnfoldingSpec(base, lam, lam_m))
    p_ref = _landed(integrate_smooth(hat, "lower", (lam[0], 0.0)))
    d = (m + 1) // 2
    knots = _pinned_knots(lam, delta)
    heights = []
    for i in range(1, d + 1):
        h_ref = _flow_to_section(hat, (p_ref, 0.0), lam[2 * i - 2]).y
        if h_ref <= 0.0:
            raise VerificationFailed(
                f"reference orbit height {h_ref:.3e} over "
                f"x={lam[2 * i - 2]:.6g} is not positive")
        heights.append(h_ref if i <= ell else 2.0 * h_ref)
    psi_p = PsiSpec(d, knots + tuple(heights))
    up_sys = build_unfolded(UnfoldingSpec(base, lam, lam_m, psi_plus=psi_p))

    bw = integrate_smooth(up_sys, "upper", (lam[0], 0.0), time_sign=-1.0,
                          chain=True)
    if bw.terminal.kind != "sigma-cross":
        raise VerificationFailed(
            f"backward upper leg ended with {bw.terminal.kind}")
    if bw.touches:
        raise VerificationFailed("backward upper leg grazed the cluster")
    p_plus = float(bw.terminal.x)

    if kind == "crossing":
        fw = integrate_smooth(up_sys, "upper", (lam[0], 0.0), chain=True)
        if fw.terminal.kind != "sigma-cross":
            raise VerificationFailed(
                f"forward upper leg ended with {fw.terminal.kind}")
        x_drop = float(fw.terminal.x)
        lo = lam[2 * ell - 1]
        hi = lam[2 * ell] if 2 * ell < m else 0.0
        if not (lo < x_drop < hi):
            raise VerificationFailed(
                f"forward crossing {x_drop:.9g} outside ({lo:.6g}, {hi:.6g})")
        if 1 + len(fw.touches) != ell:
            raise VerificationFailed(
                f"forward leg made {1 + len(fw.touches)} contacts, "
                f"expected {ell}")
    else:
        x_drop = lam[2 * ell - 2]

    def gap(y: float) -> float:
        sys_y = build_unfolded(UnfoldingSpec(base, lam, lam_m, psi_p,
                                             _plateau_psi(y, p_plus)))
        return _landed(integrate_smooth(sys_y, "lower", (x_drop, 0.0))) \
            - p_plus

    # the landing moves monotonically with the lower shear's height: double
    # it in the direction the gap at 0 demands until the gap changes sign
    g0, y0 = gap(0.0), 0.0
    if abs(g0) > 1e-12:
        step = math.copysign(max(1e-9, 0.25 * abs(g0)), -g0)
        heights = (step * 2.0 ** k for k in range(40))
        y0 = _root("lower shear", gap,
                   itertools.chain([(0.0, g0)], _evaluable(gap, heights)))
    spec4 = UnfoldingSpec(base, lam, lam_m, psi_p, _plateau_psi(y0, p_plus))
    sys4 = build_unfolded(spec4)

    up = integrate_smooth(sys4, "upper", (p_plus, 0.0), chain=True,
                          stop_at=None if kind == "crossing" else x_drop,
                          stop_tol=0.25 * delta)
    term, touches = up.terminal, up.touches
    if kind == "crossing":
        if term.kind != "sigma-cross":
            raise VerificationFailed(
                f"witness upper leg ended with {term.kind}")
        if len(touches) != ell:
            raise VerificationFailed(
                f"witness made {len(touches)} contacts, expected {ell}")
    elif term.kind != "tangent-arrival" or len(touches) != ell:
        raise VerificationFailed(
            f"witness upper leg: {term.kind} after {len(touches)} "
            f"contacts, expected tangent arrival after {ell}")
    low = integrate_smooth(sys4, "lower", (term.x, 0.0), t_offset=term.t)
    land = _landed(low)
    if abs(land - p_plus) > CLOSURE_TOL:
        raise VerificationFailed(
            f"loop fails to close: landing gap {abs(land - p_plus):.2e}")
    events = touches + [low.terminal]
    if kind == "crossing":
        events.append(Event(term.t, term.x, 0.0, "sigma-cross"))
    events.sort(key=lambda ev: ev.t)
    rec = classify_loop(Trajectory(up.legs + low.legs, events, system=sys4))
    want = "crossing-nonsliding" if kind == "crossing" else "critical"
    if rec.kind != want or rec.tangent_touch_count != ell:
        raise VerificationFailed(
            f"classified {rec.kind} with {rec.tangent_touch_count} contacts,"
            f" expected {want} with {ell}")
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
    Walking leftward, each remaining bump is re-pinned to the orbit of the
    crossing cycle that bifurcates in the gap to its right, which turns
    that cycle into a crossing loop grazing the bump's peak.
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
    lam_m = (0.0,) * base.m_minus
    hat = build_transition(UnfoldingSpec(base, lam, lam_m))
    pins = _pin_data(hat, lam)
    knots = _pinned_knots(lam, delta)
    heights = [0.0] * d
    for i in range(n, d + 1):
        heights[i - 1] = pins[i - 1].height

    qs: List[float] = []
    for j in range(n - 1, 0, -1):
        sys_j = build_unfolded(UnfoldingSpec(
            base, lam, lam_m, PsiSpec(d, knots + tuple(heights))))
        q = _displacement_root(sys_j, lam[2 * j - 1], lam[2 * j])
        qs.append(q)
        p_q = _landed(integrate_smooth(hat, "lower", (q, 0.0)))
        heights[j - 1] = _flow_to_section(hat, (p_q, 0.0), lam[2 * j - 2]).y

    spec4 = UnfoldingSpec(base, lam, lam_m, PsiSpec(d, knots + tuple(heights)))
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
    lam_m = (0.0,) * base.m_minus
    hat = build_transition(UnfoldingSpec(base, lam, lam_m))
    pins = _pin_data(hat, lam)
    knots = _pinned_knots(lam, delta)

    pinned = build_unfolded(UnfoldingSpec(
        base, lam, lam_m,
        PsiSpec(d, knots + tuple(p.height for p in pins))))
    dips = [_flank_dip(pinned, knots[2 * i - 2], lam[2 * i - 2])
            for i in range(1, d + 1)]

    # d(exit)/d(raise) for each raised bump: raising the peak lowers the
    # entry crossing by raise/g(conj), and the exit must drag the lower
    # landing down with it, at |dP/dx| per unit of abscissa
    rates: List[float] = []
    for i in range(1, n + 1):
        tp = lam[2 * i - 2]
        g_conj = hat.g_plus.value(pins[i - 1].conj, 0.0)
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

        def num(x: float) -> float:
            return (pinned.f_plus.value(x, 0.0)
                    * pinned.g_minus.value(x, 0.0)
                    - pinned.f_minus.value(x, 0.0)
                    * pinned.g_plus.value(x, 0.0))

        xs = np.linspace(tp + pad, hi - pad, 160)
        try:
            return _root("pseudo-equilibrium", num, _evaluable(num, xs)) - tp
        except VerificationFailed:
            return hi - tp

    cap = min((_exit_span(i) / rates[i - 1] for i in range(1, n + 1)),
              default=0.0)
    raise_by = [0.1 * cap] * n
    lower_by = []
    for i in range(n + 1, d + 1):
        if dips[i - 1] >= 0.0:
            raise VerificationFailed(
                f"no displacement dip resolved at the peak "
                f"x={lam[2 * i - 2]:.6g} (min {dips[i - 1]:.3e})")
        lower_by.append(0.35 * abs(dips[i - 1]))

    heights = []
    for i, p in enumerate(pins, start=1):
        h_i = p.height + (raise_by[i - 1] if i <= n
                          else -lower_by[i - n - 1])
        if h_i <= 0.0:
            raise VerificationFailed(
                f"perturbed height at x={p.tp:.6g} is not positive")
        heights.append(h_i)
    spec5 = UnfoldingSpec(base, lam, lam_m, PsiSpec(d, knots + tuple(heights)))
    sys4 = build_unfolded(spec5)

    census = LoopCensus("thm5", m, base.m_minus, ell, spec=spec5)

    for i in range(1, n + 1):
        tp = lam[2 * i - 2]
        rec, q_s = _sliding_witness(sys4, tp, knots[2 * i],
                                    exit_scale=rates[i - 1] * raise_by[i - 1])
        census.witnesses.append((f"sliding@x={tp:.6g}", rec))
    census.beta_s = n

    scan = [np.linspace(knots[0] + 0.02 * delta, lam[-1] - 0.02 * delta,
                        8 * m)]
    for i in range(1, d + 1):
        peak = lam[2 * i - 2]
        span = peak - knots[2 * i - 2]
        scan.append(peak - np.geomspace(0.6 * span, 1e-6 * span, 80))
    cycles = find_crossing_cycles(sys4, np.concatenate(scan))
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


# --------------------------------------------------------------------------
# census files


CENSUS_CSV_HEADER = "# filippov2d-census-v2"
_CENSUS_COLUMNS = ("scenario", "m_plus", "m_minus", "ell", "beta_c",
                   "beta_s", "beta_cro", "beta_cri", "witnesses_path")


def _counts_field(counts: Dict[int, int]) -> str:
    """{contacts: count} as 'contacts:count' pairs joined by ';'."""
    return ";".join(f"{k}:{v}" for k, v in sorted(counts.items()))


def _parse_counts(text: str) -> Dict[int, int]:
    pairs = (item.split(":") for item in text.split(";") if item)
    return {int(k): int(v) for k, v in pairs}


def write_census_csv(path, censuses: Sequence[LoopCensus], *,
                     witnesses_paths: Optional[Sequence[str]] = None) -> None:
    """One row per census; beta_cro and beta_cri keep every contact count
    (column format 'contacts:count;...', empty when there are none)."""
    lines = [CENSUS_CSV_HEADER, ",".join(_CENSUS_COLUMNS)]
    for i, c in enumerate(censuses):
        wp = witnesses_paths[i] if witnesses_paths else ""
        lines.append(",".join(str(v) for v in (
            c.scenario, c.m_plus, c.m_minus, c.ell, c.beta_c, c.beta_s,
            _counts_field(c.beta_cro), _counts_field(c.beta_cri), wp)))
    Path(path).write_text("\n".join(lines) + "\n")


def read_census_csv(path) -> List[Dict[str, object]]:
    lines = [ln for ln in Path(path).read_text().splitlines() if ln.strip()]
    if not lines or not lines[0].startswith(CENSUS_CSV_HEADER):
        raise ValueError(f"{path}: missing {CENSUS_CSV_HEADER[2:]} header line")
    names = lines[1].split(",")
    out: List[Dict[str, object]] = []
    for ln in lines[2:]:
        row: Dict[str, object] = dict(zip(names, ln.split(",")))
        for key in ("m_plus", "m_minus", "ell", "beta_c", "beta_s"):
            row[key] = int(row[key])  # type: ignore[arg-type]
        for key in ("beta_cro", "beta_cri"):
            row[key] = _parse_counts(row[key])  # type: ignore[arg-type]
        out.append(row)
    return out
