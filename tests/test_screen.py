"""The closed-form screen of the displacement scans: maps.first_integral,
maps.displacement_closed and the scans in loops that read its sign."""

import numpy as np
import pytest
import scipy.optimize

from artifact_digest import _dump
from filippov2d import (ScalarField, StepUnderflow, UnfoldingSpec, Window,
                        build_unfolded, canonical_base, displacement_sigma,
                        loops, maps, scenario_thm4, scenario_thm5)
from filippov2d.loops import SCREEN_MARGIN
from filippov2d.maps import displacement_closed, first_integral
from conftest import make_sys

# |closed form - flown| on every screened scan point of _ROWS: the flown
# displacement is good to about 1e-15 there, the screen's margin is 1e-6
CLOSED_FORM_BOUND = 1e-12

# (scenario, (m, ell), flights with the screen, flights without it)
_ROWS = [
    (scenario_thm4, (3, 0), 10, 24),
    (scenario_thm4, (5, 0), 31, 66),
    (scenario_thm4, (5, 1), 11, 24),
    (scenario_thm5, (3, 0), 18, 192),
    (scenario_thm5, (3, 1), 70, 242),
    (scenario_thm5, (3, 2), 125, 295),
]
_IDS = [f"{fn.__name__[-4:]}-{m}{m}-l{ell}" for fn, (m, ell), _, _ in _ROWS]


def _record(monkeypatch, name):
    """Wrap loops' binding of name; return the list of (sys, x, value) of
    its calls."""
    calls, orig = [], getattr(loops, name)

    def recorded(sys, x):
        value = orig(sys, x)
        calls.append((sys, x, value))
        return value
    monkeypatch.setattr(loops, name, recorded)
    return calls


def _outcome(fn, m, ell):
    """The census in hex (its spec left out), or the failure."""
    try:
        return _dump(fn(canonical_base(m, m), ell))
    except Exception as exc:  # noqa: BLE001 - a failure is an outcome too
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("fn, args, screened, unscreened", _ROWS, ids=_IDS)
def test_closed_form_is_the_flown_displacement(monkeypatch, fn, args,
                                               screened, unscreened):
    points = _record(monkeypatch, "displacement_closed")
    fn(canonical_base(args[0], args[0]), args[1])
    known = [(sys, x, v) for sys, x, v in points if v is not None]
    assert len(known) >= 0.9 * len(points) > 0
    worst = max(abs(v - displacement_sigma(sys, x)) for sys, x, v in known)
    assert worst <= CLOSED_FORM_BOUND


@pytest.mark.parametrize("fn, args, screened, unscreened", _ROWS, ids=_IDS)
def test_the_screen_changes_no_census(monkeypatch, fn, args, screened,
                                      unscreened):
    # the screen only spares flights: with no first integral every scan
    # point flies, and the census is the same bit for bit
    flights = _record(monkeypatch, "displacement_sigma")
    got = _outcome(fn, *args)
    assert len(flights) == screened
    flights.clear()
    monkeypatch.setattr(maps, "first_integral", lambda hat: None)
    assert _outcome(fn, *args) == got
    assert len(flights) == unscreened


def test_first_integral_of_the_canonical_transition():
    # (5,5): g+ = (7x + 6) x^5, f+ = 1 and f- = -1; G+ = x^6 (x + 1)
    hat = canonical_base(5, 5).system()
    upper, lower = first_integral(hat)
    assert (upper.f, lower.f) == (1.0, -1.0)
    assert upper.crit == pytest.approx((-6.0 / 7.0, 0.0))
    assert upper.G[6:8] == (1.0, 1.0) and not any(upper.G[:6] + upper.G[8:])
    assert first_integral(hat) is first_integral(hat)   # built once


def _center(f_p="1", g_p="0 - x", f_m="0 - 1", g_m="0 - x"):
    return make_sys(f_p, g_p, f_m, g_m)


@pytest.mark.parametrize("sides", [
    {"g_m": "(0 - x) * (1 + 0.1*sin(x))"},   # phi is no polynomial
    {"g_p": "0 - x*y"},                      # g reads y
    {"f_p": "1 + 0.1*x"},                    # f reads x
    {"f_m": "0.1*y - 1"},                    # f reads y
])
def test_the_closed_form_declines_fields_outside_its_family(sides):
    system = _center(**sides)
    assert first_integral(system) is None
    assert displacement_closed(system, 0.5) is None
    assert displacement_closed(_center(), 0.5) is not None


# test_maps' systems whose displacement legs leave the window (the upper
# leg here runs down as well as away, so that x > 0 are down-crossings)
_LOWER_LEAVES = ("1", "0 - x", "0 - 1", "0 - 1")
_UPPER_TURNS = ("0 - 1", "0 - 1", "0 - 1", "0 - x")
_WIDE = Window(-2.0, 2.0, -2.0, 2.0)


@pytest.mark.parametrize("sides, window", [
    (_LOWER_LEAVES, _WIDE),
    (_UPPER_TURNS, _WIDE),
    (("1", "0 - x", "0 - 1", "0 - 0.5 - x"),   # lands past x_lo
     Window(-1.0, 2.0, -2.0, 2.0)),
    (("1", "0 - x", "0 - 1", "0 - x"), Window(-2.0, 2.0, -0.1, 2.0)),  # y_lo
    (("1", "0 - x", "0 - 1", "0 - x"), Window(-2.0, 2.0, -2.0, 0.1)),  # y_hi
    # the lower leg, at speed 0.01, outruns the leg budget 6 * 3 + 30
    (("1", "0 - x", "0 - 0.01", "0 - x"), Window(-1.5, 1.5, -99.0, 99.0)),
])
def test_the_closed_form_declines_legs_that_leave_the_window(sides, window):
    system = make_sys(*sides, window=window)
    assert first_integral(system) is not None
    for x in (0.5, 0.8, 1.2):
        assert displacement_closed(system, x) is None


def test_the_closed_form_declines_a_start_near_a_lower_tangency():
    # the lower g = -x vanishes at 0: a start there or left of it does not
    # enter y < 0, and a leg from just right of it lands at a slope under
    # 1e-3
    system = _center()
    for x in (-0.5, 0.0, 1e-4, 5e-4):
        assert displacement_closed(system, x) is None
    assert abs(displacement_closed(system, 0.01)) <= 1e-17


@pytest.mark.parametrize("depth, screened", [
    (1e-7, False), (-1e-9, False), (1e-3, True)])
def test_the_closed_form_declines_a_leg_that_nears_sigma(depth, screened):
    # the lower g = x (x - 0.5)(x + 0.6)(x + 1), f = -1: from q in (0, 0.5)
    # the leg turns back up toward Sigma over x = -0.6 before it lands
    # past -1; q is set so that it passes `depth` under Sigma there. At
    # depth -1e-9 it lands just short of -0.6, at a slope under 1e-3
    lower = np.poly1d(np.poly([0.0, 0.5, -0.6, -1.0])).integ()
    q = scipy.optimize.brentq(
        lambda x: lower(x) - lower(-0.6) + depth, 1e-9, 0.5)
    system = make_sys("1", "0 - x", "0 - 1", "x*(x - 0.5)*(x + 0.6)*(x + 1)",
                      window=Window(-3.0, 3.0, -3.0, 3.0))
    closed = displacement_closed(system, q)
    assert (closed is not None) == screened
    if screened:
        assert abs(closed - displacement_sigma(system, q)) <= CLOSED_FORM_BOUND


def _thm5_33_scan_system(**phi):
    """thm5 (3,3) ell=1's certified system, with base fields replaced."""
    census = scenario_thm5(canonical_base(3, 3), 1)
    spec = census.spec
    base = spec.base._replace(**{k: ScalarField(v) for k, v in phi.items()})
    return build_unfolded(UnfoldingSpec(base, spec.lambda_plus,
                                        spec.lambda_minus, spec.psi_plus,
                                        spec.psi_minus))


@pytest.mark.parametrize("system", [
    lambda: _thm5_33_scan_system(phi_minus="(5*x + 4.0) * (1 + 0.1*sin(x))"),
    lambda: _thm5_33_scan_system(f_plus="1 + 0.1*x"),
    lambda: _thm5_33_scan_system(f_minus="0.01*y - 1"),
    lambda: make_sys(*_LOWER_LEAVES, window=_WIDE),
    lambda: make_sys(*_UPPER_TURNS, window=_WIDE),
], ids=["sin-phi", "f-of-x", "f-of-y", "lower-leaves", "upper-turns"])
def test_a_declined_scan_is_the_unscreened_scan(monkeypatch, system):
    system = system()
    pts = [-0.95 + 0.01 * i for i in range(190)]
    closed = _record(monkeypatch, "displacement_closed")
    flights = _record(monkeypatch, "displacement_sigma")
    got = _dump(loops.find_crossing_cycles(system, pts))
    assert closed and all(v is None for _, _, v in closed)
    n = len(flights)
    monkeypatch.setattr(maps, "first_integral", lambda hat: None)
    assert _dump(loops.find_crossing_cycles(system, pts)) == got
    assert len(flights) == 2 * n


def test_a_bracket_end_flies_before_brentq_reads_it(monkeypatch):
    # both ends were screened (read, not flown): each flies once, before
    # brentq starts, which then reads them from the gap's memo
    flown, at_brentq = [], []

    @loops._once
    def gap(x):
        flown.append(x)
        return x - 0.3
    brentq = loops.brentq

    def recorded(f, a, b, **kwargs):
        at_brentq.append(list(flown))
        return brentq(f, a, b, **kwargs)
    monkeypatch.setattr(loops, "brentq", recorded)
    root = loops._root("line", gap, [(0.0, -0.3), (1.0, 0.7)])
    assert abs(root - 0.3) <= 1e-13
    assert at_brentq == [[0.0, 1.0]]
    assert len(set(flown)) == len(flown)


def _stuck(x):
    raise StepUnderflow("stuck")


@pytest.mark.parametrize("gap, match", [
    (lambda x: 1.0, "flew to 1.000e\\+00, the scan read -3.000e-01"),
    (lambda x: 0.0, "flew to 0.000e\\+00"),
    (_stuck, "failed to fly: stuck"),
])
def test_a_screen_the_flight_contradicts_is_an_error(gap, match):
    # never a silent fallback: the screen is wrong, so the scan stops
    with pytest.raises(AssertionError, match=match):
        loops._root("line", loops._once(gap), [(0.0, -0.3), (1.0, 0.7)])


def test_a_near_zero_closed_form_flies(monkeypatch):
    assert SCREEN_MARGIN == 1e2 * loops.CLOSURE_TOL
    system = _center()   # closed orbits: D = 0 to rounding
    flights = _record(monkeypatch, "displacement_sigma")
    scan = list(loops._screened_scan(system, loops._displacement(system),
                                     [0.3, 0.6]))
    assert scan == [(x, v) for _, x, v in flights]
    assert [x for x, _ in scan] == [0.3, 0.6]
