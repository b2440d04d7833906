"""Section transits (to a vertical line) and the Sigma displacement."""

import ast
import inspect
import math
import textwrap

import pytest

from filippov2d import (PwsSystem, NoArrival, TangentialArrival,
                        UnfoldingSpec, Window, build_transition,
                        build_unfolded, displacement_sigma, flow,
                        integrate_smooth, loops, maps)
from filippov2d.fieldexpr import ScalarField
from filippov2d.loops import _negative_cluster, _plateau_psi, canonical_base
from filippov2d.maps import _flow_to_section
from conftest import make_sys


def upper_sys(f_src, g_src, window=Window(-2.0, 2.0, -2.0, 2.0)):
    """A system whose upper field (the one section transits flow) is
    (f, g); the lower field is unused."""
    return make_sys(f_src, g_src, "0", "0", window=window)


def test_translation_flow_lands_at_its_start_height():
    for r in (-0.4, -0.05, 0.0, 0.3):
        hit = _flow_to_section(upper_sys("1", "0"), (0.0, r), 1.0)
        assert hit.x == pytest.approx(1.0, abs=1e-12)
        assert hit.y == pytest.approx(r, abs=1e-12)
        assert hit.t == pytest.approx(1.0, abs=1e-12)


def test_cubic_contact_arrival_matches_quadrature():
    # orbits of (1, x^3) are y = y0 + (x^4 - x0^4)/4; from (r, 0) the
    # arrival on the line x = 1 is at height (1 - r^4)/4
    for r in (0.05, 0.1, -0.2, 0.3):
        hit = _flow_to_section(upper_sys("1", "x^3"), (r, 0.0), 1.0)
        assert hit.y == pytest.approx((1.0 - r ** 4) / 4.0, abs=1e-11)


def test_canonical_upper_arc_peaks_at_4_27():
    # canonical (1,1): the upper orbit from the crossing at -1 is
    # y = x^2 (x + 1), whose peak on (-1, 0) is 4/27 at x = -2/3
    hit = _flow_to_section(canonical_base(1, 1).system(), (-1.0, 0.0),
                           -2.0 / 3.0)
    assert abs(hit.y - 4.0 / 27.0) <= 1e-9


def test_tangential_arrival_detected():
    # field (3 y^2, 1) from (-1, -1): the orbit x = y^3 crosses the line
    # x = 0 at the origin with zero horizontal speed, so the crossing fires
    # but the arrival is flagged
    with pytest.raises(TangentialArrival):
        _flow_to_section(upper_sys("3*y^2", "1"), (-1.0, -1.0), 0.0)


def test_transit_through_intermediate_section_lands_as_direct():
    system = upper_sys("1", "y")
    for r in (0.02, -0.15, 0.3):
        direct = _flow_to_section(system, (0.0, r), 1.0)
        mid = _flow_to_section(system, (0.0, r), 0.5)
        hop = _flow_to_section(system, (mid.x, mid.y), 1.0)
        assert hop.y == pytest.approx(direct.y, abs=1e-10)
        assert direct.y == pytest.approx(r * math.e, abs=1e-10)
        assert mid.t + hop.t == pytest.approx(direct.t, abs=1e-10)


def _center_sys():
    # Upper parabolas run left-to-right, lower parabolas right-to-left,
    # both with apex on x = 0: every orbit through (b, 0), b > 0 closes,
    # and the return to the vertical line x = b is transversal (f = 1).
    return make_sys("1", "0 - x", "0 - 1", "0 - x",
                    window=Window(-2.0, 2.0, -2.0, 2.0))


def test_displacement_vanishes_on_closed_center_orbits():
    s = _center_sys()
    for x in (0.3, 0.55, 0.8, 1.2):
        assert abs(displacement_sigma(s, x)) <= 1e-9


def test_displacement_whose_lower_leg_leaves_the_window_is_no_arrival():
    # the lower field (-1, -1) drifts from (0.5, 0) down and left for good:
    # the leg ends at the window's edge, not at the end of its time budget
    s = make_sys("1", "0 - x", "0 - 1", "0 - 1",
                 window=Window(-2.0, 2.0, -2.0, 2.0))
    with pytest.raises(NoArrival, match="window-exit"):
        displacement_sigma(s, 0.5)


def test_displacement_whose_upper_leg_leaves_the_window_is_no_arrival():
    # the lower leg from (0.5, 0) lands at -0.5; the upper field (-1, 1)
    # then drifts up and left, away from the line x = 0.5, to the edge
    s = make_sys("0 - 1", "1", "0 - 1", "0 - x",
                 window=Window(-2.0, 2.0, -2.0, 2.0))
    with pytest.raises(NoArrival, match=": window-exit$"):
        displacement_sigma(s, 0.5)


ROTATION = ("0 - y", "x")   # counter-clockwise: circles about the origin


def test_section_transit_skips_its_start():
    # the start (0, 1 + r) lies on the line x = 0: the crossing at t = 0
    # is not an arrival, the one half a turn later at (0, -(1 + r)) is
    for r in (0.1, -0.2):
        hit = _flow_to_section(upper_sys(*ROTATION), (0.0, 1.0 + r), 0.0)
        assert hit.x == pytest.approx(0.0, abs=1e-12)
        assert hit.y == pytest.approx(-(1.0 + r), abs=1e-9)
        assert hit.t == pytest.approx(math.pi, abs=1e-8)


def test_sigma_to_sigma_transit_skips_its_start():
    # the upper rotation from (1 + r, 0) on Sigma: the contact at t = 0 is
    # not a landing, the one half a turn later at -(1 + r) is
    for r in (0.1, -0.2):
        run = integrate_smooth(upper_sys(*ROTATION), "upper", (1.0 + r, 0.0))
        assert run.terminal.kind == "sigma-cross"
        assert run.terminal.x == pytest.approx(-(1.0 + r), abs=1e-9)
        assert run.terminal.t == pytest.approx(math.pi, abs=1e-8)


@pytest.mark.parametrize("f_src, kind", [
    ("1", "window-exit"),
    ("0", "time-end"),   # at rest: the leg budget runs out
])
def test_no_arrival_names_how_the_transit_ended(f_src, kind):
    # the line x = -1 lies behind an orbit that moves right or rests
    with pytest.raises(NoArrival, match=f": {kind}$"):
        _flow_to_section(upper_sys(f_src, "0"), (1.0, 0.5), -1.0)


class _Counting:
    def __init__(self, field):
        self.field, self.calls = field, 0

    def value(self, x, y):
        self.calls += 1
        return self.field.value(x, y)


def test_section_transit_stops_at_its_hit():
    # the hit comes at t = pi/2; a longer leg budget (a wider window) must
    # not cost more work
    calls = []
    for x_half in (2.0, 200.0):
        f, g = (_Counting(ScalarField(src)) for src in ROTATION)
        system = PwsSystem(f, g, f, g, Window(-x_half, x_half, -2.0, 2.0))
        hit = _flow_to_section(system, (1.0, 0.0), 0.0)
        assert hit.t == pytest.approx(0.5 * math.pi, abs=1e-9)
        calls.append(f.calls)
    assert calls[0] == calls[1]


@pytest.mark.parametrize("x, value", [
    (-0.7, "-0x1.8e00000000000p-54"),
    (-0.5, "-0x1.8000000000000p-51"),
    (-0.3, "-0x1.53a4ba94bbe44p-52"),
    (-0.1, "-0x1.6b57c3675ddd3p-52"),
])
def test_displacement_on_canonical_base_is_pinned(x, value):
    # canonical (5,5) orbits are closed, so these are rounding residues:
    # pinned bit for bit to catch any change in the transit numerics
    system = canonical_base(5, 5).system()
    assert displacement_sigma(system, x).hex() == value


def _thm4_55_ell1_scan_system():
    # thm4 (5,5) ell=1 as its scan for the first crossing loop sees it:
    # bumps 2 and 3 pinned to their own orbits, bump 1 still flat
    base = canonical_base(5, 5)
    lam = _negative_cluster(5, 0.1)
    pins = loops._pin_data(build_transition(loops._pinned(base, lam, 0.1)),
                           lam[2::2], lam[0])
    return build_unfolded(loops._pinned(
        base, lam, 0.1, [0.0] + [p.height for p in pins]))


@pytest.mark.parametrize("x", [-0.398, -0.3595, -0.3515, -0.34375, -0.32,
                               -0.305, -0.30015, -0.300002])
def test_displacement_through_the_shear_is_the_direct_one(x):
    # D flown on the transition system equals the sheared system's own
    # composition: lower Sigma transit, then the upper section transit
    system = _thm4_55_ell1_scan_system()
    assert system.transition is not None and system.transition[1] is not None
    low = integrate_smooth(system, "lower", (x, 0.0))
    direct = _flow_to_section(system, (low.terminal.x, 0.0), x)
    assert abs(displacement_sigma(system, x) - direct.y) <= 1e-11


def test_displacement_on_a_sheared_lower_side_is_refused():
    # thm3's lower plateau shears the lower side: no conjugacy applies
    base = canonical_base(5, 5)
    lam = _negative_cluster(5, 0.08)
    system = build_unfolded(UnfoldingSpec(
        base, lam, (0.0,) * 5, None, _plateau_psi(1e-3, -0.9)))
    with pytest.raises(ValueError, match="unsheared lower side"):
        displacement_sigma(system, -0.5)


def test_maps_restates_no_nudge_schedule():
    # the closed form's landing follows flow's nudge step for step: both
    # iterate flow's one schedule, 80 lengths from 1e-8, each 4x the last
    steps = flow._NUDGE_STEPS
    assert len(steps) == 80 and steps[0] == 1e-8
    assert all(b == a * 4.0 for a, b in zip(steps, steps[1:]))
    for fn in (flow._nudge_off_sigma, maps._lower_landing):
        tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
        assert "_NUDGE_STEPS" in {ast.unparse(node.iter)
                                  for node in ast.walk(tree)
                                  if isinstance(node, ast.For)}, fn.__name__
    constants = {node.value for node in ast.walk(ast.parse(
        inspect.getsource(maps))) if isinstance(node, ast.Constant)}
    assert not {80, 4.0, 1e-8} & constants
