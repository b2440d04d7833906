"""Sections, section transits and the Sigma displacement."""

import math

import pytest

from filippov2d import (NoArrival, Section, TangentialArrival, Window,
                        displacement_sigma)
from filippov2d.fieldexpr import ScalarField
from filippov2d.loops import canonical_base
from filippov2d.maps import _flow_to_section
from conftest import make_sys


def fld(f_src, g_src):
    return (ScalarField(f_src), ScalarField(g_src))


def test_section_validation():
    with pytest.raises(ValueError):
        Section((0.0, 0.0), (1.0, 1.0), 0.5)   # not unit
    with pytest.raises(ValueError):
        Section((0.0, 0.0), (1.0, 0.0), 0.0)
    s = Section((0.3, 0.0), (1.0, 0.0), 0.5)
    assert s.offset_of(0.1, 0.0) == pytest.approx(-0.2)


def test_translation_flow_lands_at_its_start_height():
    for r in (-0.4, -0.05, 0.0, 0.3):
        hit = _flow_to_section(*fld("1", "0"), (0.0, r), Section.vertical(1.0))
        assert hit.offset == pytest.approx(r, abs=1e-12)
        assert hit.t == pytest.approx(1.0, abs=1e-12)


def test_cubic_contact_arrival_matches_quadrature():
    # orbits of (1, x^3) are y = y0 + (x^4 - x0^4)/4; from (r, 0) the
    # arrival on the line x = 1 is at height (1 - r^4)/4
    for r in (0.05, 0.1, -0.2, 0.3):
        hit = _flow_to_section(*fld("1", "x^3"), (r, 0.0),
                               Section.vertical(1.0))
        assert hit.offset == pytest.approx((1.0 - r ** 4) / 4.0, abs=1e-11)


def test_tangential_arrival_detected():
    # orbit y = x^3 + 2 crosses the target line y = 2 at x = 0 with zero
    # vertical speed, so the crossing fires but the arrival is flagged
    target = Section((0.0, 2.0), (1.0, 0.0), 4.0)
    with pytest.raises(TangentialArrival):
        _flow_to_section(*fld("1", "3*x^2"), (-1.0, 1.0), target,
                         window=Window(-3, 3, -0.5, 4.5))


def test_transit_through_intermediate_section_lands_as_direct():
    field = fld("1", "y")
    for r in (0.02, -0.15, 0.3):
        direct = _flow_to_section(*field, (0.0, r), Section.vertical(1.0))
        mid = _flow_to_section(*field, (0.0, r), Section.vertical(0.5))
        hop = _flow_to_section(*field, (mid.x, mid.y), Section.vertical(1.0))
        assert hop.offset == pytest.approx(direct.offset, abs=1e-10)
        assert direct.offset == pytest.approx(r * math.e, abs=1e-10)
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
        out = displacement_sigma(s, x)
        assert abs(out.value) <= 1e-9
        assert out.conjugate_x == pytest.approx(-x, abs=1e-9)


def test_displacement_sample_reports_legs():
    out = displacement_sigma(_center_sys(), 0.7)
    # dx/dt = -1 below and +1 above: each leg takes exactly 2*0.7
    assert out.t_lower == pytest.approx(1.4, abs=1e-9)
    assert out.t_upper == pytest.approx(1.4, abs=1e-9)


def _rotation():
    # counter-clockwise rotation: orbits are circles about the origin
    return fld("0 - y", "x")


def test_section_hit_outside_half_width_is_skipped():
    # from (0, 1) the circle meets y = 0 first at (-1, 0), outside the
    # section's window around (1, 0), then at (1, 0) after 3/4 of a turn
    target = Section((1.0, 0.0), (1.0, 0.0), 0.1)
    hit = _flow_to_section(*_rotation(), (0.0, 1.0), target)
    assert hit.t == pytest.approx(1.5 * math.pi, abs=1e-8)
    assert hit.x == pytest.approx(1.0, abs=1e-9)
    assert abs(hit.offset) <= 1e-9


def test_sigma_to_sigma_transit_skips_its_start():
    # the start (1 + r, 0) lies inside the target window: the crossing at
    # t = 0 is not an arrival, the one half a turn later at -(1 + r) is
    target = Section((0.0, 0.0), (1.0, 0.0), 2.0)
    for r in (0.1, -0.2):
        hit = _flow_to_section(*_rotation(), (1.0 + r, 0.0), target)
        assert hit.offset == pytest.approx(-(1.0 + r), abs=1e-9)
        assert hit.t == pytest.approx(math.pi, abs=1e-8)


@pytest.mark.parametrize("f_src, window, budget, kind", [
    ("1", Window(-2.0, 2.0, -2.0, 2.0), 1e3, "window-exit"),
    ("1", None, 3.0, "time-end"),
    ("x", None, 1e3, "runaway"),   # x = e^t passes 1e9 at t = 20.7
])
def test_no_arrival_names_how_the_transit_ended(f_src, window, budget, kind):
    # the section x = -1 lies behind an orbit that moves right
    with pytest.raises(NoArrival, match=f": {kind}$"):
        _flow_to_section(*fld(f_src, "0"), (1.0, 0.5), Section.vertical(-1.0),
                         t_budget=budget, window=window)


class _Counting:
    def __init__(self, field):
        self.field, self.calls = field, 0

    def value(self, x, y):
        self.calls += 1
        return self.field.value(x, y)


def test_section_transit_stops_at_its_hit():
    # the hit comes at t = pi/2; a longer budget must not cost more work
    calls = []
    for budget in (10.0, 1000.0):
        f, g = (_Counting(c) for c in _rotation())
        hit = _flow_to_section(f, g, (1.0, 0.0), Section.vertical(0.0),
                               t_budget=budget)
        assert hit.t == pytest.approx(0.5 * math.pi, abs=1e-9)
        calls.append(f.calls)
    assert calls[0] == calls[1]


@pytest.mark.parametrize("x, value", [
    (-0.7, "-0x1.0680000000000p-52"),
    (-0.5, "-0x1.b540000000000p-52"),
    (-0.3, "0x1.fa5a2b5a20ddcp-55"),
    (-0.1, "0x1.84877c98a222dp-52"),
])
def test_displacement_on_canonical_base_is_pinned(x, value):
    # canonical (5,5) orbits are closed, so these are rounding residues:
    # pinned bit for bit to catch any change in the transit numerics
    system = canonical_base(5, 5).system()
    assert displacement_sigma(system, x).value.hex() == value
