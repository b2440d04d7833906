"""Loop assembly and the scenario censuses built on it."""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from filippov2d import (PsiSpec, TransitFailure, UnfoldingSpec,
                        VerificationFailed, build_unfolded, canonical_base,
                        canonical_critical_loop, displacement_sigma, loops,
                        one_sided_return_slope, scenario_thm3, scenario_thm4,
                        sigma_return_map)
from filippov2d.loops import CLOSURE_TOL, _negative_cluster, _pinned_knots
from test_maps import _center_sys


def _hex_fingerprint(rec):
    """Switching abscissae and closure residual as exact float.hex."""
    return ([x.hex() for x, _ in rec.switching_points],
            rec.closure_residual.hex())


@pytest.mark.parametrize("m", [1, 3, 5])
def test_canonical_loop_is_critical_with_one_contact(m):
    # m = 3: one accepted step holds both zeros of g+ (the hill top and the
    # contact at the origin), with g+ of one sign at its ends
    _, rec = canonical_critical_loop(m, m)
    assert rec.kind == "critical"
    assert rec.tangent_touch_count == 1
    assert rec.closure_residual <= CLOSURE_TOL


def test_thm3_critical_loop_with_two_contacts():
    _, rec = scenario_thm3(canonical_base(5, 5), 2, "critical")
    assert rec.kind == "critical"
    assert rec.tangent_touch_count == 2
    assert _hex_fingerprint(rec) == (
        ["-0x1.eb851eb851eb8p-3", "-0x1.feb9037202ffbp-1"],
        "0x1.0000000000000p-52")


def test_thm4_census_and_witness_closure():
    census = scenario_thm4(canonical_base(5, 5), 2)
    assert census.beta_cri == {1: 3}
    assert census.beta_cro == {}
    assert census.witnesses
    for _, rec in census.witnesses:
        assert rec.closure_residual <= CLOSURE_TOL
    assert {tag: _hex_fingerprint(rec) for tag, rec in census.witnesses} == {
        "critical@x=-0.5": (["-0x1.fbcc15d16a070p-1", "-0x1.0000000000000p-1"],
                            "0x0.0p+0"),
        "critical@x=-0.3": (["-0x1.ffbce87db4711p-1", "-0x1.3333333333334p-2"],
                            "0x0.0p+0"),
        "critical@x=-0.1": (["-0x1.ffffe1cd04623p-1", "-0x1.999999999999ap-4"],
                            "0x0.0p+0"),
    }


def _thm5_33_ell1_system():
    lam = _negative_cluster(3, 0.1)
    heights = (float.fromhex("0x1.33905d00237bdp-6"),
               float.fromhex("0x1.7b98654fdce00p-8"))
    return build_unfolded(UnfoldingSpec(
        canonical_base(3, 3), lam, (0.0,) * 3,
        PsiSpec(2, _pinned_knots(lam, 0.1) + heights)))


def test_cycle_witness_polish_stays_in_the_window(monkeypatch):
    # thm5 (3,3) ell=1: the displacement root at q misses by about 1e2 in
    # abscissa units, so an unbounded secant step seeds far off the window
    system = _thm5_33_ell1_system()
    w = system.window
    starts = []
    integrate_smooth = loops.integrate_smooth

    def recording(f, g, start, *args, **kwargs):
        starts.append(start[0])
        return integrate_smooth(f, g, start, *args, **kwargs)
    monkeypatch.setattr(loops, "integrate_smooth", recording)
    with pytest.raises(VerificationFailed, match="fails to close"):
        loops._crossing_cycle_witness(system, -0.10289492812919601)
    assert starts
    assert all(w.x_lo <= x <= w.x_hi for x in starts), starts


def _x_integrated_height(system, x0, x1):
    # reference: the upper orbit from (x0, 0) as a graph, dy/dx = g/f,
    # integrated knot to knot so that no step straddles a knot of psi
    f, g = system.side("upper")
    knots = _pinned_knots(_negative_cluster(3, 0.1), 0.1)
    cuts = [x0] + [k for k in knots if x0 < k < x1] + [x1]
    y = 0.0
    for a, b in zip(cuts, cuts[1:]):
        y = solve_ivp(lambda s, u: [g.value(s, u[0]) / f.value(s, u[0])],
                      (a, b), [y], method="DOP853", rtol=1e-13,
                      atol=1e-15).y[0, -1]
    return y


def test_displacement_next_to_a_bump_peak_is_positive_and_smooth():
    # thm5 (3,3) ell=1 next to the second bump's peak at x = -0.1: every
    # value is the upper orbit's true height, with no spurious sign change
    system = _thm5_33_ell1_system()
    for x in np.linspace(-0.1035, -0.0995, 41):
        d = displacement_sigma(system, float(x))
        assert d.value > 0.0
        ref = _x_integrated_height(system, d.conjugate_x, float(x))
        assert d.value == pytest.approx(ref, abs=1e-9), x


@pytest.mark.parametrize("x", [-0.3, -0.7, -1.2])
def test_return_map_of_a_center_is_the_identity(x):
    assert sigma_return_map(_center_sys(), x) == pytest.approx(x, abs=1e-12)


@pytest.mark.parametrize("h", [1e-3, -1e-3])
def test_return_slope_of_a_center_is_one(h):
    slope = one_sided_return_slope(_center_sys(), -0.7, h=h)
    assert slope == pytest.approx(1.0, abs=1e-8)


def test_return_slope_needs_a_nonzero_step():
    with pytest.raises(ValueError, match="nonzero"):
        one_sided_return_slope(_center_sys(), -0.7, h=0.0)


def test_return_map_refuses_a_start_the_upper_field_leaves():
    # g+ = -x < 0 at x = 0.5: the upper field points into the lower plane
    with pytest.raises(TransitFailure):
        sigma_return_map(_center_sys(), 0.5)
