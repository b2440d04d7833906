"""Loop assembly and the scenario censuses built on it."""

import inspect
import re

import numpy as np
import pytest
import scipy.optimize
from scipy.integrate import solve_ivp

from filippov2d import (PsiSpec, RootNotBracketed, StepUnderflow,
                        UnfoldingSpec, VerificationFailed,
                        build_unfolded, canonical_base,
                        canonical_critical_loop, displacement_sigma, loops,
                        numerics, scenario_thm3, scenario_thm4, scenario_thm5)
from filippov2d.loops import CLOSURE_TOL, _negative_cluster, _pinned_knots


def _hex_fingerprint(rec):
    """Switching abscissae and closure residual as exact float.hex."""
    return ([x.hex() for x, _ in rec.switching_points],
            rec.closure_residual.hex())


def test_root_of_a_smooth_gap_is_brentqs_root():
    def f(x):
        if x == 1.0:
            raise StepUnderflow("a point whose transit fails is skipped")
        return x ** 3 - 2.0 * x - 5.0
    xs = np.linspace(0.0, 4.0, 9)   # first sign change in (2, 2.5)
    root = loops._root("cubic", f, loops._evaluable(f, xs))
    assert root == scipy.optimize.brentq(f, 2.0, 2.5, xtol=1e-13, rtol=4e-15)


def test_sign_change_without_a_zero_is_no_root():
    def step(x):
        return 1.0 if x < 0.3 else -1.0
    with pytest.raises(RootNotBracketed, match=re.escape(
            "jump: the sign change in (0, 1) holds no zero")):
        loops._root("jump", step, [(0.0, 1.0), (1.0, -1.0)])


def test_no_sign_change_is_no_root():
    def f(x):
        return x * x + 1.0
    with pytest.raises(RootNotBracketed, match=re.escape(
            "parabola: no sign change over 5 points in [-1, 1]")):
        loops._root("parabola", f,
                    loops._evaluable(f, np.linspace(-1.0, 1.0, 5)))


def test_loops_polishes_through_one_brentq_call():
    # perfbench counts polish evaluations by wrapping loops.brentq
    assert len(re.findall(r"\bbrentq\(", inspect.getsource(loops))) == 1
    assert loops.brentq is numerics.brentq


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


def test_thm3_jump_of_the_landing_gap_is_no_lower_shear(monkeypatch):
    # thm3 (7,7) critical ell=2: the landing gap changes sign across a jump
    # between two shear heights; no witness leg may be integrated on it
    upper_legs = []
    integrate_smooth = loops.integrate_smooth

    def recording(sys, side, start, **kwargs):
        if side == "upper":
            upper_legs.append(kwargs.get("time_sign", 1.0))
        return integrate_smooth(sys, side, start, **kwargs)
    monkeypatch.setattr(loops, "integrate_smooth", recording)
    with pytest.raises(RootNotBracketed) as err:
        scenario_thm3(canonical_base(7, 7), 2, "critical")
    stage, a, b, root, residual = re.fullmatch(
        r"(.+): the sign change in \((\S+), (\S+)\) holds no zero: "
        r"the gap at (\S+) is (\S+)", str(err.value)).groups()
    assert stage == "lower shear"
    assert float(a) == pytest.approx(0.002007, abs=1e-6)
    assert float(b) == pytest.approx(0.004014, abs=1e-6)
    assert float(a) < float(root) < float(b)
    assert float(residual) == pytest.approx(-1.37e-3, abs=1e-5)
    assert upper_legs == [-1.0]   # only the backward leg that finds p+


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


def test_thm5_sliding_loops_and_crossing_cycles():
    # thm5 (3,3) ell=0: both bumps raised, so each pinned orbit slides to
    # an exit solved on the landing gap, and the scan polishes two cycles
    census = scenario_thm5(canonical_base(3, 3), 0)
    assert (census.beta_s, census.beta_c) == (2, 2)
    for _, rec in census.witnesses:
        assert rec.closure_residual <= CLOSURE_TOL
    assert {tag: _hex_fingerprint(rec) for tag, rec in census.witnesses} == {
        "sliding@x=-0.3": (["-0x1.3333333333334p-2", "-0x1.331849b42a0eap-2",
                            "-0x1.fd0844875388fp-1"], "0x1.0000000000000p-51"),
        "sliding@x=-0.1": (["-0x1.999999999999ap-4", "-0x1.914ae9c0791f2p-4",
                            "-0x1.fff51a8b88669p-1"], "0x0.0p+0"),
        "cycle@x=-0.984508645": (["-0x1.f8118462c2f55p-1",
                                  "-0x1.930b06d91a882p-2"],
                                 "0x1.6760000000000p-41"),
        "cycle@x=-0.999636903": (["-0x1.ffd0687e4aef5p-1",
                                  "-0x1.25c1bb1c7077bp-3"],
                                 "0x1.d0fd000000000p-37"),
    }
    assert [rec.kind for _, rec in census.witnesses] == \
        ["sliding-loop"] * 2 + ["crossing-limit-cycle"] * 2


def test_thm5_77_ell2_census():
    # two raised bumps slide; of the six cycles, the last two cross Sigma
    # again just left of the last lowered bump's peak at -0.1
    census = scenario_thm5(canonical_base(7, 7), 2)
    assert (census.beta_s, census.beta_c) == (2, 6)
    assert [rec.kind for _, rec in census.witnesses] == \
        ["sliding-loop"] * 2 + ["crossing-limit-cycle"] * 6
    for _, rec in census.witnesses:
        assert rec.closure_residual <= CLOSURE_TOL
    assert [-0.1002 < rec.switching_points[1][0] < -0.1
            for _, rec in census.witnesses[-2:]] == [True, True]


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

    def recording(sys, side, start, **kwargs):
        starts.append(start[0])
        return integrate_smooth(sys, side, start, **kwargs)
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
        assert d.value == pytest.approx(ref, abs=1e-11), x
