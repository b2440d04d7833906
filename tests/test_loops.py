"""Loop assembly and the scenario censuses built on it."""

import dataclasses
import inspect
import re

import numpy as np
import pytest
import scipy.optimize
from scipy.integrate import solve_ivp

import filippov2d
from filippov2d import (CensusMismatch, PsiSpec, RangeError, ScalarField,
                        StepUnderflow, UnfoldingSpec, VerificationFailed,
                        build_transition, build_unfolded, canonical_base,
                        canonical_critical_loop, displacement_sigma, loops,
                        numerics, scenario_thm2, scenario_thm3, scenario_thm4,
                        scenario_thm5)
from filippov2d.loops import CLOSURE_TOL, _negative_cluster, _pinned_knots


def _hex_fingerprint(rec):
    """Switching abscissae and closure residual as exact float.hex."""
    return ([x.hex() for x, _ in rec.switching_points],
            rec.closure_residual.hex())


def test_loops_fails_in_three_classes():
    # a refusal, a failed certificate or stage, a broken relation
    defined = {obj for obj in vars(loops).values()
               if isinstance(obj, type) and issubclass(obj, BaseException)
               and obj.__module__ == loops.__name__}
    assert defined == {RangeError, VerificationFailed, CensusMismatch}
    assert not {"HarvestFailure", "RootNotBracketed", "NotClosed",
                "TangentOrbitCensus",
                "NormalFormMeta"} & set(filippov2d.__all__)


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
    with pytest.raises(VerificationFailed, match=re.escape(
            "jump: the sign change in (0, 1) holds no zero")):
        loops._root("jump", step, [(0.0, 1.0), (1.0, -1.0)])


def test_no_sign_change_is_no_root():
    def f(x):
        return x * x + 1.0
    with pytest.raises(VerificationFailed, match=re.escape(
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


@pytest.mark.parametrize("m, visibility, ell", [
    (3, "I", 1), (5, "I", 2), (7, "V", 1), (7, "V", 2), (7, "V", 4)])
def test_thm2_tangent_orbits_follow_the_paper_count(m, visibility, ell):
    census = scenario_thm2(m, visibility, ell)
    offset = 1 if visibility == "V" else -1
    assert census.tangent_orbits == {ell: (m + offset) // (2 * ell)}
    assert (census.scenario, census.m_plus, census.m_minus, census.ell) == \
        ("thm2", m, 0, ell)
    assert len(census.orbits) == census.tangent_orbits[ell]


def test_thm2_census_off_the_paper_count_is_a_mismatch(monkeypatch):
    # with its grazes dropped, each orbit of (5, I, 2) meets one split point
    integrate_smooth = loops.integrate_smooth

    def no_touches(*args, **kwargs):
        return dataclasses.replace(integrate_smooth(*args, **kwargs),
                                   touches=[])
    monkeypatch.setattr(loops, "integrate_smooth", no_touches)
    with pytest.raises(CensusMismatch, match=re.escape(
            "tangent orbit count 0 differs from 1")):
        scenario_thm2(5, "I", 2)


def test_thm3_critical_loop_with_two_contacts():
    census = scenario_thm3(canonical_base(5, 5), 2, "critical")
    assert census.beta_cri == {2: 1} and census.beta_cro == {}
    [(tag, rec)] = census.witnesses
    assert tag == "critical_l2"
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
    with pytest.raises(VerificationFailed) as err:
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


def test_grazes_decides_alike_on_expression_and_sheared_g():
    # an expression g: the (3,3) canonical base split at the negative
    # cluster; a sheared g: the thm4 (5,5) ell=1 unfolding
    lam = _negative_cluster(3, 0.1)
    plain = build_transition(UnfoldingSpec(canonical_base(3, 3), lam,
                                           (0.0,) * 3))
    spec = scenario_thm4(canonical_base(5, 5), 1).spec
    sheared = build_unfolded(spec)
    assert isinstance(plain.g_plus, ScalarField)
    assert not isinstance(sheared.g_plus, ScalarField)
    for system, zeros in ((plain, lam), (sheared, spec.lambda_plus)):
        g, scale = system.g_plus, system.sigma_g_scale("upper")
        for zero in zeros:
            for side in (-1.0, 1.0):
                assert loops._grazes(g, zero + side * 1e-9, scale)
                assert not loops._grazes(g, zero + side * 1e-4, scale)


def test_grazes_reads_the_x_distance_not_the_size_of_g():
    # a crossing of g = k (x - 0.3): inside _CONTACT_TOL in x it grazes,
    # outside it does not, however steep or shallow g is
    for k in (50.0, 0.02):
        g = filippov2d.as_field(f"{k!r} * (x - 0.3)")
        assert loops._grazes(g, 0.3 + 0.5 * loops._CONTACT_TOL, 1.0)
        assert not loops._grazes(g, 0.3 + 2.0 * loops._CONTACT_TOL, 1.0)


def test_grazes_rejects_a_dip_that_misses_zero():
    # g_x vanishes at the bottom of both dips; only the one that touches
    # zero grazes there
    assert loops._grazes(filippov2d.as_field("x^2"), 0.0, 1.0)
    assert not loops._grazes(filippov2d.as_field("x^2 + 1e-6"), 0.0, 1.0)


def test_pin_data_checks_both_orbit_heights(monkeypatch):
    # one pin per bump: its tangency, landing and upper orbit height; the
    # second bump's anchor height over lam[0] must be positive too
    lam = (-0.5, -0.4, -0.3)
    Hit = dataclasses.make_dataclass("Hit", ["y"])
    sections, heights = [], []
    monkeypatch.setattr(loops, "integrate_smooth", lambda *a, **k: None)
    monkeypatch.setattr(loops, "_landed", lambda traj: 0.7)

    def flow_to_section(hat, p, x):
        sections.append(x)
        return Hit(heights.pop(0))

    monkeypatch.setattr(loops, "_flow_to_section", flow_to_section)
    heights[:] = [0.2, 0.1, 0.3]
    pins = loops._pin_data(None, lam)
    assert sections == [-0.5, -0.3, -0.5]
    assert [(p.tp, p.conj, p.height) for p in pins] == [
        (-0.5, 0.7, 0.2), (-0.3, 0.7, 0.1)]
    # a height at pin 1, a height at pin 2, an anchor at pin 2
    for bad in ([0.0], [0.2, -1e-9, 0.3], [0.2, 0.1, -1e-9]):
        heights[:] = bad
        with pytest.raises(VerificationFailed,
                           match="orbit heights not positive"):
            loops._pin_data(None, lam)


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


def test_cycle_witness_polish_stops_at_a_seed_that_does_not_land(
        monkeypatch):
    # q = -0.35 misses by -0.039, so the secant seeds at -0.3305, inside
    # the window; that seed's lower transit is made to leave the window,
    # and the polish keeps q's own legs, which do not close
    lower_runs = []
    integrate_smooth = loops.integrate_smooth

    def second_lower_leaves(sys, side, start, **kwargs):
        run = integrate_smooth(sys, side, start, **kwargs)
        if side == "lower":
            lower_runs.append(start[0])
            if len(lower_runs) == 2:
                run = dataclasses.replace(run, terminal=dataclasses.replace(
                    run.terminal, kind="window-exit"))
        return run
    monkeypatch.setattr(loops, "integrate_smooth", second_lower_leaves)
    with pytest.raises(VerificationFailed, match=re.escape(
            "cycle through x=-0.35 fails to close")):
        loops._crossing_cycle_witness(_thm5_33_ell1_system(), -0.35)
    assert lower_runs == [-0.35, pytest.approx(-0.3305, abs=1e-4)]


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
