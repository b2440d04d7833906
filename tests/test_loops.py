"""Loop assembly and the scenario censuses built on it."""

import pytest

from filippov2d import (PsiSpec, UnfoldingSpec, VerificationFailed,
                        build_unfolded, canonical_base,
                        canonical_critical_loop, loops, scenario_thm3,
                        scenario_thm4)
from filippov2d.loops import CLOSURE_TOL, _negative_cluster, _pinned_knots


@pytest.mark.parametrize("m", [1, 5])
def test_canonical_loop_is_critical_with_one_contact(m):
    _, rec = canonical_critical_loop(m, m)
    assert rec.kind == "critical"
    assert rec.tangent_touch_count == 1
    assert rec.closure_residual <= CLOSURE_TOL


@pytest.mark.xfail(strict=True, raises=VerificationFailed,
                   reason="missed contact: one DOP853 step strides over both "
                          "zeros of g+ and the upper arc leaves the window "
                          "(ROADMAP item 1)")
def test_canonical_loop_3_3():
    canonical_critical_loop(3, 3)


def test_thm3_critical_loop_with_two_contacts():
    _, rec = scenario_thm3(canonical_base(5, 5), 2, "critical")
    assert rec.kind == "critical"
    assert rec.tangent_touch_count == 2


def test_thm4_census_and_witness_closure():
    census = scenario_thm4(canonical_base(5, 5), 2)
    assert census.beta_cri == {1: 3}
    assert census.beta_cro == {}
    assert census.witnesses
    for _, rec in census.witnesses:
        assert rec.closure_residual <= CLOSURE_TOL


def test_cycle_witness_polish_stays_in_the_window(monkeypatch):
    # thm5 (3,3) ell=1: the displacement root at q misses by about 1e2 in
    # abscissa units, so an unbounded secant step seeds far off the window
    lam = _negative_cluster(3, 0.1)
    heights = (float.fromhex("0x1.33905d00237bdp-6"),
               float.fromhex("0x1.7b98654fdce00p-8"))
    system = build_unfolded(UnfoldingSpec(
        canonical_base(3, 3), lam, (0.0,) * 3,
        PsiSpec(2, _pinned_knots(lam, 0.1) + heights)))
    w = system.window
    starts = []
    integrate_smooth = loops.integrate_smooth

    def recording(f, g, start, *args, **kwargs):
        starts.append(start[0])
        return integrate_smooth(f, g, start, *args, **kwargs)
    monkeypatch.setattr(loops, "integrate_smooth", recording)
    with pytest.raises(VerificationFailed, match="fails to close"):
        loops._crossing_cycle_witness(system, -0.10289492812919601,
                                      t_leg=loops._transit_budget(w))
    assert starts
    assert all(w.x_lo <= x <= w.x_hi for x in starts), starts
