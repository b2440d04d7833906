"""Loop assembly and the scenario censuses built on it."""

import pytest

from filippov2d import (PsiSpec, UnfoldingSpec, VerificationFailed,
                        build_unfolded, canonical_base,
                        canonical_critical_loop, find_crossing_cycles, loops,
                        scenario_thm3, scenario_thm4)
from filippov2d.loops import CLOSURE_TOL, _negative_cluster, _pinned_knots


def _hex_fingerprint(rec):
    """Switching abscissae and closure residual as exact float.hex."""
    return ([x.hex() for x, _ in rec.switching_points],
            rec.closure_residual.hex())


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
    assert _hex_fingerprint(rec) == (
        ["-0x1.eb851eb851eb4p-3", "-0x1.feb9037203000p-1"],
        "0x1.0000000000000p-57")


def test_thm4_census_and_witness_closure():
    census = scenario_thm4(canonical_base(5, 5), 2)
    assert census.beta_cri == {1: 3}
    assert census.beta_cro == {}
    assert census.witnesses
    for _, rec in census.witnesses:
        assert rec.closure_residual <= CLOSURE_TOL
    assert {tag: _hex_fingerprint(rec) for tag, rec in census.witnesses} == {
        "critical@x=-0.5": (["-0x1.fbcc15d16a074p-1", "-0x1.ffffffffffffcp-2"],
                            "0x1.0000000000000p-52"),
        "critical@x=-0.3": (["-0x1.ffbce87db4710p-1", "-0x1.333333333332fp-2"],
                            "0x1.4000000000000p-52"),
        "critical@x=-0.1": (["-0x1.ffffe1cd04621p-1", "-0x1.9999999999963p-4"],
                            "0x1.b800000000000p-51"),
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


def test_a_sign_change_that_closes_no_loop_is_no_cycle():
    # the same system: the displacement changes sign between these points,
    # but the loop through the polished root misses by 2e-2, so the scan
    # drops that root instead of failing the census
    scan = [float.fromhex("-0x1.a7a1b9c87f756p-4"),
            float.fromhex("-0x1.a574f60e7a36fp-4")]
    assert find_crossing_cycles(_thm5_33_ell1_system(), scan) == []
