"""Loop assembly and the scenario censuses built on it."""

import pytest

from filippov2d import (VerificationFailed, canonical_base,
                        canonical_critical_loop, scenario_thm3, scenario_thm4)
from filippov2d.loops import CLOSURE_TOL


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
