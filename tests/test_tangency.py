"""Tangency detection: multiplicity, visibility, split tangencies."""

import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp

from filippov2d import (IndeterminateMultiplicity, ZeroLeadingCoefficient,
                        find_tangent_points, multiplicity_at, visibility)
from filippov2d import system, tangency
from filippov2d.fieldexpr import ScalarField
from conftest import make_sys


def test_multiplicity_monomials():
    assert multiplicity_at(ScalarField("x^3"), 1.0, 0.0) == 3
    assert multiplicity_at(ScalarField("sin(x)"), 1.0, 0.0) == 1
    g = ScalarField("x^2 * (x - 1)")
    assert multiplicity_at(g, 1.0, 0.0) == 2
    assert multiplicity_at(g, 1.0, 1.0) == 1


def test_multiplicity_zero_when_g_nonzero():
    assert multiplicity_at(ScalarField("1 + x"), 1.0, 0.0) == 0


def test_multiplicity_flat_is_indeterminate():
    with pytest.raises(IndeterminateMultiplicity):
        multiplicity_at(ScalarField("0"), 1.0, 0.0)


def test_visibility_fold_cases():
    # upper orbit through a simple fold: y ~ (g'/2f) x^2
    assert visibility("upper", 1, 1.0, 1.0) == "V"
    assert visibility("upper", 1, 1.0, -1.0) == "I"
    assert visibility("lower", 1, 1.0, -1.0) == "V"
    assert visibility("lower", 1, 1.0, 1.0) == "I"


def test_visibility_even_cases():
    assert visibility("upper", 2, 1.0, 2.0) == "R"
    assert visibility("upper", 2, 1.0, -2.0) == "L"
    assert visibility("lower", 2, 1.0, 2.0) == "L"
    assert visibility("lower", 2, 1.0, -2.0) == "R"


def test_visibility_guards():
    with pytest.raises(ZeroLeadingCoefficient):
        visibility("upper", 2, 1.0, 0.0)
    with pytest.raises(ValueError):
        visibility("upper", 0, 1.0, 1.0)
    with pytest.raises(ValueError):
        visibility("middle", 1, 1.0, 1.0)


def _branch_signs(fc, gc, side):
    """Integrate the orbit through (0,0); return sign of y on each x-branch."""
    out = {}
    for sgn in (1.0, -1.0):
        sol = solve_ivp(lambda t, s: [fc(*s), gc(*s)], (0.0, sgn * 1e-2),
                        [0.0, 0.0], rtol=1e-12, atol=1e-14, dense_output=True)
        xe, ye = sol.y[0][-1], sol.y[1][-1]
        out["right" if xe > 0 else "left"] = math.copysign(1.0, ye)
    return out


@given(st.integers(1, 4), st.floats(0.2, 3.0), st.booleans(), st.booleans(),
       st.floats(-0.3, 0.3))
@settings(max_examples=60, deadline=None)
def test_visibility_matches_integrated_branches(m, c, neg_c, neg_f, tilt):
    c = -c if neg_c else c
    f0 = -1.0 if neg_f else 1.0
    g = ScalarField(f"{c!r} * x^{m} * (1 + {tilt!r} * x)")
    f = ScalarField(f"{f0!r}")
    label = visibility("upper", m, f0, c * math.factorial(m))
    signs = _branch_signs(lambda x, y: f0,
                          lambda x, y: g.value(x, y), "upper")
    if label == "V":
        assert signs["left"] > 0 and signs["right"] > 0
    elif label == "I":
        assert signs["left"] < 0 and signs["right"] < 0
    elif label == "R":
        assert signs["right"] > 0 and signs["left"] < 0
    else:  # L
        assert signs["left"] > 0 and signs["right"] < 0


def test_find_single_sided_fold():
    s = make_sys("1", "x", "1", "1")
    scan = find_tangent_points(s)
    assert len(scan.records) == 1
    r = scan.records[0]
    assert (r.m_plus, r.m_minus) == (1, 0)
    assert r.vis_plus == "V" and r.vis_minus is None
    assert r.label == "V."
    assert r.x0 == pytest.approx(0.0, abs=1e-9)


def test_find_double_fold():
    s = make_sys("1", "x", "1", "0 - x")
    scan = find_tangent_points(s)
    assert len(scan.records) == 1
    r = scan.records[0]
    assert (r.m_plus, r.m_minus) == (1, 1)
    assert r.vis_plus == "V"   # upper orbit y = x^2/2
    assert r.vis_minus == "V"  # lower orbit y = -x^2/2 lies in y <= 0
    assert r.label == "VV"


def test_find_nothing_on_pure_crossing():
    scan = find_tangent_points(make_sys("1", "1", "1", "1"))
    assert scan.records == [] and scan.boundary_equilibria == []


def test_boundary_equilibrium_is_excluded():
    s = make_sys("x", "x", "1", "1")
    scan = find_tangent_points(s)
    assert scan.records == []
    assert len(scan.boundary_equilibria) == 1
    assert scan.boundary_equilibria[0].side == "upper"
    assert scan.boundary_equilibria[0].x0 == pytest.approx(0.0, abs=1e-9)


def _record(sys):
    recs = find_tangent_points(sys).records
    assert len(recs) == 1
    return recs[0]


def test_cubic_split_gives_three_simple_tangencies():
    base = _record(make_sys("1", "x^3", "1", "1"))
    assert (base.m_plus, base.m_minus) == (3, 0)
    recs = find_tangent_points(
        make_sys("1", "(x + 0.1) * x * (x - 0.1)", "1", "1")).records
    assert [r.m_plus for r in recs] == [1, 1, 1]
    assert [r.vis_plus for r in recs] == ["V", "I", "V"]


def test_shifted_double_root_keeps_its_multiplicity():
    rec = _record(make_sys("1", "(x - 0.05)^2", "1", "1"))
    assert rec.x0 == pytest.approx(0.05, abs=1e-7)
    assert (rec.m_plus, rec.m_minus) == (2, 0)


@given(st.lists(st.floats(-0.6, 0.6), min_size=4, max_size=4, unique=True))
@settings(max_examples=40, deadline=None)
def test_full_splits_alternate_visibility(lams):
    lams = sorted(lams)
    if min(b - a for a, b in zip(lams, lams[1:])) < 0.05:
        return  # roots too close for the default scan resolution
    prod = "*".join(f"(x - {v!r})" for v in lams)
    s = make_sys("1", prod, "1", "1")
    scan = find_tangent_points(s)
    vis = [r.vis_plus for r in scan.records]
    assert len(vis) == 4
    assert vis in (["V", "I", "V", "I"], ["I", "V", "I", "V"])
    # quartic with positive leading coefficient: rightmost fold is visible
    assert vis[-1] == "V"


def test_parity_rule_on_mixed_example():
    s = make_sys("1", "x^2 * (x - 0.4)", "1", "0 - x")
    for r in find_tangent_points(s).records:
        for m, v in ((r.m_plus, r.vis_plus), (r.m_minus, r.vis_minus)):
            if m == 0:
                assert v is None
            elif m % 2 == 1:
                assert v in ("V", "I")
            else:
                assert v in ("L", "R")


def test_no_function_takes_scan_settings():
    # the Sigma scan's grid, merge distance, derivative order and
    # thresholds are module constants (system.SCAN_CELLS, MERGE_TOL;
    # tangency.MAX_ORDER, EPS), and a tangency scan decomposes Sigma itself
    knobs = {"resolution", "merge_tol", "max_order", "eps", "tol_rel", "dec"}
    hits = []
    for mod in (system, tangency):
        for obj in vars(mod).values():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isclass(obj):
                fns = [v for v in vars(obj).values() if inspect.isfunction(v)]
            else:
                fns = [obj] if inspect.isfunction(obj) else []
            hits += [f"{mod.__name__}.{fn.__qualname__}({name})"
                     for fn in fns
                     for name in inspect.signature(fn).parameters
                     if name in knobs]
    assert hits == []


def _split_system(points):
    """Upper and lower g with a k-fold zero at each (x, side, k)."""
    def g(side, phi):
        factors = [f"(x - {x!r})^{k}" for x, s, k in points if s == side]
        return " * ".join(factors + [phi])
    return make_sys("1", g("upper", "(1 + 0.3*x)"),
                    "-1", g("lower", "(1 + 0.25*x)"))


def _assert_found(points):
    recs = find_tangent_points(_split_system(points)).records
    assert len(recs) == len(points)
    for r, (x, side, k) in zip(recs, sorted(points)):
        assert r.x0 == pytest.approx(x, abs=1e-9)
        assert (r.m_plus, r.m_minus) == ((k, 0) if side == "upper"
                                         else (0, k))


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_off_grid_splits_come_back_with_their_multiplicities(data):
    # points at least 0.2 apart in (-0.85, 0.85), almost surely off the
    # scan grid, each a k-fold zero of one side, with k summing to <= 9
    points, budget = [], 9
    x = data.draw(st.floats(-0.85, 0.85))
    while x < 0.85 and budget > 0:
        k = data.draw(st.integers(1, min(7, budget)))
        side = data.draw(st.sampled_from(["upper", "lower"]))
        points.append((x, side, k))
        budget -= k
        x += data.draw(st.floats(0.2, 0.7))
    _assert_found(points)


H = 2e-3  # scan grid step on the window (-1, 1)


@pytest.mark.parametrize("m1,m2,cells", [(3, 3, 1), (3, 1, 3), (2, 2, 3),
                                         (1, 1, 1)])
def test_close_pairs_are_resolved(m1, m2, cells):
    x = 0.1234567
    _assert_found([(x, "upper", m1), (x + cells * H, "upper", m2)])


def test_six_fold_zero_next_to_a_grid_point():
    # c1^2 underflows at the grid point x = 0, a distance 2.9e-39 away
    _assert_found([(-2.9e-39, "upper", 6)])


def test_side_with_g_identically_zero_gives_one_indeterminate_record():
    recs = find_tangent_points(make_sys("1", "0", "-1", "1")).records
    assert [(r.m_plus, r.m_minus, r.label) for r in recs] == [(-1, -1, "??")]
