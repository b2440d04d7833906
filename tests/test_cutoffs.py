"""Cutoff functions and the piecewise plateau bump psi."""

import itertools
import math
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from filippov2d import (PsiSpec, cutoff_jet, cutoff_up, cutoffs, psi,
                        psi_jet, zero_psi)
from filippov2d.cutoffs import _KNOT_TOL, _cutoff_core, _psi_core, _psi_piece


def cutoff_up_d1(x, r1, r2):
    """The closed-form s' that psi' and the flow use."""
    return _cutoff_core(x, r1, r2)[1]


def psi_dx(spec, x):
    """The closed-form psi' the flow reads."""
    return _psi_core(spec, x)[1]


def test_cutoff_plateau_values():
    assert cutoff_up(-1.0, 0.0, 1.0) == 0.0
    assert cutoff_up(0.0, 0.0, 1.0) == 0.0
    assert cutoff_up(1.0, 0.0, 1.0) == 1.0
    assert cutoff_up(2.0, 0.0, 1.0) == 1.0
    assert cutoff_up(0.5, 0.0, 1.0) == pytest.approx(0.5, abs=1e-15)


def test_cutoff_pair_sums_to_one_inside():
    # the falling step psi uses, 1 - s, is the rising step reflected
    for r1, r2 in ((0.0, 1.0), (-0.3, 0.5)):
        for t in (0.1, 0.25, 0.5, 0.77, 0.9):
            x = r1 + t * (r2 - r1)
            assert cutoff_up(x, r1, r2) + cutoff_up(r1 + r2 - x, r1, r2) \
                == pytest.approx(1.0, abs=1e-15)


def test_cutoff_monotone():
    xs = [i / 50 for i in range(51)]
    vals = [cutoff_up(x, 0.0, 1.0) for x in xs]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


@given(st.floats(0.02, 0.98))
@settings(max_examples=80, deadline=None)
def test_cutoff_derivatives_match_finite_differences(x):
    h = 1e-6
    d1 = (cutoff_up(x + h, 0.0, 1.0) - cutoff_up(x - h, 0.0, 1.0)) / (2 * h)
    assert cutoff_up_d1(x, 0.0, 1.0) == pytest.approx(d1, rel=1e-5, abs=1e-7)
    # second derivative from the closed-form first derivative: a direct
    # second difference of values drowns in rounding noise (~1e-16/h^2)
    d2 = (cutoff_up_d1(x + h, 0.0, 1.0)
          - cutoff_up_d1(x - h, 0.0, 1.0)) / (2 * h)
    jet = cutoff_jet(x, 0.0, 1.0, 2)
    assert jet[1] == pytest.approx(cutoff_up_d1(x, 0.0, 1.0), rel=1e-12)
    assert 2.0 * jet[2] == pytest.approx(d2, rel=1e-4, abs=1e-6)


def test_psi_single_block_values():
    c = 0.37
    spec = PsiSpec(1, (0.0, 1.0, 2.0, c))
    assert psi(spec, 0.5) == pytest.approx(c / 2, abs=1e-15)
    assert psi(spec, 1.0) == pytest.approx(c, abs=1e-15)
    assert psi(spec, 1.5) == pytest.approx(c / 2, abs=1e-15)
    assert psi(spec, 3.0) == 0.0
    assert psi(spec, -1.0) == 0.0


def test_psi_zero_heights():
    spec = PsiSpec(2, (0.0, 0.5, 1.0, 1.5, 2.0, 0.0, 0.0))
    for x in (-0.5, 0.25, 1.0, 1.75, 2.5):
        assert psi(spec, x) == 0.0
        assert psi_dx(spec, x) == 0.0
    assert zero_psi(spec)
    assert zero_psi(None)
    assert not zero_psi(PsiSpec(1, (0.0, 1.0, 2.0, 1e-9)))


def test_psi_two_blocks_take_their_own_heights():
    spec = PsiSpec(2, (0.0, 0.5, 1.0, 1.5, 2.0, 0.2, -0.4))
    assert psi(spec, 0.5) == pytest.approx(0.2, abs=1e-15)
    assert psi(spec, 1.5) == pytest.approx(-0.4, abs=1e-15)
    assert psi(spec, 1.0) == pytest.approx(0.0, abs=1e-12)


def test_psi_slope_bound_on_first_rise():
    # max |psi'| on the rising half is bounded by 8|h| / gap^2
    delta, h = 0.2, 3e-3
    spec = PsiSpec(1, (0.0, delta, 2 * delta, h))
    bound = 8 * abs(h) / delta ** 2
    xs = [i * delta / 800 for i in range(801)]
    worst = max(abs(psi_dx(spec, x)) for x in xs)
    assert worst <= bound
    assert worst > 0.1 * bound  # the bound is tight up to a small factor


def psi_dxx(spec, x):
    return 2.0 * psi_jet(spec, x, 2)[2]


def test_psi_smooth_across_knots():
    spec = PsiSpec(1, (0.0, 0.6, 1.2, 0.05))
    h = 1e-5
    for knot in spec.knots:
        for fn in (psi, psi_dx, psi_dxx):
            left = (fn(spec, knot) - fn(spec, knot - h)) / h
            right = (fn(spec, knot + h) - fn(spec, knot)) / h
            assert left == pytest.approx(right, abs=2e-4)


@given(st.floats(-0.3, 1.5))
@settings(max_examples=100, deadline=None)
def test_psi_dx_matches_finite_difference(x):
    spec = PsiSpec(1, (0.0, 0.6, 1.2, 0.05))
    h = 1e-7
    fd = (psi(spec, x + h) - psi(spec, x - h)) / (2 * h)
    assert psi_dx(spec, x) == pytest.approx(fd, rel=1e-4, abs=1e-7)


def _sup(fn, spec, n=2000):
    lo, hi = spec.support()
    return max(abs(fn(spec, lo + (hi - lo) * i / n)) for i in range(n + 1))


def test_psi_heights_and_slopes_scale_with_the_gap():
    big = PsiSpec(1, (0.0, 0.4, 0.8, 0.4 ** 5))
    small = PsiSpec(1, (0.0, 0.2, 0.4, 0.2 ** 5))
    s0, s1, s2 = (_sup(fn, big) for fn in (psi, psi_dx, psi_dxx))
    t0, t1, t2 = (_sup(fn, small) for fn in (psi, psi_dx, psi_dxx))
    assert t0 <= s0 / 30   # heights scale as gap^5
    assert t1 <= s1 / 7    # slopes as gap^3
    assert t2 <= s2        # curvatures as gap


def test_symmetric_bump_is_even_about_its_peak():
    # the fall is the rise reflected: psi even, psi' odd about the peak
    spec = PsiSpec(1, (-0.2, 0.1, 0.4, 0.03))
    for t in (0.01, 0.07, 0.15, 0.29, 0.35):
        assert psi(spec, 0.1 + t) == pytest.approx(psi(spec, 0.1 - t),
                                                   rel=1e-12, abs=1e-17)
        assert psi_dx(spec, 0.1 + t) == pytest.approx(
            -psi_dx(spec, 0.1 - t), rel=1e-9, abs=1e-15)


def test_psi_fallback_branch():
    # non-ascending knots select the fallback bump over (r1, r2)
    spec = PsiSpec(1, (0.3, 0.3, 0.3, 0.25), r1=-1.0, r2=1.0)
    assert not spec.in_knot_domain()
    assert psi(spec, 2.0) == pytest.approx(0.25, abs=1e-15)
    assert psi(spec, -2.0) == 0.0
    assert psi(spec, 0.0) == pytest.approx(0.125, abs=1e-15)


def test_psi_spec_validation():
    with pytest.raises(ValueError):
        PsiSpec(0, (0.0, 1.0))
    with pytest.raises(ValueError):
        PsiSpec(1, (0.0, 1.0, 2.0))  # wrong length: needs 3d+1
    with pytest.raises(ValueError):
        PsiSpec(1, (0.3, 0.3, 0.3, 0.25), r1=1.0, r2=-1.0)
    with pytest.raises(ValueError):
        PsiSpec(1, (0.3, 0.3, 0.3, 0.25)).support()  # no fallback window


def test_psi_spec_support_and_heights():
    spec = PsiSpec(2, (0.0, 0.5, 1.0, 1.5, 2.0, 0.2, -0.4))
    assert spec.knots == (0.0, 0.5, 1.0, 1.5, 2.0)
    assert spec.heights == (0.2, -0.4)
    assert spec.in_knot_domain()
    assert spec.support() == (0.0, 2.0)


def _psi_piece_by_scan(spec, x):
    """The linear knot scan that _psi_piece's bisection replaced: every
    knot takes the tolerance test, in order."""
    if not spec.in_knot_domain():
        if spec.r1 is None or spec.r2 is None:
            raise ValueError("degenerate knots need a fallback (r1, r2) window")
        return spec.fallback_height, spec.r1, spec.r2, False
    ks = spec.knots
    hs = spec.heights
    for j, kj in enumerate(ks):
        if abs(x - kj) <= _KNOT_TOL * max(1.0, abs(kj)):
            return (hs[j // 2] if j % 2 == 1 else 0.0), None, None, False
    if x <= ks[0] or x >= ks[-1]:
        return 0.0, None, None, False
    for i in range(spec.d):
        left, peak, right = ks[2 * i], ks[2 * i + 1], ks[2 * i + 2]
        if left < x <= peak:
            return hs[i], left, peak, False
        if peak < x <= right:
            return hs[i], peak, right, True
    return 0.0, None, None, False


def _psi_core_by_scan(spec, x):
    """psi and psi' from the scan's piece and the cutoff's closed form."""
    h, r1, r2, falling = _psi_piece_by_scan(spec, x)
    if r1 is None:
        return h, 0.0
    s, d1 = _cutoff_core(x, r1, r2)
    return (h * (1.0 - s), -h * d1) if falling else (h * s, h * d1)


def _assert_piece_matches_scan(spec, x):
    assert _psi_piece(spec, x) == _psi_piece_by_scan(spec, x)
    assert [v.hex() for v in _psi_core(spec, x)] \
        == [v.hex() for v in _psi_core_by_scan(spec, x)]
    got = psi_jet(spec, x, 3)
    with mock.patch.object(cutoffs, "_psi_piece", _psi_piece_by_scan):
        want = psi_jet(spec, x, 3)
    assert [v.hex() for v in got] == [v.hex() for v in want]


@st.composite
def ascending_specs(draw):
    # gaps far above the knot tolerance, so at most one knot lies within
    # it of any x ("the knot at x" is then well defined)
    d = draw(st.integers(1, 3))
    start = draw(st.floats(-20.0, 20.0))
    gaps = draw(st.lists(st.floats(1e-6, 3.0), min_size=2 * d,
                         max_size=2 * d))
    heights = draw(st.lists(st.floats(-2.0, 2.0), min_size=d, max_size=d))
    return PsiSpec(d, tuple(itertools.accumulate(gaps, initial=start))
                   + tuple(heights))


@given(ascending_specs(), st.floats(-50.0, 50.0))
@example(PsiSpec(1, (0.0, 1.0, 2.0, 0.4)), 1e-3)    # eta = 999: saturated,
@example(PsiSpec(1, (0.0, 1.0, 2.0, 0.4)), 0.999)   # and eta = -999
@settings(max_examples=200, deadline=None)
def test_psi_piece_bisection_matches_the_scan(spec, x):
    assert spec.in_knot_domain()
    ks = spec.knots
    xs = [x, ks[0] - 1.0, ks[-1] + 1.0]   # x, and off the support
    xs += [0.5 * (a + b) for a, b in zip(ks, ks[1:])]   # inside each piece
    for k in ks:   # at each knot, at its tolerance and just beyond it
        tol = _KNOT_TOL * max(1.0, abs(k))
        xs += [k, k - tol, k + tol, math.nextafter(k - tol, -math.inf),
               math.nextafter(k + tol, math.inf), k - 2.0 * tol,
               k + 2.0 * tol]
    for v in xs:
        _assert_piece_matches_scan(spec, v)


@given(st.floats(-2.0, 2.0), st.floats(-1.0, 1.0), st.floats(-3.0, 3.0))
@example(0.3, 0.25, 0.2)
@settings(max_examples=100, deadline=None)
def test_psi_piece_fallback_matches_the_scan(k, h, x):
    knots = (k, k, k + 1.0)   # not strictly ascending
    _assert_piece_matches_scan(PsiSpec(1, knots + (h,), r1=-1.0, r2=1.0), x)
    bare = PsiSpec(1, knots + (h,))
    for piece in (_psi_piece, _psi_piece_by_scan):
        with pytest.raises(ValueError, match="fallback"):
            piece(bare, x)
