"""Cutoff functions and the piecewise plateau bump psi."""

import itertools
import math
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from filippov2d import (PsiSpec, cutoff_jet, cutoff_up, cutoffs, psi,
                        psi_jet, unfolding, zero_psi)
from filippov2d.cutoffs import _cutoff_core, _psi_core, _psi_piece
from filippov2d.fieldexpr import as_field
from filippov2d.loops import (_negative_cluster, _pinned_knots,
                              _plateau_psi, _positive_cluster)
from filippov2d.unfolding import ShearedField


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
    with pytest.raises(ValueError, match="fallback"):
        PsiSpec(1, (0.3, 0.3, 0.3, 0.25))  # degenerate, no fallback window


def test_psi_spec_support_and_heights():
    spec = PsiSpec(2, (0.0, 0.5, 1.0, 1.5, 2.0, 0.2, -0.4))
    assert spec.knots == (0.0, 0.5, 1.0, 1.5, 2.0)
    assert spec.heights == (0.2, -0.4)
    assert spec.in_knot_domain()
    assert spec.support() == (0.0, 2.0)


def _psi_piece_by_scan(spec, x):
    """The linear piece scan that _psi_piece's bisection replaced: x's
    piece is the first (left, right] that holds it, none off the support;
    no knot takes a tolerance test."""
    if not spec.in_knot_domain():
        return spec.fallback_height, spec.r1, spec.r2, False
    ks = spec.knots
    pieces = [(spec.heights[i // 2], ks[i], ks[i + 1], i % 2 == 1)
              for i in range(2 * spec.d)]
    return next((p for p in pieces if p[1] < x <= p[2]),
                (0.0, None, None, False))


def _cutoff_by_formula(x, r1, r2):
    """(s, s') of the cutoff written as a function that returns early: the
    closed form the psi template's generated code is held to."""
    if x <= r1:
        return 0.0, 0.0
    if x >= r2:
        return 1.0, 0.0
    t1 = 1.0 / (x - r1)
    t2 = 1.0 / (x - r2)
    eta = t1 + t2
    if eta >= 700.0:
        return 0.0, 0.0
    if eta <= -700.0:
        return 1.0, 0.0
    if eta >= 0.0:
        u = math.exp(-eta)
        s = u / (1.0 + u)
        q = u / (1.0 + u) ** 2
    else:
        e = math.exp(eta)
        s = 1.0 / (1.0 + e)
        q = e / (1.0 + e) ** 2
    nu2 = t1 * t1 + t2 * t2
    return s, nu2 * q


def _psi_core_by_scan(spec, x):
    """psi and psi' from the scan's piece and the cutoff's closed form."""
    h, r1, r2, falling = _psi_piece_by_scan(spec, x)
    if r1 is None:
        return h, 0.0
    s, d1 = _cutoff_by_formula(x, r1, r2)
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
    # gaps far above 1e-14, the offsets the test takes around each knot
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
    for k in ks:   # at each knot, 1e-14 (relative) off it and beyond
        tol = 1e-14 * max(1.0, abs(k))
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
    with pytest.raises(ValueError, match="fallback"):
        PsiSpec(1, knots + (h,))   # refused before any piece is read


def _scenario_profiles(delta):
    """The knots of every thm2-thm5 plateau profile at m = 3, 5, 7, with
    made-up positive heights: thm2's invisible and visible clusters and
    the pinned knots of thm3-thm5."""
    for m in (3, 5, 7):
        pos, neg = _positive_cluster(m, delta), _negative_cluster(m, delta)
        for knots in (pos, (0.5 * delta,) + pos + (pos[-1] + 0.5 * delta,),
                      _pinned_knots(neg, delta)):
            d = (len(knots) - 1) // 2
            yield PsiSpec(d, tuple(knots) + tuple(10.0 ** -(i + 3)
                                                  for i in range(d)))


def _sheared_psi(spec):
    """x -> (p, dp) as a compiled sheared side reads psi and psi': its f~
    is u = -0.0 + p, and its g~ is -0.0 - (-1) * dp, each exactly p or
    dp, signed zeros included."""
    f = ShearedField(as_field("y"), spec)
    side = f.side_with(ShearedField(as_field("-0.0"), spec, as_field("-1")))
    return lambda x: side(x, -0.0)


def _template_points(spec):
    """Off the support (nan and the infinities too), at each knot or window
    edge and 1 ulp either side, and 2^-i of each piece's width in from
    both its ends, down through the saturated band |eta| >= 700."""
    edges = spec.knots if spec.in_knot_domain() else (spec.r1, spec.r2)
    xs = [edges[0] - 1.0, edges[-1] + 1.0, -math.inf, math.inf, math.nan]
    for k in edges:
        xs += [k, math.nextafter(k, -math.inf), math.nextafter(k, math.inf)]
    for a, b in zip(edges, edges[1:]):
        xs += [x for i in range(1, 48) for x in (a + (b - a) * 2.0 ** -i,
                                                 b - (b - a) * 2.0 ** -i)]
    return xs


_TEMPLATE_SPECS = {
    "scenario-knots": next(_scenario_profiles(0.1)),
    "two-bumps": PsiSpec(2, (-1.0, -0.6, -0.5, 0.2, 0.3, 0.02, -0.7)),
    "plateau-fallback": _plateau_psi(-0.0021, -0.45),
    "fallback-window": PsiSpec(1, (0.3, 0.3, 1.3, 0.25), r1=-1.0, r2=1.0),
}


@pytest.mark.parametrize("name", sorted(_TEMPLATE_SPECS))
def test_psi_template_gives_the_closed_forms_bits(name):
    # _psi_core and a sheared side, both generated from the psi template,
    # against the scan's piece and the cutoff written as a function, as
    # float.hex: knot bumps and fallback windows, at and next to each
    # knot, through the saturated band and off the support
    spec = _TEMPLATE_SPECS[name]
    side, saturated = _sheared_psi(spec), 0
    for x in _template_points(spec):
        want = [v.hex() for v in _psi_core_by_scan(spec, x)]
        assert [v.hex() for v in _psi_core(spec, x)] == want, x
        assert [v.hex() for v in side(x)] == want, x
        _, r1, r2, _ = _psi_piece_by_scan(spec, x)
        if r1 is not None and r1 < x < r2:
            assert [v.hex() for v in _cutoff_core(x, r1, r2)] \
                == [v.hex() for v in _cutoff_by_formula(x, r1, r2)], x
            saturated += abs(1.0 / (x - r1) + 1.0 / (x - r2)) >= 700.0
    assert saturated > 10


def _sheared_pair(spec, f, g, negated=False):
    """The side function of the transition pair (f, g) sheared by spec,
    and the body it was generated from."""
    with mock.patch.object(unfolding, "generated_fn",
                           wraps=unfolding.generated_fn) as gen:
        side = ShearedField(as_field(f), spec).side_with(
            ShearedField(as_field(g), spec, as_field(f)), negated)
    return side, gen.call_args.args[1]


# transition pairs (f^, g^) that read no y: one whose g~ is psi' itself,
# signed zeros included (-0.0 - (-1.0) * dp), and one of the canonical
# family's shape
_Y_FREE_PAIRS = [("-1", "-0.0"), ("2.5", "(3 * x + 2.0) * x * (x + 0.5)")]


@pytest.mark.parametrize("pair", _Y_FREE_PAIRS)
@pytest.mark.parametrize("name", sorted(_TEMPLATE_SPECS))
def test_a_y_free_sheared_pair_reads_psi_slope_alone(name, pair):
    # (f~, g~) = (f^, g^(x) - f^ * psi'(x)) as float.hex, forward and
    # negated, with psi' the scan's piece on the cutoff's closed form, at
    # every template point (nan, the infinities, each knot and 1 ulp off
    # it, the saturated band); the body is the slope body, with no u
    spec = _TEMPLATE_SPECS[name]
    f_hat, g_hat = (as_field(src).value for src in pair)
    for negated in (False, True):
        side, body = _sheared_pair(spec, *pair, negated)
        assert "y = y + p" not in body
        assert body.startswith(cutoffs._slope_source(spec)[0])
        for x in _template_points(spec):
            f, g = f_hat(x, 0.0), g_hat(x, 0.0)
            want = (f, g - f * _psi_core_by_scan(spec, x)[1])
            if negated:
                want = (-want[0], -want[1])
            assert [v.hex() for v in side(x, 0.75)] \
                == [v.hex() for v in want], x


@pytest.mark.parametrize("pair", [("y", "-0.0"), ("-1", "x + y"),
                                  ("1 + 0.5 * y", "x * y")])
def test_a_sheared_pair_reading_y_keeps_the_full_body(pair):
    for spec in _TEMPLATE_SPECS.values():
        _, body = _sheared_pair(spec, *pair)
        assert body.startswith(cutoffs._psi_source(spec)[0]
                               + "y = y + p\n")


@pytest.mark.parametrize("delta", [0.02, 0.05, 0.1])
def test_psi_is_flat_at_every_scenario_knot_by_the_cutoff_alone(delta):
    # at a knot, its 8 nextafter neighbours each way and 1e-14 (relative)
    # off it, psi is exactly its knot value (0 at a foot, h at a peak),
    # psi' is 0 and the jet is constant, with no knot snapping
    for spec in _scenario_profiles(delta):
        for j, k in enumerate(spec.knots):
            want = spec.heights[j // 2] if j % 2 else 0.0
            tol = 1e-14 * max(1.0, abs(k))
            xs = [k, k - tol, k + tol]
            for way in (-math.inf, math.inf):
                x = k
                for _ in range(8):
                    x = math.nextafter(x, way)
                    xs.append(x)
            for x in xs:
                assert _psi_core(spec, x) == (want, 0.0), (spec, x)
                assert psi_jet(spec, x, 8) == [want] + [0.0] * 8, (spec, x)
