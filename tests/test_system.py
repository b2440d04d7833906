"""Two-zone system layer: h, sliding field, region split."""

import pytest
from hypothesis import given, settings, strategies as st

from filippov2d import (NotSliding, PsiSpec, UnfoldingSpec, Window,
                        build_unfolded, canonical_base, decompose_sigma,
                        h_value, sliding_convex_coefficient, sliding_field,
                        unfolding)
from filippov2d.loops import _negative_cluster, _pinned_knots, _plateau_psi
from conftest import make_sys


def test_h_value_examples():
    assert h_value(make_sys("1", "x", "1", "1"), 0.0) == 0.0
    assert h_value(make_sys("1", "-1", "1", "1"), 0.37) == -1.0
    assert h_value(make_sys("1", "x", "1", "x - 1"), 0.5) == pytest.approx(-0.25)


def test_sliding_field_arithmetic():
    s = make_sys("2", "-1", "4", "1")
    # (f+ g-  -  f- g+) / (g- - g+) = (2*1 - 4*(-1)) / 2 = 3
    assert sliding_field(s, 0.1) == pytest.approx(3.0, abs=1e-14)
    s2 = make_sys("1", "-2", "-1", "1")
    assert sliding_field(s2, 0.0) == pytest.approx(-1.0 / 3.0, abs=1e-14)


def test_sliding_field_equal_f_is_that_f():
    for c in (-2.0, 0.5, 3.25):
        s = make_sys(f"{c!r}", "-1 - x^2", f"{c!r}", "2 + x^4")
        for x in (-0.9, 0.0, 0.8):
            assert sliding_field(s, x) == pytest.approx(c, abs=1e-12)


def test_sliding_field_requires_sliding_region():
    s = make_sys("1", "1", "1", "1")  # h = 1 > 0: crossing
    with pytest.raises(NotSliding):
        sliding_field(s, 0.0)


def test_decompose_linear_fold():
    s = make_sys("1", "x", "1", "1")
    dec = decompose_sigma(s)
    assert len(dec.tangency_candidates) == 1
    assert dec.tangency_candidates[0] == pytest.approx(0.0, abs=1e-10)
    assert len(dec.sliding) == 1 and len(dec.crossing) == 1
    (a, b), (c, d) = dec.sliding[0], dec.crossing[0]
    assert (a, b) == pytest.approx((-1.0, 0.0), abs=1e-9)
    assert (c, d) == pytest.approx((0.0, 1.0), abs=1e-9)


def test_decompose_mirrored_fold():
    # g+ = -x: the upper field points down on the right, so the halves swap
    dec = decompose_sigma(make_sys("1", "-x", "1", "1"))
    assert dec.sliding == [(pytest.approx(0.0, abs=1e-12), 1.0)]
    assert dec.crossing == [(-1.0, pytest.approx(0.0, abs=1e-12))]
    assert dec.tangency_candidates == [pytest.approx(0.0, abs=1e-10)]


def test_decompose_trivial_crossing():
    dec = decompose_sigma(make_sys("1", "1", "1", "1"))
    assert dec.tangency_candidates == []
    assert dec.sliding == []
    assert len(dec.crossing) == 1


def test_decompose_quadratic():
    s = make_sys("1", "x * (x - 0.5)", "1", "1")
    dec = decompose_sigma(s)
    assert [pytest.approx(c, abs=1e-9) for c in (0.0, 0.5)] \
        == dec.tangency_candidates
    assert len(dec.sliding) == 1
    assert dec.sliding[0] == (pytest.approx(0.0, abs=1e-9),
                              pytest.approx(0.5, abs=1e-9))
    spans = sorted(dec.crossing)
    assert spans[0][1] == pytest.approx(0.0, abs=1e-9)
    assert spans[1][0] == pytest.approx(0.5, abs=1e-9)


def test_decompose_sliding_and_crossing_halves():
    s = make_sys("1", "x", "1", "1")
    dec = decompose_sigma(s)
    assert dec.sliding == [(-1.0, pytest.approx(0.0, abs=1e-12))]
    assert dec.crossing == [(pytest.approx(0.0, abs=1e-12), 1.0)]


small = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


@given(small, small, small, small, st.floats(-0.95, 0.95))
@settings(max_examples=150, deadline=None)
def test_convex_combination_on_random_sliding_systems(c0, c1, c2, c3, x):
    # g+ < 0 < g- everywhere, so all of Sigma slides
    s = make_sys(f"{c0!r} + x", f"-1 - {abs(c1)!r} - x^2",
                 f"{c2!r} - x", f"1 + {abs(c3)!r} + x^2")
    a = sliding_convex_coefficient(s, x)
    assert 0.0 <= a <= 1.0
    fp, gp = s.f_plus.value(x, 0.0), s.g_plus.value(x, 0.0)
    fm, gm = s.f_minus.value(x, 0.0), s.g_minus.value(x, 0.0)
    assert a * gp + (1 - a) * gm == pytest.approx(0.0, abs=1e-10)
    assert a * fp + (1 - a) * fm == pytest.approx(
        sliding_field(s, x), abs=1e-10)


def test_candidates_track_h_sign_changes():
    s = make_sys("1", "(x - 0.3) * (x + 0.62)", "1", "1 + x^2")
    dec = decompose_sigma(s)
    for c in dec.tangency_candidates:
        assert abs(h_value(s, c)) < 1e-8
    assert [pytest.approx(v, abs=1e-10) for v in (-0.62, 0.3)] \
        == dec.tangency_candidates


def test_window_validation():
    with pytest.raises(ValueError):
        Window(1.0, -1.0, -1.0, 1.0)
    with pytest.raises(ValueError):
        Window(-1.0, 1.0, 0.5, 1.0)  # Sigma must be interior
    assert Window(-1.0, 1.0, -1.0, 1.0).width == 2.0


@pytest.mark.parametrize("x, want", [
    (-0.27, ("-0x1.9e0054f0661dbp-15", "0x1.f6e0b70a28fbfp-1",
             "0x1.edc16e1451f7ep-1")),
    (-0.25, ("-0x1.4ad92931a09e4p-3", "0x1.7315b54a5acedp-7",
             "-0x1.f4675255ad299p-1")),
    (-0.07, ("-0x1.13143f2e48b0dp-18", "0x1.1b3fc2ca7ad99p-2",
             "-0x1.c9807a6b0a4cfp-2")),
])
def test_sliding_point_calls_each_sheared_side_once(monkeypatch, x, want):
    # thm5 (3,3) ell=1's bumps above, a plateau shear below: h, the convex
    # coefficient and the sliding field each evaluate psi once per side,
    # with the values of one .value call per component, bit for bit
    calls = []
    psi_core = unfolding._psi_core

    def counted(spec, x):
        calls.append(x)
        return psi_core(spec, x)
    monkeypatch.setattr(unfolding, "_psi_core", counted)
    lam = _negative_cluster(3, 0.1)
    heights = (float.fromhex("0x1.33905d00237bdp-6"),
               float.fromhex("0x1.7b98654fdce00p-8"))
    system = build_unfolded(UnfoldingSpec(
        canonical_base(3, 3), lam, (0.0,) * 3,
        PsiSpec(2, _pinned_knots(lam, 0.1) + heights),
        _plateau_psi(-0.0021, -0.45)))
    got, per_call = [], []
    for fn in (h_value, sliding_convex_coefficient, sliding_field):
        before = len(calls)
        got.append(fn(system, x).hex())
        per_call.append(len(calls) - before)
    assert tuple(got) == want
    assert per_call == [2, 2, 2]
