"""Two-zone system layer: h, sliding field, region split."""

import re
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from filippov2d import (NotSliding, PsiSpec, PwsSystem, UnfoldingSpec,
                        Window, build_unfolded, canonical_base, decompose_sigma,
                        cutoffs, h_value, sliding_field, unfolding)
from filippov2d.fieldexpr import ScalarField
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
    fp, gp = s.f_plus.value(x, 0.0), s.g_plus.value(x, 0.0)
    fm, gm = s.f_minus.value(x, 0.0), s.g_minus.value(x, 0.0)
    a = gm / (gm - gp)
    assert 0.0 <= a <= 1.0
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


def test_a_read_scale_leaves_a_system_equal_to_its_twin():
    # sigma_g_scale and side_fn keep what they make on the system, outside
    # its fields: two systems of the same fields stay equal after either
    # reads
    a = canonical_base(3, 3).system()
    b = PwsSystem(*a.upper(), *a.lower(), a.window)
    assert a == b
    a.sigma_g_scale("upper")
    a.side_fn("lower")
    a.side_fn("upper", -1.0)
    assert a == b and b == a
    # a system differs from one with another field, window or transition
    assert a != PwsSystem(*a.upper(), a.g_minus, a.g_minus, a.window)
    assert a != PwsSystem(*a.upper(), *a.lower(), Window(-1.0, 1.0, -1, 1))
    sheared = PwsSystem(*a.upper(), *a.lower(), a.window, (b, None))
    assert a != sheared and sheared == PwsSystem(*b.upper(), *b.lower(),
                                                 a.window, (a, None))


def test_a_system_in_another_window_shares_its_side_functions():
    # the crossing-cycle witness caps its upper return on a new window at
    # each secant step: the capped system keeps the fields and the compiled
    # sides, and scales g over its own window
    a = make_sys("1", "1 + x", "-1", "1")
    cap = Window(-1.0, 0.0, -1.0, 1.0)
    capped = a.in_window(cap)
    assert capped == PwsSystem(*a.upper(), *a.lower(), cap)
    assert capped.window is cap and a.window is not cap
    for which, sign in (("upper", 1.0), ("lower", 1.0), ("upper", -1.0)):
        assert capped.side_fn(which, sign) is a.side_fn(which, sign)
    assert (a.sigma_g_scale("upper"), capped.sigma_g_scale("upper")) \
        == (1.0 + 2.0, 1.0 + 1.0)   # max |1 + x| over each window


def test_side_fn_keeps_the_side_and_its_negation():
    # one memo per (side, time sign); a backward transit's side is the
    # negation of the forward one, bit for bit, on every kind of pair
    s = make_sys("1 + 0.5*y", "x - 0.25", "-1", "2")
    # a g with no compiled side: the lower side is one .value call each
    s.g_minus = SimpleNamespace(value=lambda x, y: 2.0 - x)
    for which in ("upper", "lower"):
        fwd, back = s.side_fn(which), s.side_fn(which, -1.0)
        assert fwd is s.side_fn(which, 1.0) and back is s.side_fn(which, -1)
        for x, y in ((0.3, 0.2), (-0.7, -0.1), (0.25, 0.0)):
            f, g = fwd(x, y)
            assert back(x, y) == (-f, -g)
    with pytest.raises(ValueError, match="time_sign must be 1 or -1"):
        s.side_fn("upper", 2.0)


def test_window_validation():
    # Sigma must be interior; each refusal names the rule it applies
    order, straddle = ("window needs x_lo < x_hi",
                       "window must straddle Sigma: y_lo < 0 < y_hi")
    for bounds, message in (((1.0, -1.0, -1.0, 1.0), order),
                            ((-1.0, 1.0, 0.5, 1.0), straddle),
                            ((-1.0, 1.0, -1.0, 0.0), straddle)):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Window(*bounds)
    assert Window(-1.0, 1.0, -1.0, 1.0).width == 2.0


def _bumps_over_plateau() -> UnfoldingSpec:
    """thm5 (3,3) ell=1's pinned bumps above, a plateau shear below."""
    lam = _negative_cluster(3, 0.1)
    heights = (float.fromhex("0x1.33905d00237bdp-6"),
               float.fromhex("0x1.7b98654fdce00p-8"))
    upper = PsiSpec(2, _pinned_knots(lam, 0.1) + heights)
    lower = _plateau_psi(-0.0021, -0.45)   # the fallback window
    return UnfoldingSpec(canonical_base(3, 3), lam, (0.0,) * 3, upper, lower)


class _ValueOnly:
    """A field offering value alone: its side takes side_fn's fallback."""

    def __init__(self, src):
        self.field = ScalarField(src)

    def value(self, x, y):
        return self.field.value(x, y)


_SIDES = ("1 + x*x", "x - 0.3", "-2 + 0.5*x", "0.25 - x*x")
_SYSTEMS = {
    "expression": lambda: make_sys(*_SIDES),
    "sheared": lambda: build_unfolded(_bumps_over_plateau()),
    "value-only": lambda: PwsSystem(*map(_ValueOnly, _SIDES),
                                    Window(-1.0, 1.0, -1.0, 1.0)),
}


@pytest.mark.parametrize("kind", sorted(_SYSTEMS))
def test_at_sigma_is_one_call_of_each_side_function(monkeypatch, kind):
    # (f+, g+, f-, g-) equal the four .value reads bit for bit, on compiled
    # expression and sheared pairs and on side_fn's .value fallback, and
    # each side function is called once
    s = _SYSTEMS[kind]()
    calls = []
    side_fn = PwsSystem.side_fn

    def counted(self, which, time_sign=1.0):
        fn = side_fn(self, which, time_sign)

        def call(x, y):
            calls.append(which)
            return fn(x, y)
        return call
    monkeypatch.setattr(PwsSystem, "side_fn", counted)
    fields = (s.f_plus, s.g_plus, s.f_minus, s.g_minus)
    for x in (-0.27, -0.25, -0.07, 0.3):
        want = [f.value(x, 0.0).hex() for f in fields]
        calls.clear()
        assert [v.hex() for v in s.at_sigma(x)] == want
        assert calls == ["upper", "lower"]


@pytest.mark.parametrize("x, want", [
    (-0.27, ("-0x1.9e0054f0661dbp-15", "0x1.edc16e1451f7ep-1")),
    (-0.25, ("-0x1.4ad92931a09e4p-3", "-0x1.f4675255ad299p-1")),
    (-0.07, ("-0x1.13143f2e48b0dp-18", "-0x1.c9807a6b0a4cfp-2")),
])
def test_sliding_point_calls_each_sheared_side_once(monkeypatch, x, want):
    # thm5 (3,3) ell=1's bumps above, a plateau shear below: h and the
    # sliding field each call one compiled sheared function per side, whose
    # source holds psi's body once, with the values of one .value call per
    # component, bit for bit
    spec = _bumps_over_plateau()
    psi_bodies = [cutoffs._psi_source(p)[0]
                  for p in (spec.psi_plus, spec.psi_minus)]
    calls = []
    compiled = unfolding.generated_fn

    def counted(args, body, out, names):
        assert sorted(body.count(psi) for psi in psi_bodies) == [0, 1]
        fn = compiled(args, body, out, names)

        def call(x, y):
            calls.append(x)
            return fn(x, y)
        return call
    monkeypatch.setattr(unfolding, "generated_fn", counted)
    system = build_unfolded(spec)
    got, per_call = [], []
    for fn in (h_value, sliding_field):
        before = len(calls)
        got.append(fn(system, x).hex())
        per_call.append(len(calls) - before)
    assert tuple(got) == want
    assert per_call == [2, 2]
