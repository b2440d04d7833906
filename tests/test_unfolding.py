"""Transition systems and sheared unfoldings."""

import ast
import inspect
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from filippov2d import (CanonicalBase, PsiSpec, UnfoldingSpec, Window,
                        build_transition, build_unfolded, canonical_base,
                        scenario_thm3, scenario_thm4, scenario_thm5, unfolding)
from filippov2d.cutoffs import _psi_core, zero_psi
from filippov2d.loops import _negative_cluster, _pinned_knots, _plateau_psi

W = Window(-1.0, 1.0, -1.0, 1.0)


def cubic_base():
    return CanonicalBase.from_strings("1", "1", 3, "-1", "-1", 0, W)


def grid_pts(n=9):
    for i in range(n):
        for j in range(n):
            yield (-0.9 + 1.8 * i / (n - 1), -0.9 + 1.8 * j / (n - 1))


def test_transition_identity_at_zero_lambda():
    base = cubic_base()
    hat = build_transition(UnfoldingSpec(base, (0.0, 0.0, 0.0)))
    ref = base.system()
    for x, y in grid_pts():
        for comp in ("f_plus", "g_plus", "f_minus", "g_minus"):
            assert getattr(hat, comp).value(x, y) \
                == getattr(ref, comp).value(x, y)


def test_transition_polynomial_expansion():
    delta = 0.2
    hat = build_transition(UnfoldingSpec(cubic_base(), (-delta, 0.0, delta)))
    for x in (-0.7, -0.2, 0.0, 0.33, 0.8):
        assert hat.g_plus.value(x, 0.0) == pytest.approx(
            x * (x ** 2 - delta ** 2), rel=1e-13, abs=1e-15)


def test_transition_empty_product_leaves_side_alone():
    hat = build_transition(UnfoldingSpec(cubic_base(), (0.1, -0.1, 0.0)))
    for x, y in grid_pts():
        assert hat.g_minus.value(x, y) == -1.0


def test_spec_validates_lambda_lengths():
    with pytest.raises(ValueError):
        UnfoldingSpec(cubic_base(), (0.0,))
    with pytest.raises(ValueError):
        UnfoldingSpec(cubic_base(), (0.0, 0.0, 0.0), (0.1,))


def test_unfolded_identity_at_zero():
    base = cubic_base()
    zero_bump = PsiSpec(1, (0.0, 0.1, 0.2, 0.0))
    unf = build_unfolded(UnfoldingSpec(base, (0.0,) * 3, (),
                                       psi_plus=zero_bump))
    ref = base.system()
    for x, y in grid_pts():
        for comp in ("f_plus", "g_plus", "f_minus", "g_minus"):
            assert getattr(unf, comp).value(x, y) \
                == getattr(ref, comp).value(x, y)


def test_unfolded_plateau_is_pure_shift():
    h = 0.01
    bump = PsiSpec(1, (-0.5, -0.3, -0.1, h))
    spec = UnfoldingSpec(cubic_base(), (0.0,) * 3, (), psi_plus=bump)
    unf = build_unfolded(spec)
    hat = build_transition(spec)
    for x in (0.0, 0.2, 0.6):       # on the plateau, psi' = 0
        for y in (-0.2, 0.1, 0.5):
            assert unf.g_plus.value(x, y) == pytest.approx(
                hat.g_plus.value(x, y + h), rel=1e-13, abs=1e-15)
            assert unf.f_plus.value(x, y) == hat.f_plus.value(x, y + h)


def test_unfolded_keeps_tangencies_at_lambda_knots():
    lam = (-0.4, -0.2, 0.0)
    # bump knots placed exactly on the lambda points: psi is infinitely
    # flat at knots, so the product zeros stay tangencies of the new field
    bump = PsiSpec(1, (-0.4, -0.2, 0.0, 2e-4))
    unf = build_unfolded(UnfoldingSpec(cubic_base(), lam, (), psi_plus=bump))
    for li in lam:
        assert _psi_core(bump, li)[1] == 0.0
        assert unf.g_plus.value(li, 0.0) == pytest.approx(0.0, abs=1e-15)


def test_unfolded_x_partials_match_finite_differences():
    lam = (-0.3, 0.05, 0.4)
    bump = PsiSpec(1, (-0.2, 0.0, 0.2, 5e-3))
    unf = build_unfolded(UnfoldingSpec(cubic_base(), lam, (), psi_plus=bump))
    h = 1e-6
    for x, y in ((-0.1, 0.3), (0.1, -0.2), (0.35, 0.0), (-0.19, 0.44)):
        for fld in (unf.f_plus, unf.g_plus):
            fx = (fld.value(x + h, y) - fld.value(x - h, y)) / (2 * h)
            assert fld.x_jet(x, y, 1)[1] == pytest.approx(fx, rel=2e-5,
                                                          abs=1e-8)


def sheared_both_sides_spec():
    """thm3-like: (5,5) with three upper plateau bumps on the negative
    cluster, a lower step shear and all-zero lower lambdas; f and phi
    depend on y, so the sheared argument u = y + psi(x) shows."""
    lam = _negative_cluster(5, 0.08)
    base = CanonicalBase.from_strings("1 + 0.5*y", "7*x + 6 - 2*y", 5,
                                      "-1 + 0.25*x*y", "7*x + 6 + 3*y", 5,
                                      canonical_base(5, 5).window)
    return UnfoldingSpec(
        base, lam, (0.0,) * 5,
        PsiSpec(3, _pinned_knots(lam, 0.08) + (0.012, 0.006, 0.003)),
        _plateau_psi(-0.0021, -0.45))


def test_sheared_x_partials_match_finite_differences_on_both_sides():
    unf = build_unfolded(sheared_both_sides_spec())
    h = 1e-6
    for x, y in ((-0.28, 0.013), (-0.19, -0.021), (-0.6, 0.2),
                 (0.3, -0.4)):
        for fld in (unf.f_plus, unf.g_plus, unf.f_minus, unf.g_minus):
            fx = (fld.value(x + h, y) - fld.value(x - h, y)) / (2 * h)
            assert fld.x_jet(x, y, 1)[1] == pytest.approx(fx, rel=2e-5,
                                                          abs=1e-8)


# value, then x_jet(x, y, 6), as float.hex: how the sheared
# components are organised must not move a single bit of what they return
SHEARED_PINS = [
    ((-0.28, 0.013), 'f_plus', (
        '0x1.020c49ba5e354p+0',
        '0x1.020c49ba5e354p+0', '0x1.dffffffffffffp-1', '0x1.645a1cac08382p-37',
        '-0x1.da8c5fffffff3p+16', '-0x1.6147ae147ae83p-19', '0x1.18cfdbb3c7ff3p+34',
        '0x1.29374bc6a7f57p-1',
    )),
    ((-0.28, 0.013), 'g_plus', (
        '-0x1.e3d840189b5bep+0',
        '-0x1.e3d840189b5c0p+0', '-0x1.c1faedf9c5704p+0', '0x1.66c23069ae43dp+19',
        '0x1.bce350a081f81p+19', '-0x1.61d2b38b2941bp+37', '-0x1.17ea343a2ca6dp+38',
        '0x1.287158e5cd194p+55',
    )),
    ((-0.28, 0.013), 'f_minus', (
        '-0x1.003ba3443d46bp+0',
        '-0x1.003ba3443d46bp+0', '0x1.a9fbe76c8b439p-9', '0x1.c2012ffbcd238p-53',
        '0x1.598b863f97158p-43', '0x1.7ced3eaba07d8p-34', '0x1.408efe4e937a1p-25',
        '0x1.ab7da11585273p-17',
    )),
    ((-0.28, 0.013), 'g_minus', (
        '-0x1.cc11e3079f62bp-8',
        '-0x1.cc11e3079f62bp-8', '0x1.d02011b8fd02bp-4', '-0x1.5c4f4bc2afaf6p-1',
        '0x1.a94ab1bf9068bp+0', '-0x1.c7e3eb5427f8dp-3', '-0x1.6e36f5ebc28b6p+2',
        '0x1.a917bb3b7b535p+2',
    )),
    ((-0.19, -0.021), 'f_plus', (
        '0x1.fa9fbea08547ap-1',
        '0x1.fa9fbea08547ap-1', '-0x1.ecb925e6d5fa1p-18', '0x1.624ea399c8031p-8',
        '-0x1.4b3d1548e5a91p+1', '0x1.c54d68e610afap+9', '-0x1.e4d7dafc87717p+17',
        '0x1.a6cd074317cefp+25',
    )),
    ((-0.19, -0.021), 'g_plus', (
        '0x1.2beff49a5d66cp-15',
        '0x1.2beff49a5d66cp-15', '-0x1.6189972a86000p-6', '0x1.eb1876efec25dp+3',
        '-0x1.c08bdcc6cec1fp+12', '0x1.2bd86a27e7b2fp+21', '-0x1.39c56b213bbbap+29',
        '0x1.0c2e06c4abd1fp+37',
    )),
    ((-0.19, -0.021), 'f_minus', (
        '-0x1.ff702e665fe13p-1',
        '-0x1.ff702e665fe13p-1', '-0x1.7a78467dfd44dp-8', '-0x1.8abd2ead61491p-19',
        '0x1.4361023504944p-11', '-0x1.72d073ebf855bp-4', '0x1.3be25f2f3551fp+3',
        '-0x1.9e742e7de5530p+9',
    )),
    ((-0.19, -0.021), 'g_minus', (
        '-0x1.2aad46ef0d0b5p-10',
        '-0x1.2aad46ef0d0b5p-10', '0x1.d0c35ecdb4571p-6', '-0x1.3b4a42df2036bp-2',
        '0x1.10f16e155d05dp+3', '-0x1.efb4202f41dc0p+9', '0x1.801b85a7f72a6p+16',
        '-0x1.c86572f3974ffp+22',
    )),
    ((-0.05, 0.004), 'f_plus', (
        '0x1.00e560371a127p+0',
        '0x1.00e560371a127p+0', '-0x1.ecb925e6d5f7fp-19', '-0x1.624ea399c8018p-9',
        '-0x1.4b3d1548e5a78p+0', '-0x1.c54d68e610ad7p+8', '-0x1.e4d7dafc876efp+16',
        '-0x1.a6cd074317ccap+24',
    )),
    ((-0.05, 0.004), 'g_plus', (
        '0x1.65e38487abf24p-12',
        '0x1.65e38487abf24p-12', '0x1.e1609939888fbp-6', '0x1.03196524222dbp+3',
        '0x1.c72a3100cea1ap+11', '0x1.3016e79edd80bp+20', '0x1.3e35e5c71d53bp+28',
        '0x1.0ff9593838428p+36',
    )),
    ((-0.05, 0.004), 'f_minus', (
        '-0x1.00018e757928ep+0',
        '-0x1.00018e757928ep+0', '0x1.f212d77318fc6p-12', '0x0.0p+0',
        '0x0.0p+0', '0x0.0p+0', '0x0.0p+0',
        '0x0.0p+0',
    )),
    ((-0.05, 0.004), 'g_minus', (
        '-0x1.da6f3b90e98bcp-20',
        '-0x1.da6f3b90e98bdp-20', '0x1.6e107ed344b63p-13', '-0x1.c0fa9c12f09dbp-8',
        '0x1.0fa6defc7a399p-3', '-0x1.3d2a305532618p+0', '0x1.f3edfa43fe5cap+1',
        '0x1.c000000000000p+2',
    )),
]


@pytest.mark.parametrize("point, comp, want", SHEARED_PINS)
def test_sheared_components_are_pinned(point, comp, want):
    spec = sheared_both_sides_spec()
    system = build_unfolded(spec)
    fld = getattr(system, comp)
    x, y = point
    got = [fld.value(x, y)] + fld.x_jet(x, y, 6)
    assert [v.hex() for v in got] == list(want)
    # the side functions the flow calls return the same values bit for
    # bit: a sheared side these pins, a plain (transition) side its .value
    plain = build_transition(spec)
    which = "upper" if comp.endswith("plus") else "lower"
    i = comp.startswith("g")
    for sys_, value in ((system, want[0]),
                        (plain, getattr(plain, comp).value(x, y).hex())):
        f, g = sys_.side(which)
        assert f.side_with(g)(x, y)[i].hex() == value


@pytest.mark.parametrize("scenario", [
    lambda: scenario_thm3(canonical_base(5, 5), 2, "critical"),
    lambda: scenario_thm4(canonical_base(5, 5), 1),
    lambda: scenario_thm5(canonical_base(3, 3), 1),
], ids=["thm3_55_cri_l2", "thm4_55_l1", "thm5_33_l1"])
def test_sheared_sides_are_the_transition_sides_at_u_bit_for_bit(scenario):
    # the conjugacy itself: on each sheared side of a scenario's final
    # system, (f~, g~)(x, y) = (f^, g^ - f^ * psi')(x, y + psi(x)), with
    # (f^, g^) the transition system's own side function
    spec = scenario().spec
    system = build_unfolded(spec)
    hat, _ = system.transition
    rng = random.Random(26)
    w = system.window
    for which, psi_spec in (("upper", spec.psi_plus),
                            ("lower", spec.psi_minus)):
        if zero_psi(psi_spec):
            assert system.side(which) == hat.side(which)
            continue
        sheared, plain = system.side_fn(which), hat.side_fn(which)
        for _ in range(2000):
            x, y = rng.uniform(w.x_lo, w.x_hi), rng.uniform(-0.2, 0.2)
            p, dp = _psi_core(psi_spec, x)
            f, g = plain(x, y + p)
            assert [v.hex() for v in sheared(x, y)] \
                == [f.hex(), (g - f * dp).hex()], (which, x, y)


def test_the_lambda_product_and_the_sheared_fields_have_one_builder():
    # build_transition's product is the only lambda product: a sheared
    # field reads its transition fields instead of building its own
    tree = ast.parse(inspect.getsource(unfolding))

    def callers(name):
        return {getattr(stmt, "name", "<module>") for stmt in tree.body
                for node in ast.walk(stmt) if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name) and node.func.id == name}
    assert callers("ShearedField") == {"_sheared_side"}
    assert callers("Sub") == callers("Pow") == {"_monic_product_expr"}


def test_each_spec_is_unfolded_once():
    # build_unfolded returns one system per spec, sheared or not, so a scan
    # of the system a scenario certified reads the side functions its
    # transits compiled
    for spec in (UnfoldingSpec(cubic_base(), (-0.2, 0.0, 0.2)),
                 UnfoldingSpec(cubic_base(), (-0.2, 0.0, 0.2), (),
                               PsiSpec(1, (-0.6, -0.3, 0.0, 0.01)))):
        system = build_unfolded(spec)
        assert build_unfolded(spec) is system
        assert system.side_fn("upper") is build_unfolded(spec).side_fn(
            "upper")
