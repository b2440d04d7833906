"""Taylor jets against 50-digit mpmath derivatives and exact symbolic ones."""

import math
import time

import mpmath
import pytest

from filippov2d import (EvalDomainError, PsiSpec, ScalarField, UnfoldingSpec,
                        build_unfolded, cutoff_jet, differentiate, evaluate,
                        expr_jet, multiplicity_at, parse_expr, psi_jet)
from filippov2d.fieldexpr import (Add, Call, Div, Mul, Neg, Num, Pow, Sub,
                                  Var, jet_constant, jet_variable)
from filippov2d.loops import _negative_cluster, _pinned_knots, canonical_base

mpmath.mp.dps = 50
ORDER = 12

# one source per node kind; every kind appears in at least one of them
NODE_SOURCES = [
    "0.5 + x*y - 2*x^3",             # Num Var Add Sub Mul Pow
    "(x + y) / (1.5 + x*x)",         # Div
    "x^-2 + (1 + x*y)^-3",           # negative Pow
    "-x * sin(x*y + 0.3)",           # Neg sin
    "cos(2*x)^2 - exp(-x)",          # cos exp
    "log(2 + x*y) * exp(x/3)",       # log
]
POINTS = [(0.7, -0.4), (-1.3, 0.9)]


def mp_eval(e, x, y):
    """Independent 50-digit evaluation of an expression tree."""
    if isinstance(e, Num):
        return mpmath.mpf(e.value)
    if isinstance(e, Var):
        return x if e.name == "x" else y
    if isinstance(e, Add):
        return mp_eval(e.a, x, y) + mp_eval(e.b, x, y)
    if isinstance(e, Sub):
        return mp_eval(e.a, x, y) - mp_eval(e.b, x, y)
    if isinstance(e, Mul):
        return mp_eval(e.a, x, y) * mp_eval(e.b, x, y)
    if isinstance(e, Div):
        return mp_eval(e.a, x, y) / mp_eval(e.b, x, y)
    if isinstance(e, Pow):
        return mp_eval(e.base, x, y) ** e.exponent
    if isinstance(e, Neg):
        return -mp_eval(e.a, x, y)
    if isinstance(e, Call):
        return getattr(mpmath, e.fn)(mp_eval(e.arg, x, y))
    raise TypeError(e)


def assert_jet_close(jet, ref, rel=1e-10):
    """Coefficient-wise, relative to the largest coefficient of order <= k:
    a coefficient that cancels to near zero is only as good as the
    magnitudes it was summed from."""
    assert len(jet) == len(ref)
    scale = 0.0
    for k, (c, r) in enumerate(zip(jet, ref)):
        scale = max(scale, abs(float(r)))
        assert abs(c - float(r)) <= rel * max(scale, 1e-300), (k, c, r)


@pytest.mark.parametrize("src", NODE_SOURCES)
@pytest.mark.parametrize("x0,y0", POINTS)
def test_expression_jets_match_mpmath(src, x0, y0):
    e = parse_expr(src)
    ref = mpmath.taylor(lambda t: mp_eval(e, t, mpmath.mpf(y0)),
                        mpmath.mpf(x0), ORDER)
    assert_jet_close(ScalarField(e).x_jet(x0, y0, ORDER), ref)


@pytest.mark.parametrize("src", NODE_SOURCES)
def test_expression_jets_match_symbolic_derivatives(src):
    e = parse_expr(src)
    x0, y0 = 0.7, -0.4
    jet = ScalarField(e).x_jet(x0, y0, 5)
    d = e
    for k in range(6):
        exact = evaluate(d, x0, y0)
        assert jet[k] * math.factorial(k) == pytest.approx(
            exact, rel=1e-12, abs=1e-12)
        d = differentiate(d, "x")


def test_y_enters_as_a_jet():
    # f(x, y(x)) with y = x^2: the jet is that of the composite
    e = parse_expr("sin(x*y) + y^2")
    x0 = 0.6
    y = [x0 * x0, 2 * x0, 1.0] + [0.0] * (ORDER - 2)
    jet = expr_jet(e, jet_variable(x0, ORDER), y)
    ref = mpmath.taylor(lambda t: mpmath.sin(t ** 3) + t ** 4,
                        mpmath.mpf(x0), ORDER)
    assert_jet_close(jet, ref)


def test_jet_domain_errors_name_the_subexpression():
    with pytest.raises(EvalDomainError) as ei:
        ScalarField("x/y").x_jet(1.0, 0.0, 3)
    assert ei.value.offset == 1
    with pytest.raises(EvalDomainError):
        ScalarField("log(x)").x_jet(-1.0, 0.0, 3)
    with pytest.raises(EvalDomainError):
        ScalarField("x^-2").x_jet(0.0, 0.0, 3)


def test_constant_jets_are_flat():
    assert jet_constant(2.5, 3) == [2.5, 0.0, 0.0, 0.0]
    assert jet_variable(2.5, 0) == [2.5]
    assert ScalarField("7").x_jet(0.3, 0.1, 4) == [7.0, 0.0, 0.0, 0.0, 0.0]


# -- psi and the sheared unfolding --------------------------------------------

def mp_cutoff(x, r1, r2):
    if x <= r1:
        return mpmath.mpf(0)
    if x >= r2:
        return mpmath.mpf(1)
    return 1 / (1 + mpmath.exp(1 / (x - r1) + 1 / (x - r2)))


def mp_psi(spec):
    ks = [mpmath.mpf(k) for k in spec.knots]
    hs = [mpmath.mpf(h) for h in spec.heights]

    def f(x):
        for i in range(spec.d):
            left, peak, right = ks[2 * i], ks[2 * i + 1], ks[2 * i + 2]
            if left < x <= peak:
                return hs[i] * mp_cutoff(x, left, peak)
            if peak < x <= right:
                return hs[i] * (1 - mp_cutoff(x, peak, right))
        return mpmath.mpf(0)
    return f


@pytest.mark.parametrize("x0", [0.13, 0.35, 0.5, 0.71, 1.05])
def test_cutoff_jet_matches_mpmath(x0):
    ref = mpmath.taylor(lambda t: mp_cutoff(t, 0.0, 1.2), mpmath.mpf(x0),
                        ORDER)
    assert_jet_close(cutoff_jet(x0, 0.0, 1.2, ORDER), ref)


def test_cutoff_jet_is_flat_off_the_ramp():
    assert cutoff_jet(-0.1, 0.0, 1.0, 4) == [0.0] * 5
    assert cutoff_jet(1.0, 0.0, 1.0, 4) == [1.0, 0.0, 0.0, 0.0, 0.0]
    assert cutoff_jet(1e-6, 0.0, 1.0, 4) == [0.0] * 5  # saturated


@pytest.mark.parametrize("x0", [0.2, 0.45, 0.6, 0.9, 1.3])
def test_psi_jet_matches_mpmath(x0):
    spec = PsiSpec(2, (0.0, 0.4, 0.8, 1.1, 1.5, 0.05, -0.02))
    ref = mpmath.taylor(mp_psi(spec), mpmath.mpf(x0), ORDER)
    assert_jet_close(psi_jet(spec, x0, ORDER), ref)


def test_psi_jet_vanishes_at_knots():
    spec = PsiSpec(1, (0.0, 0.6, 1.2, 0.05))
    assert psi_jet(spec, 0.6, 6) == [0.05] + [0.0] * 6
    assert psi_jet(spec, 1.2, 6) == [0.0] * 7


LAM = _negative_cluster(5, 0.1)
PINNED = PsiSpec(3, _pinned_knots(LAM, 0.1) + (0.003, 0.002, 0.0015))


def sheared_55(f="1", phi="1*(7*x + 6)"):
    """A (5,5) base split at LAM and sheared by three plateaus; the
    defaults are canonical_base(5, 5)'s upper side."""
    base = canonical_base(5, 5)._replace(f_plus=ScalarField(f),
                                         phi_plus=ScalarField(phi))
    return build_unfolded(UnfoldingSpec(base, LAM, (0.0,) * 5, PINNED))


def mp_g_tilde(f, phi, y0):
    """phi(x, y+psi) * prod(x - lambda) - f(x, y+psi) * psi'(x)."""
    psi_f = mp_psi(PINNED)

    def g(x):
        u = mpmath.mpf(y0) + psi_f(x)
        prod = mpmath.mpf(1)
        for v in LAM:
            prod *= x - mpmath.mpf(v)
        return phi(x, u) * prod - f(x, u) * mpmath.diff(psi_f, x)
    return g


def test_sheared_g_third_derivative():
    third = 6.0 * sheared_55().g_plus.x_jet(-0.37, 0.0, 3)[3]
    assert third == pytest.approx(-24.693187, rel=1e-8)


@pytest.mark.parametrize("x0", [-0.37, -0.55, -0.26, -0.12])
def test_sheared_g_jet_matches_mpmath(x0):
    g = sheared_55("1 + 0.5*y*x", "(7*x + 6)*(1 + y^2)").g_plus
    ref = mpmath.taylor(mp_g_tilde(lambda x, u: 1 + 0.5 * u * x,
                                   lambda x, u: (7 * x + 6) * (1 + u ** 2),
                                   0.1),
                        mpmath.mpf(x0), ORDER)
    assert_jet_close(g.x_jet(x0, 0.1, ORDER), ref)


def test_sheared_f_jet_composes_y_plus_psi():
    spec = PsiSpec(1, (-0.2, 0.0, 0.2, 5e-3))
    base = canonical_base(3, 3)._replace(f_plus=ScalarField("1 + x*y^2"))
    sys_ = build_unfolded(UnfoldingSpec(base, (-0.3, 0.05, 0.4), (0.0,) * 3,
                                        psi_plus=spec))
    psi_f = mp_psi(spec)
    y0 = 0.3
    ref = mpmath.taylor(lambda t: 1 + t * (y0 + psi_f(t)) ** 2,
                        mpmath.mpf(-0.07), ORDER)
    assert_jet_close(sys_.f_plus.x_jet(-0.07, y0, ORDER), ref)


def test_eleven_fold_split_reads_eleven():
    e = Num(1.0)
    for _ in range(11):
        e = Mul(e, Sub(Var("x"), Num(-0.3125)))
    g = ScalarField(Mul(parse_expr("1 + 0.3*x"), e))
    t0 = time.perf_counter()
    assert multiplicity_at(g, 1.0, -0.3125)[0] == 11
    assert time.perf_counter() - t0 < 1.0
