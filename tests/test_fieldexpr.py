"""Expression layer: parsing, evaluation, exact differentiation."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from filippov2d.fieldexpr import (Add, Call, EvalDomainError, Mul, Num,
                                  ParseError, Pow, ScalarField, Var,
                                  as_field, compile_expr, differentiate,
                                  evaluate, parse_expr, to_str)


def test_parse_identity_var():
    assert parse_expr("x") == Var("x")
    assert parse_expr("y") == Var("y")


def test_parse_cubic_and_eval():
    e = parse_expr("1 - 2*x + x^3")
    assert evaluate(e, 2.0, 0.0) == 5.0


def test_parse_precedence_and_unary_minus():
    assert evaluate(parse_expr("2 + 3 * 4"), 0, 0) == 14.0
    # unary minus is part of `base`, so it binds tighter than ^
    assert evaluate(parse_expr("-x^2"), 3.0, 0.0) == 9.0
    assert evaluate(parse_expr("0 - x^2"), 3.0, 0.0) == -9.0
    assert evaluate(parse_expr("(2 + 3) * 4"), 0, 0) == 20.0
    assert evaluate(parse_expr("2 - 3 - 4"), 0, 0) == -5.0  # left assoc


def test_trig_eval_and_partial():
    e = parse_expr("sin(x)*exp(y)")
    assert evaluate(e, 0.0, 0.0) == 0.0
    dx = differentiate(e, "x")
    # centered finite difference, step 1e-6
    fd = (evaluate(e, 1e-6, 0.0) - evaluate(e, -1e-6, 0.0)) / 2e-6
    assert abs(evaluate(dx, 0.0, 0.0) - fd) < 1e-9
    assert evaluate(dx, 0.0, 0.0) == 1.0


def test_eval_trivia():
    assert evaluate(parse_expr("x+y"), 1.0, 2.0) == 3.0
    assert evaluate(parse_expr("exp(x)-1"), 0.0, 0.0) == 0.0


def test_eval_domain_errors():
    with pytest.raises(EvalDomainError):
        evaluate(parse_expr("x/y"), 1.0, 0.0)
    with pytest.raises(EvalDomainError):
        evaluate(parse_expr("log(x)"), -1.0, 0.0)


def test_parse_errors_carry_offset():
    with pytest.raises(ParseError) as ei:
        parse_expr("x + * y")
    assert ei.value.offset == 4
    with pytest.raises(ParseError):
        parse_expr("foo(x)")
    with pytest.raises(ParseError):
        parse_expr("x^y")          # non-integer exponent
    with pytest.raises(ParseError):
        parse_expr("x^(1/2)")
    with pytest.raises(ParseError):
        parse_expr("")


def test_power_rule():
    d = differentiate(parse_expr("x^3"), "x")
    assert d == parse_expr("3*x^2")


def test_constant_rule():
    assert differentiate(parse_expr("7"), "x") == Num(0.0)


def test_fifth_derivative_of_quintic_times_linear():
    # x^5*(x+1) = x^6 + x^5, so d^5/dx^5 = 720 x + 120 -> 120 at x=0
    e = parse_expr("x^5 * (x + 1)")
    for _ in range(5):
        e = differentiate(e, "x")
    assert evaluate(e, 0.0, 0.0) == pytest.approx(120.0, abs=1e-12)


def test_print_parse_round_trip():
    for src in ("x", "1 - 2*x + x^3", "sin(x)*exp(y)", "-(x + y)^4 / 3",
                "x*y - y/x + cos(x*y)", "2.5e-3 * x^6"):
        e = parse_expr(src)
        assert parse_expr(to_str(e)) == e


coef = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False)


@st.composite
def poly_exprs(draw):
    """Random bivariate polynomial of degree <= 6 as a source string."""
    terms = []
    for _ in range(draw(st.integers(1, 5))):
        c = draw(coef)
        i = draw(st.integers(0, 3))
        j = draw(st.integers(0, 3))
        t = f"{c!r}"
        if i:
            t += f" * x^{i}"
        if j:
            t += f" * y^{j}"
        terms.append(t)
    return " + ".join(terms)


@given(poly_exprs(), st.floats(-1.5, 1.5), st.floats(-1.5, 1.5))
@settings(max_examples=200, deadline=None)
def test_symbolic_dx_matches_finite_difference(src, x, y):
    e = parse_expr(src)
    dx = evaluate(differentiate(e, "x"), x, y)
    h = 1e-5
    fd = (evaluate(e, x + h, y) - evaluate(e, x - h, y)) / (2 * h)
    assert abs(dx - fd) <= 1e-5 * (1.0 + abs(dx))


@given(poly_exprs(), st.floats(-1.5, 1.5), st.floats(-1.5, 1.5))
@settings(max_examples=100, deadline=None)
def test_field_x_jet_matches_finite_difference(src, x, y):
    # the order-1 jet is the g_x that loops._grazes reads
    f = as_field(src)
    h = 1e-5
    fd = (f.value(x + h, y) - f.value(x - h, y)) / (2 * h)
    dx = f.x_jet(x, y, 1)[1]
    assert abs(dx - fd) <= 1e-5 * (1.0 + abs(dx))


@given(poly_exprs(), poly_exprs(), coef, coef,
       st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
@settings(max_examples=60, deadline=None)
def test_differentiate_is_linear(s1, s2, a, b, x, y):
    e1, e2 = parse_expr(s1), parse_expr(s2)
    combo = Add(Mul(Num(a), e1), Mul(Num(b), e2))
    lhs = evaluate(differentiate(combo, "x"), x, y)
    rhs = (a * evaluate(differentiate(e1, "x"), x, y)
           + b * evaluate(differentiate(e2, "x"), x, y))
    assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(rhs)) + 1e-12


def test_scalar_field_exact_high_order():
    fld = ScalarField("x^5 * (x + 1)")
    assert fld.x_jet(0.0, 0.0, 5)[5] * math.factorial(5) == 120.0
    assert fld.x_jet(0.123, 0.0, 12)[12] == 0.0  # beyond the degree


def test_compile_matches_evaluate():
    e = parse_expr("x^4 - y/(1 + x^2) + sin(x)*cos(y)")
    fn = compile_expr(e)
    for x, y in ((0.0, 0.0), (0.5, -0.25), (-1.2, 0.8)):
        assert fn(x, y) == pytest.approx(evaluate(e, x, y), rel=1e-15)


def test_as_field_accepts_strings_and_numbers():
    assert as_field("2*x").value(3.0, 0.0) == 6.0
    assert as_field(4).value(0.0, 0.0) == 4.0
    f = as_field("x")
    assert as_field(f) is f


def test_pow_requires_integer_node():
    e = parse_expr("x^4")
    assert isinstance(e, Pow) and e.exponent == 4


def test_call_nodes_round_trip():
    e = parse_expr("log(exp(x))")
    assert isinstance(e, Call)
    assert evaluate(e, 0.7, 0.0) == pytest.approx(0.7, rel=1e-12)
