"""Expression layer: parsing, evaluation, exact differentiation."""

import ast
import math
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from filippov2d import PsiSpec, cutoffs, fieldexpr
from filippov2d.fieldexpr import (Add, Call, EvalDomainError, Expr, Mul,
                                  Num, ParseError, Pow, ScalarField, Var,
                                  as_field, compile_expr, differentiate,
                                  evaluate, parse_expr)
from filippov2d.unfolding import ShearedField


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
    with pytest.raises(EvalDomainError) as ei:
        evaluate(parse_expr("1 + x/y"), 1.0, 0.0)
    assert ei.value.offset == 5            # the '/'
    with pytest.raises(EvalDomainError) as ei:
        evaluate(parse_expr("2*log(x)"), -1.0, 0.0)
    assert ei.value.offset == 2            # the 'log'


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


@pytest.mark.parametrize("opener, closer, offset", [
    ("(", ")", 200), ("sin(", ")", 803), ("-", "", 200),
    ("x + x * (", ")", 1808)])
def test_nesting_past_the_limit_is_a_parse_error(opener, closer, offset):
    # each level of parentheses, calls or signs costs the parser at most
    # three frames, operators included: 200 levels parse and evaluate, the
    # 201st is refused at its parenthesis or sign
    src = opener * 200 + "x" + closer * 200
    assert fieldexpr._MAX_NESTING == 200
    assert math.isfinite(evaluate(parse_expr(src), 0.5, 0.0))
    with pytest.raises(ParseError, match="nested deeper than 200 levels") \
            as ei:
        parse_expr(opener + src + closer)
    assert ei.value.offset == offset


@pytest.mark.parametrize("opener, closer", [
    ("(", ")"), ("sin(", ")"), ("-", ""), ("x + x * (", ")"),
    ("-x^2 / (", ")")])
def test_every_tree_the_parser_takes_compiles(opener, closer):
    # 200 levels, two side functions in one: the generated code nests no
    # deeper in parentheses than the source (Python allows 200)
    e = parse_expr(opener * 200 + "x" + closer * 200)
    assert compile_expr(e, e)(0.5, 0.25) == (evaluate(e, 0.5, 0.25),) * 2


def test_a_tree_deeper_than_600_operations_is_a_parse_error():
    # each walk of a tree recurses once an operation: 600 on one path
    # compile and evaluate, the 601st is refused at its operator
    src = " + ".join(["x"] * 601)
    assert compile_expr(parse_expr(src))(1.0, 0.0) == 601.0
    with pytest.raises(ParseError, match="operations nested deeper than "
                       "600 levels") as ei:
        parse_expr(src + " + x")
    assert ei.value.offset == 2
    # three operations a level, 200 levels: taken
    e = parse_expr("(x + x * x^2 + " * 200 + "x" + ")" * 200)
    assert compile_expr(e)(0.5, 0.0) == evaluate(e, 0.5, 0.0)


def _parenthesized(e: Expr) -> str:
    """Python source of e with every operation in parentheses: the order
    of evaluation spelt out."""
    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Call):
        return f"_{e.fn}({_parenthesized(e.arg)})"
    if isinstance(e, Pow):
        return f"({_parenthesized(e.base)} ** {e.exponent})"
    if isinstance(e, fieldexpr.Neg):
        return f"(-{_parenthesized(e.a)})"
    op = {Add: "+", fieldexpr.Sub: "-", Mul: "*", fieldexpr.Div: "/"}
    return f"({_parenthesized(e.a)} {op[type(e)]} {_parenthesized(e.b)})"


_leaves = st.sampled_from(["x", "y", "2", "0.5", "3e-2", "7"])
sources = st.recursive(_leaves, lambda inner: st.one_of(
    st.tuples(inner, st.sampled_from(" + - * / ".split()), inner).map(
        " ".join),
    inner.map("({})".format), inner.map("-{}".format),
    st.tuples(inner, st.integers(-3, 4)).map(lambda t: f"({t[0]})^{t[1]}"),
    st.tuples(st.sampled_from(fieldexpr.FUNCTIONS), inner).map(
        lambda t: f"{t[0]}({t[1]})")), max_leaves=24)


@given(sources)
@settings(max_examples=300, deadline=None)
def test_generated_code_is_the_tree_in_its_order(src):
    # Python parses the generated code to the same syntax tree as the
    # fully parenthesized source: the same operations in the same order
    e = parse_expr(src)
    assert ast.dump(ast.parse(fieldexpr._codegen(e), mode="eval")) \
        == ast.dump(ast.parse(_parenthesized(e), mode="eval"))


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


def _shape(e):
    """(node type, pos, fields...) all the way down: nodes compare without
    `pos`, so tree equality alone does not see it."""
    return (type(e).__name__, e.pos) + tuple(
        _shape(v) if isinstance(v, Expr) else v
        for v in (getattr(e, name) for name in e._fields))


@pytest.mark.parametrize("src, shape", [
    ("2 - 3 - 4",
     ("Sub", 6, ("Sub", 2, ("Num", 0, 2.0), ("Num", 4, 3.0)),
      ("Num", 8, 4.0))),
    ("1/2/3*4-5+6",
     ("Add", 9,
      ("Sub", 7,
       ("Mul", 5,
        ("Div", 3, ("Div", 1, ("Num", 0, 1.0), ("Num", 2, 2.0)),
         ("Num", 4, 3.0)),
        ("Num", 6, 4.0)),
       ("Num", 8, 5.0)),
      ("Num", 10, 6.0))),
    ("-x^2", ("Pow", 2, ("Neg", 0, ("Var", 1, "x")), 2)),
    ("x*-y", ("Mul", 1, ("Var", 0, "x"), ("Neg", 2, ("Var", 3, "y")))),
    ("sin(x)*exp(y)",
     ("Mul", 6, ("Call", 0, "sin", ("Var", 4, "x")),
      ("Call", 7, "exp", ("Var", 11, "y")))),
])
def test_parser_trees_keep_the_offset_of_every_node(src, shape):
    assert _shape(parse_expr(src)) == shape


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


def test_tree_nodes_compare_per_type_and_ignore_pos():
    # one field tuple for two operators: still unequal, as the parser pins
    # need; pos, the node's offset, enters neither == nor hash
    a, b = Var("x"), Num(2.0)
    assert Add(a, b) != fieldexpr.Sub(a, b) != Add(a, b)
    assert Mul(a, b) != fieldexpr.Div(a, b)
    assert Num(2.0) != Var("x") and Num(2.0) != 2.0
    assert Add(a, b, pos=3) == Add(a, b) == Add(Var("x", pos=0), b, pos=7)
    assert hash(Add(a, b, pos=3)) == hash(Add(Var("x", pos=5), b))
    assert len({Num(1.0, pos=1), Num(1.0, pos=2), Num(3.0)}) == 2
    assert Pow(a, 3, pos=4).pos == 4 and Pow(a, 3).pos == -1
    assert repr(Add(a, b, pos=3)) == "Add(a=Var(name='x'), b=Num(value=2.0))"
    with pytest.raises(TypeError, match="takes"):
        Add(a)


@pytest.mark.parametrize("name", ["a", "b", "pos", "other"])
def test_a_tree_node_is_immutable(name):
    node = Add(Var("x"), Num(1.0), pos=2)
    with pytest.raises(AttributeError, match="immutable"):
        setattr(node, name, Num(0.0))
    with pytest.raises(AttributeError, match="immutable"):
        delattr(node, name)
    assert node == Add(Var("x"), Num(1.0)) and node.pos == 2


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


def test_fields_with_one_source_share_one_code_object():
    # two parses of one text, two profiles of one knot count, two sheared
    # values over them: one code object each, in functions of their own
    # (own globals: knots and heights are not in the source)
    a, b = ScalarField("x * y - 1.5"), ScalarField("x * y - 1.5")
    assert a.value(2.0, 1.0) == b.value(2.0, 1.0) == 0.5
    specs = [PsiSpec(1, (-0.6, -0.3, 0.0, h)) for h in (0.01, 0.02)]
    psi = [cutoffs._psi_core(spec, -0.3)[0] for spec in specs]
    assert psi == [0.01, 0.02]   # the bumps' peaks
    sheared = [ShearedField(a, spec) for spec in specs]
    assert sheared[0].value(-0.3, 1.0) != sheared[1].value(-0.3, 1.0)
    for f, g in ((a.value, b.value), tuple(s._psi_fn for s in specs),
                 tuple(s.value for s in sheared)):
        assert f is not g and f.__globals__ is not g.__globals__
        assert f.__code__ is g.__code__
        assert f.__code__.co_filename == "<string>"


def test_every_generated_source_is_compiled_through_one_cache():
    # exec( and compile( appear only in fieldexpr's cached helper and the
    # one builder every generated function goes through (the DOP853 step
    # included)
    allowed = {("fieldexpr", "_code"), ("fieldexpr", "generated_fn")}
    found = set()
    for path in Path(fieldexpr.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        defs = [node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Name) \
                    and node.func.id in ("exec", "compile"):
                # the innermost function around the call
                owner = max((d for d in defs if d.lineno <= node.lineno
                             <= d.end_lineno), key=lambda d: d.lineno,
                            default=None)
                found.add((path.stem, owner and owner.name))
    assert found == allowed
    assert isinstance(fieldexpr._CODE_CACHE_SIZE, int)
    assert fieldexpr._code.cache_info().maxsize == fieldexpr._CODE_CACHE_SIZE


def test_each_compiled_product_has_one_memo():
    # values and psi functions are cached properties, side functions are
    # kept by the system alone: no hand-written memo reads an instance's
    # __dict__, and object.__setattr__ sets the fields of a tree node alone
    found = []
    for path in Path(fieldexpr.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        scopes = [node for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute):
                continue
            owner = [d.name for d in scopes
                     if d.lineno <= node.lineno <= d.end_lineno]
            if node.attr == "get" and isinstance(node.value, ast.Attribute) \
                    and node.value.attr == "__dict__":
                found.append(("__dict__.get", path.stem, owner))
            if node.attr == "__setattr__" \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id == "object":
                found.append(("object.__setattr__", path.stem, owner))
    assert found == [("object.__setattr__", "fieldexpr",
                      ["Expr", "__init__"])]
