"""Closed-form scalar fields on the (x, y) plane.

A tiny expression language (polynomials in x, y plus sin/cos/exp/log,
integer powers). Fields compile their values; every derivative comes from
truncated Taylor jets (Griewank & Walther, *Evaluating Derivatives*,
ch. 13): [a_0, ..., a_n], a_k = h^(k)(x0) / k!, for t -> h(x0 + t).
`expr_jet` takes x and y as input jets, so y + psi(x) can be substituted.

Grammar (ASCII, whitespace-insensitive)::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' integer)?
    base   := number | 'x' | 'y' | func '(' expr ')' | '(' expr ')' | '-' base

`parse_expr` reports syntax errors with the byte offset of the offending
token.  Simplification is deliberately light: constant folding and the
0/1 identities only, enough to keep derivative trees readable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

FUNCTIONS = ("sin", "cos", "exp", "log")
VARIABLES = ("x", "y")


class ParseError(ValueError):
    """Syntax/lexical error; carries the byte offset into the source."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset


class EvalDomainError(ArithmeticError):
    """Domain error during evaluation (div by zero, log of non-positive)."""

    def __init__(self, message: str, offset: int, point):
        at = f" (subexpression at byte {offset})" if offset >= 0 else ""
        super().__init__(f"{message} at point {point}{at}")
        self.offset = offset
        self.point = point


# ---------------------------------------------------------------------------
# AST

@dataclass(frozen=True)
class Expr:
    pass


@dataclass(frozen=True)
class Num(Expr):
    value: float
    pos: int = field(default=-1, compare=False, repr=False)


@dataclass(frozen=True)
class Var(Expr):
    name: str
    pos: int = field(default=-1, compare=False, repr=False)


@dataclass(frozen=True)
class Add(Expr):
    a: Expr
    b: Expr
    pos: int = field(default=-1, compare=False, repr=False)


@dataclass(frozen=True)
class Sub(Expr):
    a: Expr
    b: Expr
    pos: int = field(default=-1, compare=False, repr=False)


@dataclass(frozen=True)
class Mul(Expr):
    a: Expr
    b: Expr
    pos: int = field(default=-1, compare=False, repr=False)


@dataclass(frozen=True)
class Div(Expr):
    a: Expr
    b: Expr
    pos: int = field(default=-1, compare=False, repr=False)


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: int
    pos: int = field(default=-1, compare=False, repr=False)


@dataclass(frozen=True)
class Neg(Expr):
    a: Expr
    pos: int = field(default=-1, compare=False, repr=False)


@dataclass(frozen=True)
class Call(Expr):
    fn: str
    arg: Expr
    pos: int = field(default=-1, compare=False, repr=False)


ZERO = Num(0.0)
ONE = Num(1.0)


# ---------------------------------------------------------------------------
# Smart constructors (light simplification: constant folding, 0/1 identities)

def _is_num(e: Expr, v=None) -> bool:
    return isinstance(e, Num) and (v is None or e.value == v)


def add(a: Expr, b: Expr) -> Expr:
    if _is_num(a, 0.0):
        return b
    if _is_num(b, 0.0):
        return a
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value + b.value)
    return Add(a, b)


def sub(a: Expr, b: Expr) -> Expr:
    if _is_num(b, 0.0):
        return a
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value - b.value)
    if _is_num(a, 0.0):
        return neg(b)
    return Sub(a, b)


def mul(a: Expr, b: Expr) -> Expr:
    if _is_num(a, 0.0) or _is_num(b, 0.0):
        return ZERO
    if _is_num(a, 1.0):
        return b
    if _is_num(b, 1.0):
        return a
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value * b.value)
    return Mul(a, b)


def div(a: Expr, b: Expr) -> Expr:
    if _is_num(a, 0.0) and not _is_num(b, 0.0):
        return ZERO
    if _is_num(b, 1.0):
        return a
    if isinstance(a, Num) and isinstance(b, Num) and b.value != 0.0:
        return Num(a.value / b.value)
    return Div(a, b)


def neg(a: Expr) -> Expr:
    if isinstance(a, Num):
        return Num(-a.value)
    if isinstance(a, Neg):
        return a.a
    return Neg(a)


def powi(a: Expr, n: int) -> Expr:
    if n == 0:
        return ONE
    if n == 1:
        return a
    if isinstance(a, Num) and not (a.value == 0.0 and n < 0):
        return Num(a.value ** n)
    return Pow(a, n)


# ---------------------------------------------------------------------------
# Parser

class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.i = 0

    def error(self, msg: str, offset=None) -> ParseError:
        return ParseError(msg, self.i if offset is None else offset)

    def skip_ws(self):
        while self.i < len(self.src) and self.src[self.i] in " \t\r\n":
            self.i += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.src[self.i] if self.i < len(self.src) else ""

    def expect(self, ch: str):
        if self.peek() != ch:
            raise self.error(f"expected {ch!r}")
        self.i += 1

    def parse(self) -> Expr:
        e = self.expr()
        self.skip_ws()
        if self.i < len(self.src):
            raise self.error("unexpected trailing input")
        return e

    def expr(self) -> Expr:
        e = self.term()
        while True:
            c = self.peek()
            if c == "+":
                p = self.i
                self.i += 1
                e = Add(e, self.term(), pos=p)
            elif c == "-":
                p = self.i
                self.i += 1
                e = Sub(e, self.term(), pos=p)
            else:
                return e

    def term(self) -> Expr:
        e = self.factor()
        while True:
            c = self.peek()
            if c == "*":
                p = self.i
                self.i += 1
                e = Mul(e, self.factor(), pos=p)
            elif c == "/":
                p = self.i
                self.i += 1
                e = Div(e, self.factor(), pos=p)
            else:
                return e

    def factor(self) -> Expr:
        e = self.base()
        if self.peek() == "^":
            p = self.i
            self.i += 1
            n = self.integer()
            e = Pow(e, n, pos=p)
        return e

    def integer(self) -> int:
        self.skip_ws()
        start = self.i
        if self.i < len(self.src) and self.src[self.i] == "-":
            self.i += 1
        digits = self.i
        while self.i < len(self.src) and self.src[self.i].isdigit():
            self.i += 1
        if self.i == digits:
            raise self.error("exponent must be an integer literal", start)
        # reject 2.5 and 2e3 style exponents explicitly
        if self.i < len(self.src) and self.src[self.i] in ".eE":
            raise self.error("exponent must be an integer literal", start)
        return int(self.src[start:self.i])

    def base(self) -> Expr:
        c = self.peek()
        start = self.i
        if c == "":
            raise self.error("unexpected end of input")
        if ord(c) > 127:
            raise self.error("non-ASCII character")
        if c == "-":
            self.i += 1
            return Neg(self.base(), pos=start)
        if c == "(":
            self.i += 1
            e = self.expr()
            self.expect(")")
            return e
        if c.isdigit() or c == ".":
            return self.number()
        if c.isalpha() or c == "_":
            return self.identifier()
        raise self.error(f"unexpected character {c!r}")

    def number(self) -> Expr:
        self.skip_ws()
        start = self.i
        s = self.src
        while self.i < len(s) and s[self.i].isdigit():
            self.i += 1
        if self.i < len(s) and s[self.i] == ".":
            self.i += 1
            while self.i < len(s) and s[self.i].isdigit():
                self.i += 1
        if self.i < len(s) and s[self.i] in "eE":
            j = self.i + 1
            if j < len(s) and s[j] in "+-":
                j += 1
            if j < len(s) and s[j].isdigit():
                self.i = j
                while self.i < len(s) and s[self.i].isdigit():
                    self.i += 1
        text = s[start:self.i]
        try:
            return Num(float(text), pos=start)
        except ValueError:
            raise self.error(f"malformed number {text!r}", start) from None

    def identifier(self) -> Expr:
        self.skip_ws()
        start = self.i
        s = self.src
        while self.i < len(s) and (s[self.i].isalnum() or s[self.i] == "_"):
            self.i += 1
        name = s[start:self.i]
        if name in VARIABLES:
            return Var(name, pos=start)
        if name in FUNCTIONS:
            self.expect("(")
            arg = self.expr()
            self.expect(")")
            return Call(name, arg, pos=start)
        raise self.error(f"unknown identifier {name!r}", start)


def parse_expr(src: str) -> Expr:
    """Parse an expression string; raise ParseError with byte offset."""
    for j, ch in enumerate(src):
        if ord(ch) > 127:
            raise ParseError("non-ASCII character", j)
    return _Parser(src).parse()


# ---------------------------------------------------------------------------
# Printing (round-trips through parse_expr structurally)

_PREC_ADD, _PREC_MUL, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4


def _prec(e: Expr) -> int:
    if isinstance(e, (Add, Sub)):
        return _PREC_ADD
    if isinstance(e, (Mul, Div)):
        return _PREC_MUL
    if isinstance(e, Pow):
        return _PREC_POW
    if isinstance(e, Neg):
        return 0
    if isinstance(e, Num) and e.value < 0:
        return 0
    return _PREC_ATOM


def _wrap(e: Expr, need: int) -> str:
    s = to_str(e)
    return f"({s})" if _prec(e) < need else s


def to_str(e: Expr) -> str:
    if isinstance(e, Num):
        v = e.value
        if v < 0:
            return "-" + _fmt_num(-v)
        return _fmt_num(v)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Add):
        return f"{_wrap(e.a, _PREC_ADD)} + {_wrap(e.b, _PREC_ADD + 1)}"
    if isinstance(e, Sub):
        return f"{_wrap(e.a, _PREC_ADD)} - {_wrap(e.b, _PREC_ADD + 1)}"
    if isinstance(e, Mul):
        return f"{_wrap(e.a, _PREC_MUL)}*{_wrap(e.b, _PREC_MUL + 1)}"
    if isinstance(e, Div):
        return f"{_wrap(e.a, _PREC_MUL)}/{_wrap(e.b, _PREC_MUL + 1)}"
    if isinstance(e, Pow):
        return f"{_wrap(e.base, _PREC_ATOM)}^{e.exponent}"
    if isinstance(e, Neg):
        return f"-{_wrap(e.a, _PREC_ATOM)}"
    if isinstance(e, Call):
        return f"{e.fn}({to_str(e.arg)})"
    raise TypeError(f"not an Expr: {e!r}")


def _fmt_num(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


# ---------------------------------------------------------------------------
# Differentiation (exact, closed over the language)

def differentiate(e: Expr, var: str) -> Expr:
    """The exact symbolic partial of e in var, as a tree.

    The package computes derivatives with jets (`expr_jet`) and does not
    call this. It has two readers: the jet tests, which hold `expr_jet` to
    it as the symbolic reference, and perfbench's tracer, which binds it.
    """
    if var not in VARIABLES:
        raise ValueError(f"unknown variable {var!r}")
    if isinstance(e, Num):
        return ZERO
    if isinstance(e, Var):
        return ONE if e.name == var else ZERO
    if isinstance(e, Add):
        return add(differentiate(e.a, var), differentiate(e.b, var))
    if isinstance(e, Sub):
        return sub(differentiate(e.a, var), differentiate(e.b, var))
    if isinstance(e, Mul):
        return add(mul(differentiate(e.a, var), e.b),
                   mul(e.a, differentiate(e.b, var)))
    if isinstance(e, Div):
        num = sub(mul(differentiate(e.a, var), e.b),
                  mul(e.a, differentiate(e.b, var)))
        return div(num, powi(e.b, 2))
    if isinstance(e, Pow):
        inner = differentiate(e.base, var)
        return mul(mul(Num(float(e.exponent)), powi(e.base, e.exponent - 1)),
                   inner)
    if isinstance(e, Neg):
        return neg(differentiate(e.a, var))
    if isinstance(e, Call):
        darg = differentiate(e.arg, var)
        if e.fn == "sin":
            outer = Call("cos", e.arg)
        elif e.fn == "cos":
            outer = neg(Call("sin", e.arg))
        elif e.fn == "exp":
            outer = Call("exp", e.arg)
        elif e.fn == "log":
            return div(darg, e.arg)
        else:  # pragma: no cover
            raise ValueError(f"unknown function {e.fn!r}")
        return mul(outer, darg)
    raise TypeError(f"not an Expr: {e!r}")


# ---------------------------------------------------------------------------
# Compiled evaluation

def _codegen(e: Expr) -> str:
    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Add):
        return f"({_codegen(e.a)} + {_codegen(e.b)})"
    if isinstance(e, Sub):
        return f"({_codegen(e.a)} - {_codegen(e.b)})"
    if isinstance(e, Mul):
        return f"({_codegen(e.a)} * {_codegen(e.b)})"
    if isinstance(e, Div):
        return f"({_codegen(e.a)} / {_codegen(e.b)})"
    if isinstance(e, Pow):
        return f"({_codegen(e.base)} ** {e.exponent})"
    if isinstance(e, Neg):
        return f"(-{_codegen(e.a)})"
    if isinstance(e, Call):
        return f"_{e.fn}({_codegen(e.arg)})"
    raise TypeError(f"not an Expr: {e!r}")


CODEGEN_NAMES = {"_sin": math.sin, "_cos": math.cos, "_exp": math.exp,
                 "_log": math.log}   # what _codegen's calls resolve to


def compile_expr(*trees: Expr):
    """Compile trees to one fast ``fn(x, y)`` callable: the value of a
    single tree, or the tuple of several trees' values, so both components
    of a side are one call.

    Domain errors surface as the usual Python arithmetic exceptions here;
    use :func:`evaluate` when reporting matters.
    """
    body = ", ".join(_codegen(e) for e in trees)
    src = f"lambda x, y: ({body})" if len(trees) > 1 else f"lambda x, y: {body}"
    return eval(src, dict(CODEGEN_NAMES))  # noqa: S307 - from our own AST


# ---------------------------------------------------------------------------
# Taylor jets (layout in the module doc) and checked evaluation

Jet = list[float]


def jet_constant(value: float, order: int) -> Jet:
    return [value] + [0.0] * order


def jet_variable(value: float, order: int) -> Jet:
    """The jet of t -> value + t."""
    return [value, 1.0] + [0.0] * (order - 1) if order else [value]


def jet_mul(a: Jet, b: Jet) -> Jet:
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(len(a))]


def jet_div(a: Jet, b: Jet) -> Jet:
    c: Jet = []
    for k in range(len(a)):
        c.append((a[k] - sum(b[i] * c[k - i] for i in range(1, k + 1)))
                 / b[0])
    return c


def jet_powi(a: Jet, n: int) -> Jet:
    """a^n by repeated products, which stay exact where a[0] = 0 (tangency
    points sit exactly there); the power recurrence divides by a[0]."""
    out = jet_constant(1.0, len(a) - 1)
    for _ in range(abs(n)):
        out = jet_mul(out, a)
    return out if n >= 0 else jet_div(jet_constant(1.0, len(a) - 1), out)


def jet_exp(a: Jet) -> Jet:
    try:
        c = [math.exp(a[0])]
    except OverflowError:
        c = [math.inf]
    for k in range(1, len(a)):
        c.append(sum(j * a[j] * c[k - j] for j in range(1, k + 1)) / k)
    return c


def jet_log(a: Jet) -> Jet:
    c = [math.log(a[0])]
    for k in range(1, len(a)):
        c.append((a[k] - sum(j * c[j] * a[k - j] for j in range(1, k)) / k)
                 / a[0])
    return c


def jet_sincos(a: Jet):
    """(sin a, cos a), whose recurrences feed each other."""
    s, c = [math.sin(a[0])], [math.cos(a[0])]
    for k in range(1, len(a)):
        s.append(sum(j * a[j] * c[k - j] for j in range(1, k + 1)) / k)
        c.append(-sum(j * a[j] * s[k - j] for j in range(1, k + 1)) / k)
    return s, c


def expr_jet(e: Expr, x: Jet, y: Jet) -> Jet:
    """Jet of the expression along the input jets x and y (same order);
    domain errors raise EvalDomainError at the point (x[0], y[0])."""
    if isinstance(e, Num):
        return jet_constant(e.value, len(x) - 1)
    if isinstance(e, Var):
        return x if e.name == "x" else y
    if isinstance(e, Add):
        return [p + q for p, q in zip(expr_jet(e.a, x, y), expr_jet(e.b, x, y))]
    if isinstance(e, Sub):
        return [p - q for p, q in zip(expr_jet(e.a, x, y), expr_jet(e.b, x, y))]
    if isinstance(e, Mul):
        return jet_mul(expr_jet(e.a, x, y), expr_jet(e.b, x, y))
    if isinstance(e, Div):
        den = expr_jet(e.b, x, y)
        if den[0] == 0.0:
            raise EvalDomainError("division by zero", e.pos, (x[0], y[0]))
        return jet_div(expr_jet(e.a, x, y), den)
    if isinstance(e, Pow):
        b = expr_jet(e.base, x, y)
        if b[0] == 0.0 and e.exponent < 0:
            raise EvalDomainError("zero raised to negative power", e.pos,
                                  (x[0], y[0]))
        return jet_powi(b, e.exponent)
    if isinstance(e, Neg):
        return [-p for p in expr_jet(e.a, x, y)]
    if isinstance(e, Call):
        a = expr_jet(e.arg, x, y)
        if e.fn in ("sin", "cos"):
            return jet_sincos(a)[e.fn == "cos"]
        if e.fn == "exp":
            return jet_exp(a)
        if e.fn == "log":
            if a[0] <= 0.0:
                raise EvalDomainError("log of non-positive value", e.pos,
                                      (x[0], y[0]))
            return jet_log(a)
    raise TypeError(f"not an Expr: {e!r}")


def evaluate(e: Expr, x: float, y: float) -> float:
    """The order-0 jet: evaluation that reports domain errors (slow path)."""
    return expr_jet(e, [x], [y])[0]


# ---------------------------------------------------------------------------
# ScalarField: an expression, its compiled value, and jets

class ScalarField:
    """A scalar function of (x, y) backed by an expression tree.

    The value is compiled on first use, and so is each side function that
    :meth:`side_with` pairs it into; x-derivatives of any order come from
    :meth:`x_jet`, so e.g. the 12th x-derivative of a degree-8 polynomial
    is exactly zero, not noise.
    """

    def __init__(self, expr):
        if isinstance(expr, str):
            expr = parse_expr(expr)
        if isinstance(expr, (int, float)):
            expr = Num(float(expr))
        if not isinstance(expr, Expr):
            raise TypeError("ScalarField wants an Expr, string or number")
        self.expr = expr
        self._compiled = {}   # '' (the value) or a side's g

    # -- ScalarFunc protocol -------------------------------------------------
    def value(self, x: float, y: float) -> float:
        fn = self._compiled.get("")
        if fn is None:
            fn = self._compiled[""] = compile_expr(self.expr)
        return fn(x, y)

    def side_with(self, g):
        """The compiled ``(x, y) -> (self, g)`` of a side whose g is a
        ScalarField too (None otherwise); compiled once per partner."""
        if not isinstance(g, ScalarField):
            return None
        fn = self._compiled.get(g)
        if fn is None:
            fn = self._compiled[g] = compile_expr(self.expr, g.expr)
        return fn

    def x_jet(self, x: float, y: float, order: int) -> Jet:
        """Jet of t -> f(x + t, y) up to `order`."""
        return expr_jet(self.expr, jet_variable(x, order),
                        jet_constant(y, order))

    def __repr__(self):
        return f"ScalarField({to_str(self.expr)!r})"


def as_field(obj) -> ScalarField:
    if isinstance(obj, ScalarField):
        return obj
    return ScalarField(obj)
