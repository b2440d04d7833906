"""Closed-form scalar fields on the (x, y) plane.

A tiny expression language (polynomials in x, y plus sin/cos/exp/log,
integer powers). Fields compile their values; every derivative comes from
truncated Taylor jets (Griewank & Walther, *Evaluating Derivatives*,
ch. 13): [a_0, ..., a_n], a_k = h^(k)(x0) / k!, for t -> h(x0 + t).
`expr_jet` takes x and y as input jets, so y + psi(x) can be substituted.
Every jet recurrence computes a_k from its inputs to order k alone, so
a jet's head is the lower-order jet, bit for bit, and callers read only
the orders they need.

Every generated function of the package (values and sides here, psi
and sheared sides in cutoffs and unfolding, flow's step expansion,
numerics' DOP853 step) is built by `generated_fn` from a body and a
return value: it alone writes the ``def`` header, compiles (once per
text) and execs, so functions with one source share one code object,
each with its own globals.

Grammar (ASCII, whitespace-insensitive)::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' integer)?
    base   := number | 'x' | 'y' | func '(' expr ')' | '(' expr ')' | '-' base

`parse_expr` reports syntax errors with the byte offset of the offending
token, and refuses input nested deeper than `_MAX_NESTING` parentheses,
calls and signs (each level costs the recursive parser at most three
frames, so the limit keeps it inside Python's recursion limit). Every
node keeps the offset of its operator or first token for
`EvalDomainError`. Trees are not printed back to text. The smart
constructors (constant folding and the 0/1 identities only) keep the
derivative trees of `differentiate`, the jets' symbolic reference, small.
"""

from __future__ import annotations

import contextlib
import functools
import math
from operator import mul as _mul

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

class Expr:
    """A tree node: the values of its fields (_fields, one slot each) and
    pos, the offset of its operator or first token (-1: not parsed).
    Nodes are immutable; == and hash are per type and read the fields
    alone, so Add(a, b) != Sub(a, b) and pos never decides equality."""

    __slots__ = ("pos",)
    _fields: tuple = ()

    def __init__(self, *values, pos: int = -1):
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__name__} takes {self._fields}")
        for name, v in zip(self._fields + ("pos",), values + (pos,)):
            object.__setattr__(self, name, v)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    __delattr__ = __setattr__

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        return type(other) is type(self) and self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = (f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__name__}({', '.join(fields)})"


class Num(Expr):
    __slots__ = _fields = ("value",)


class Var(Expr):
    __slots__ = _fields = ("name",)


class Add(Expr):
    __slots__ = _fields = ("a", "b")


class Sub(Expr):
    __slots__ = _fields = ("a", "b")


class Mul(Expr):
    __slots__ = _fields = ("a", "b")


class Div(Expr):
    __slots__ = _fields = ("a", "b")


class Pow(Expr):
    __slots__ = _fields = ("base", "exponent")


class Neg(Expr):
    __slots__ = _fields = ("a",)


class Call(Expr):
    __slots__ = _fields = ("fn", "arg")


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

_BINARY = ({"+": Add, "-": Sub}, {"*": Mul, "/": Div})   # loosest first
_MAX_NESTING = 200   # levels of parentheses, calls and signs
_MAX_DEPTH = 3 * _MAX_NESTING   # operations on one path of a tree


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.i = 0
        self.depth = 0   # open parentheses, calls and signs

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

    @contextlib.contextmanager
    def nested(self, offset: int):
        """One level deeper, opened at offset; refused past _MAX_NESTING."""
        if self.depth == _MAX_NESTING:
            raise self.error(f"nested deeper than {_MAX_NESTING} levels",
                             offset)
        self.depth += 1
        yield
        self.depth -= 1

    def expr(self) -> Expr:
        """Factors joined by the operators of `_BINARY`, each level
        left-associative and binding tighter than the one before: an
        operator stack, reduced down to each new operator's level."""
        terms, ops = [self.factor()], []   # ops: (level, node class, pos)
        while True:
            c = self.peek()
            lv = next((k for k, table in enumerate(_BINARY) if c in table),
                      None)
            while ops and (lv is None or ops[-1][0] >= lv):
                _, node, p = ops.pop()
                b = terms.pop()
                terms.append(node(terms.pop(), b, pos=p))
            if lv is None:
                return terms[0]
            ops.append((lv, _BINARY[lv][c], self.i))
            self.i += 1
            terms.append(self.factor())

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
            with self.nested(start):
                return Neg(self.base(), pos=start)
        if c == "(":
            self.i += 1
            with self.nested(start):
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
            value = float(text)
        except ValueError:
            raise self.error(f"malformed number {text!r}", start) from None
        if value == math.inf:   # no float holds it, nor does generated code
            raise self.error(f"number {text!r} out of range", start)
        return Num(value, pos=start)

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
            with self.nested(self.i - 1):
                arg = self.expr()
            self.expect(")")
            return Call(name, arg, pos=start)
        raise self.error(f"unknown identifier {name!r}", start)


def parse_expr(src: str) -> Expr:
    """Parse an expression string; raise ParseError with byte offset."""
    for j, ch in enumerate(src):
        if ord(ch) > 127:
            raise ParseError("non-ASCII character", j)
    tree = _Parser(src).parse()
    _check_depth(tree)
    return tree


def _check_depth(tree: Expr) -> None:
    """Refuse a tree with more than _MAX_DEPTH operations on one path, at
    the operation that passes it: every walk of a tree (compiling it, its
    jets, Python's compiler) recurses once an operation."""
    stack = [(tree, 0)]   # (node, operations above it)
    while stack:
        node, above = stack.pop()
        below = [v for v in node._values() if isinstance(v, Expr)]
        if below and above == _MAX_DEPTH:
            raise ParseError(f"operations nested deeper than {_MAX_DEPTH} "
                             "levels", node.pos)
        stack += [(child, above + 1) for child in below]


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

# Python's binding strength of each node as _codegen writes it: + - 1,
# * / 2 (the operator table's levels), a sign 3, ** 4, atoms 5
_INFIX = {node: (op, lv + 1) for lv, table in enumerate(_BINARY)
          for op, node in table.items()}


def _codegen(e: Expr, binds: int = 0) -> str:
    """Python source of e where its place binds as tightly as `binds`,
    parenthesized only where Python's precedence and left associativity
    need it: Python parses it to the tree e, so it evaluates in e's order,
    and it nests no deeper in parentheses than the source e came from."""
    if isinstance(e, Num):
        src = repr(e.value)
        own = 3 if src.startswith("-") else 5   # a negative one is a sign
    elif isinstance(e, Var):
        src, own = e.name, 5
    elif isinstance(e, Call):
        src, own = f"_{e.fn}({_codegen(e.arg)})", 5
    elif isinstance(e, Pow):   # ** binds its base tighter than a sign
        src, own = f"{_codegen(e.base, 5)} ** {e.exponent}", 4
    elif isinstance(e, Neg):
        src, own = f"-{_codegen(e.a, 3)}", 3
    elif type(e) in _INFIX:
        op, own = _INFIX[type(e)]
        src = f"{_codegen(e.a, own)} {op} {_codegen(e.b, own + 1)}"
    else:
        raise TypeError(f"not an Expr: {e!r}")
    return f"({src})" if own < binds else src


CODEGEN_NAMES = {"_sin": math.sin, "_cos": math.cos, "_exp": math.exp,
                 "_log": math.log}   # what _codegen's calls resolve to

# generated sources whose code objects are kept: more than one run
# compiles (about 30 for a graze config, 150 for a pass of classify's
# scans)
_CODE_CACHE_SIZE = 256


@functools.lru_cache(maxsize=_CODE_CACHE_SIZE)
def _code(src: str):
    """The code object of a generated source, compiled once per text (as
    exec compiles a string: filename '<string>')."""
    return compile(src, "<string>", "exec")


def generated_fn(args: str, body: str, out: str, names: dict):
    """``fn(args)``: the generated lines body, then ``return out``, run in
    globals of its own (names and CODEGEN_NAMES). The package's one
    builder of generated functions: every function with one source shares
    one code object (_code)."""
    body = "".join(" " + line for line in body.splitlines(True))
    src = f"def fn({args}):\n{body} return {out}\n"
    scope = dict(CODEGEN_NAMES, **names)
    exec(_code(src), scope)  # noqa: S102 - generated by this package
    return scope["fn"]


def compile_expr(*trees: Expr):
    """Compile trees to one fast ``fn(x, y)`` callable: the value of a
    single tree, or the tuple of several trees' values, so both components
    of a side are one call.

    Domain errors surface as the usual Python arithmetic exceptions here;
    use :func:`evaluate` when reporting matters.
    """
    # a bare tuple after return: no parentheses beyond the trees' own
    return generated_fn("x, y", "", ", ".join(_codegen(e) for e in trees),
                        {})


# ---------------------------------------------------------------------------
# Taylor jets (layout in the module doc) and checked evaluation

Jet = list[float]


def jet_constant(value: float, order: int) -> Jet:
    return [value] + [0.0] * order


def jet_variable(value: float, order: int) -> Jet:
    """The jet of t -> value + t."""
    return [value, 1.0] + [0.0] * (order - 1) if order else [value]


def jet_mul(a: Jet, b: Jet) -> Jet:
    """Coefficient k is sum over i of a[i] * b[k - i], i = 0..k in turn."""
    return [sum(map(_mul, a[:k + 1], b[k::-1])) for k in range(len(a))]


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

    The value is compiled on first use and kept; :meth:`side_with`
    compiles a side function each call (PwsSystem.side_fn keeps it);
    x-derivatives of any order come from :meth:`x_jet`, so e.g. the 12th
    x-derivative of a degree-8 polynomial is exactly zero, not noise.
    """

    def __init__(self, expr):
        if isinstance(expr, str):
            expr = parse_expr(expr)
        if isinstance(expr, (int, float)):
            expr = Num(float(expr))
        if not isinstance(expr, Expr):
            raise TypeError("ScalarField wants an Expr, string or number")
        self.expr = expr

    # -- ScalarFunc protocol -------------------------------------------------
    @functools.cached_property
    def value(self):
        """The compiled ``(x, y) -> value``."""
        return compile_expr(self.expr)

    def side_with(self, g, negated: bool = False):
        """The compiled ``(x, y) -> (self, g)`` of a side whose g is a
        ScalarField too, or with negated its ``(-self, -g)`` (None
        otherwise)."""
        if not isinstance(g, ScalarField):
            return None
        trees = self.expr, g.expr
        return compile_expr(*(map(Neg, trees) if negated else trees))

    def x_jet(self, x: float, y: float, order: int) -> Jet:
        """Jet of t -> f(x + t, y) up to `order`."""
        return expr_jet(self.expr, jet_variable(x, order),
                        jet_constant(y, order))


def as_field(obj) -> ScalarField:
    if isinstance(obj, ScalarField):
        return obj
    return ScalarField(obj)
