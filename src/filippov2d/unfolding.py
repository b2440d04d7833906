"""Unfoldings of canonical tangency systems.

A canonical base has components (f, phi * x^m) per side, i.e. a single
tangency of multiplicity m at the origin on each side with g-factor phi
bounded away from zero. Two perturbation layers are applied:

* transition: replace x^m by the product prod_i (x - lambda_i), splitting
  the base tangency into simple ones at the lambda values;
* shear: compose with the vertical shear y -> y + psi(x) built from smooth
  plateau profiles. Both components of a sheared side are one formula,

      F(x, y) = a(x, u) * prod(x - lambda_i) - b(x, u) * psi'(x),
      u = y + psi(x),

  with f~ = f(x, u) (a = f, no lambdas, no b) and
  g~ = phi(x, u) * prod(x - lambda_i) - f(x, u) * psi'(x) (a = phi,
  b = f). ShearedField is that formula, compiled to Python source; the
  side function of a sheared pair evaluates psi, psi', u and f(x, u) once
  for both components, so one flow RHS point evaluates psi once.

The shear is an exact conjugacy between the transition flow and the
unfolded flow: gamma~(t; x0, y0 - psi(x0)) = gamma^(t; x0, y0) shifted by
(0, -psi(gamma^_1)). build_unfolded keeps the transition system and psi+
on the sheared system it returns, and maps.displacement_sigma flies its
search legs there; the witnesses in loops integrate the sheared system.

Because psi has vanishing derivatives at its knots, placing knots at the
lambda values keeps those points tangencies of the unfolded system with
their types intact.

Values and dy are closed-form; x-derivatives of any order (dx included)
come from `x_jet`, which feeds y + psi(x) to fieldexpr.expr_jet.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Callable, List, Optional, Sequence, Tuple

from .cutoffs import PsiSpec, _psi_core, psi_jet, zero_psi
from . import fieldexpr
from .fieldexpr import (Expr, Jet, Mul, Num, Pow, Sub, Var, ScalarField,
                        as_field, differentiate, expr_jet, jet_mul,
                        jet_variable)
# this module calls no numerics.solve_ivp; it stays bound here because
# perfbench/tracing.py wraps it on every layer
from .numerics import solve_ivp  # noqa: F401
from .system import PwsSystem, Window


@dataclass
class CanonicalBase:
    """Per-side data (f, phi, m) of a canonical two-tangency system."""

    f_plus: ScalarField
    phi_plus: ScalarField
    m_plus: int
    f_minus: ScalarField
    phi_minus: ScalarField
    m_minus: int
    window: Window

    @classmethod
    def from_strings(cls, f_plus, phi_plus, m_plus, f_minus, phi_minus,
                     m_minus, window) -> "CanonicalBase":
        return cls(as_field(f_plus), as_field(phi_plus), int(m_plus),
                   as_field(f_minus), as_field(phi_minus), int(m_minus),
                   window)

    def system(self) -> PwsSystem:
        gp = _g_expr(self.phi_plus, [0.0] * self.m_plus)
        gm = _g_expr(self.phi_minus, [0.0] * self.m_minus)
        return PwsSystem(self.f_plus, gp, self.f_minus, gm, self.window)


def _monic_product_expr(lambdas: Sequence[float]) -> Expr:
    """prod (x - lambda_i) as an expression; x^m when all lambdas vanish."""
    m = len(lambdas)
    x = Var("x")
    if m == 0:
        return Num(1.0)
    if all(l == 0.0 for l in lambdas):
        return x if m == 1 else Pow(x, m)
    out: Expr | None = None
    for l in lambdas:
        factor = x if l == 0.0 else Sub(x, Num(float(l)))
        out = factor if out is None else Mul(out, factor)
    return out


def _g_expr(phi: ScalarField, lambdas: Sequence[float]) -> ScalarField:
    return ScalarField(Mul(phi.expr, _monic_product_expr(lambdas))
                       if len(lambdas) else phi.expr)


@dataclass
class UnfoldingSpec:
    base: CanonicalBase
    lambda_plus: Tuple[float, ...] = ()
    lambda_minus: Tuple[float, ...] = ()
    psi_plus: Optional[PsiSpec] = None
    psi_minus: Optional[PsiSpec] = None

    def __post_init__(self):
        self.lambda_plus = tuple(float(v) for v in self.lambda_plus)
        self.lambda_minus = tuple(float(v) for v in self.lambda_minus)
        if len(self.lambda_plus) != self.base.m_plus:
            raise ValueError(f"lambda_plus needs {self.base.m_plus} entries")
        if len(self.lambda_minus) != self.base.m_minus:
            raise ValueError(f"lambda_minus needs {self.base.m_minus} entries")


def build_transition(spec: UnfoldingSpec) -> PwsSystem:
    """The lambda-layer only: g-sides become phi * prod(x - lambda_i)."""
    b = spec.base
    return PwsSystem(
        b.f_plus, _g_expr(b.phi_plus, spec.lambda_plus),
        b.f_minus, _g_expr(b.phi_minus, spec.lambda_minus), b.window)


def _shear_jets(psi_spec: PsiSpec, x: float, y: float,
                order: int) -> Tuple[Jet, Jet, Jet]:
    """Input jets x + t and y + psi(x + t), and the jet of psi'(x + t)."""
    p = psi_jet(psi_spec, x, order + 1)
    return (jet_variable(x, order), [y + p[0]] + p[1:-1],
            [k * p[k] for k in range(1, order + 2)])


_SHEARED_SOURCE = """def fn(x, y):
    p, dp = _psi_core(_spec, x)
    y = y + p
{lets}    return {out}
"""


def _compile_sheared(spec: PsiSpec, terms) -> Callable:
    """One generated fn(x, y) for components a(x, u) * prod(x - l_i) -
    b(x, u) * psi'(x), u = y + psi(x), one (a, lambdas, b) tree triple
    each (b may be None): psi and psi' are evaluated once, u is formed
    once and each distinct tree is evaluated once, at (x, u). Returns the
    value of one component, or the tuple of several."""
    local = {}   # id of a tree -> (the name of its value, the tree)

    def name(tree: Expr) -> Var:
        return Var(local.setdefault(id(tree), (f"v{len(local)}", tree))[0])
    outs = []
    for a, lambdas, b in terms:
        out = name(a)
        if lambdas:   # left to right, in the order the factors are given
            out = Mul(out, reduce(Mul, (Sub(Var("x"), Num(l))
                                        for l in lambdas)))
        if b is not None:
            out = Sub(out, Mul(name(b), Var("dp")))
        outs.append(out)
    lets = "".join(f"    {v} = {fieldexpr._codegen(t)}\n"
                   for v, t in local.values())
    src = _SHEARED_SOURCE.format(lets=lets, out=", ".join(
        fieldexpr._codegen(e) for e in outs))
    scope = dict(fieldexpr.CODEGEN_NAMES, _psi_core=_psi_core, _spec=spec)
    exec(src, scope)  # noqa: S102 - source generated from our own AST
    return scope["fn"]


class ShearedField:
    """F(x, y) = a(x, u) * prod(x - l_i) - b(x, u) * psi'(x), u = y + psi(x);
    a and b are ScalarFields, and the product and the b term are left out
    when there are no lambdas or no b.

    value and dy are compiled from _compile_sheared on first use, and so is
    the side function that :meth:`side_with` pairs two fields of one
    profile into."""

    def __init__(self, a, spec: PsiSpec, lambdas: Sequence[float] = (),
                 b=None):
        self._a = a
        self._spec = spec
        self._lambdas = tuple(float(v) for v in lambdas)
        self._b = b
        self._a_hat = _g_expr(a, self._lambdas).expr  # a * P, unsheared
        self._compiled = {}   # '' (value), 'y' (dy) or a side's g

    def _terms(self, var: str = ""):
        """(a, lambdas, b) trees of the value (''), or of d/dy ('y')."""
        def tree(fld):
            return differentiate(fld.expr, var) if var else fld.expr
        return (tree(self._a), self._lambdas,
                None if self._b is None else tree(self._b))

    def _fn(self, key):
        """The compiled value (''), d/dy ('y') or side with the g `key`."""
        fn = self._compiled.get(key)
        if fn is None:
            terms = [self._terms(key)] if isinstance(key, str) \
                else [self._terms(), key._terms()]
            fn = self._compiled[key] = _compile_sheared(self._spec, terms)
        return fn

    def value(self, x: float, y: float) -> float:
        return self._fn("")(x, y)

    def dx(self, x: float, y: float) -> float:
        return self.x_jet(x, y, 1)[1]

    def dy(self, x: float, y: float) -> float:
        return self._fn("y")(x, y)

    def side_with(self, g):
        """The compiled ``(x, y) -> (self, g)`` of a side whose g is sheared
        by the same profile (None otherwise)."""
        if not (isinstance(g, ShearedField) and g._spec is self._spec):
            return None
        return self._fn(g)

    def x_jet(self, x: float, y: float, order: int) -> Jet:
        xj, u, dp = _shear_jets(self._spec, x, y, order)
        a_jet = expr_jet(self._a_hat, xj, u)
        if self._b is None:
            return a_jet
        b_dp = jet_mul(expr_jet(self._b.expr, xj, u), dp)
        return [a - b for a, b in zip(a_jet, b_dp)]


def _sheared_side(f, phi, lambdas: Sequence[float],
                  psi_spec: Optional[PsiSpec], plain):
    """(f~, g~) of one side, sheared by one profile; `plain`, the
    transition pair, when the profile is zero."""
    if zero_psi(psi_spec):
        return plain
    return (ShearedField(f, psi_spec),
            ShearedField(phi, psi_spec, lambdas, f))


def build_unfolded(spec: UnfoldingSpec) -> PwsSystem:
    """Full unfolding (transition + shear).

    With zero shear profiles this returns the transition system itself
    (identical component objects), so a spec with lambda = 0 and zero psi
    reproduces the base system's values bit for bit. A sheared system
    keeps that transition system and psi+ (None when zero); an unsheared
    side is the transition's own pair.
    """
    b = spec.base
    trans = build_transition(spec)
    if zero_psi(spec.psi_plus) and zero_psi(spec.psi_minus):
        return trans
    f_p, g_p = _sheared_side(b.f_plus, b.phi_plus, spec.lambda_plus,
                             spec.psi_plus, trans.upper())
    f_m, g_m = _sheared_side(b.f_minus, b.phi_minus, spec.lambda_minus,
                             spec.psi_minus, trans.lower())
    return PwsSystem(f_p, g_p, f_m, g_m, b.window,
                     transition=(trans, None if zero_psi(spec.psi_plus)
                                 else spec.psi_plus))


def admissible_k_family(d: int, base_gap: float, shrink: float = 0.5,
                        steps: int = 8, C: float = 1.0,
                        x_start: float = 0.0) -> List[PsiSpec]:
    """Shrinking ladder of admissible plateau profiles.

    Step s uses equal knot gaps g_s = base_gap * shrink^s and plateau
    heights C * g_s^5, realizing heights = o(gap^4) along the ladder.
    """
    if not (0.0 < shrink < 1.0):
        raise ValueError("shrink must be in (0, 1)")
    out = []
    for s in range(steps):
        gap = base_gap * shrink ** s
        knots = tuple(x_start + i * gap for i in range(2 * d + 1))
        heights = tuple(C * gap ** 5 for _ in range(d))
        out.append(PsiSpec(d, knots + heights))
    return out
