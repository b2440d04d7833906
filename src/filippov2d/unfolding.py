"""Unfoldings of canonical tangency systems.

A canonical base has components (f, phi * x^m) per side, i.e. a single
tangency of multiplicity m at the origin on each side with g-factor phi
bounded away from zero. Two perturbation layers are applied:

* transition: replace x^m by the product prod_i (x - lambda_i), splitting
  the base tangency into simple ones at the lambda values: the fields
  f^ = f and g^ = phi * prod(x - lambda_i) of build_transition;
* shear: compose the transition side with the vertical shear
  y -> y + psi(x) built from smooth plateau profiles. Both components of
  a sheared side read the transition's fields at u = y + psi(x),

      f~(x, y) = f^(x, u),   g~(x, y) = g^(x, u) - f^(x, u) * psi'(x).

  ShearedField is that formula, compiled to Python source with psi's
  own arithmetic inline: the one psi template of cutoffs, so a sheared
  value rounds as cutoffs._psi_core does, bit for bit, and calls no psi
  function. The side function of a sheared pair evaluates psi, psi', u
  and f^(x, u) once for both components, so one flow RHS point evaluates
  psi once. Both are built by fieldexpr.generated_fn, like every
  generated function; a field keeps its value, and the system keeps its
  side functions (PwsSystem.side_fn).

The shear is an exact conjugacy between the transition flow and the
unfolded flow: gamma~(t; x0, y0 - psi(x0)) = gamma^(t; x0, y0) shifted by
(0, -psi(gamma^_1)). build_unfolded keeps the transition system and psi+
on the sheared system it returns, and maps.displacement_sigma flies its
search legs there; the witnesses in loops integrate the sheared system.

Because psi has vanishing derivatives at its knots, placing knots at the
lambda values keeps those points tangencies of the unfolded system with
their types intact.

Values are closed-form; x-derivatives of any order come from `x_jet`,
which feeds y + psi(x) to fieldexpr.expr_jet.
"""

from __future__ import annotations

from functools import cached_property, reduce
from typing import Callable, NamedTuple, Optional, Sequence

from .cutoffs import PsiSpec, _psi_source, psi_jet, zero_psi
from . import fieldexpr
from .fieldexpr import (Expr, Jet, Mul, Num, Pow, Sub, Var, ScalarField,
                        as_field, expr_jet, generated_fn, jet_mul,
                        jet_variable)
# this module calls no numerics.solve_ivp; it stays bound here because
# perfbench/tracing.py wraps it on every layer
from .numerics import solve_ivp  # noqa: F401
from .system import PwsSystem, Window


class CanonicalBase(NamedTuple):
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
        """The base system: the transition of the zero split."""
        return build_transition(UnfoldingSpec(
            self, (0.0,) * self.m_plus, (0.0,) * self.m_minus))


def _monic_product_expr(lambdas: Sequence[float]) -> Expr:
    """prod (x - lambda_i) as an expression, left to right (m >= 1); a zero
    lambda's factor is x, and the product x^m when all lambdas vanish."""
    x = Var("x")
    if not any(lambdas):
        return x if len(lambdas) == 1 else Pow(x, len(lambdas))
    return reduce(Mul, (Sub(x, Num(l)) if l else x for l in lambdas))


class UnfoldingSpec:
    """The splits lambda_plus, lambda_minus (m_plus and m_minus floats,
    checked at construction) and the shear profiles psi_plus, psi_minus
    (None: zero) of an unfolding of base."""

    def __init__(self, base: CanonicalBase, lambda_plus: Sequence[float] = (),
                 lambda_minus: Sequence[float] = (),
                 psi_plus: Optional[PsiSpec] = None,
                 psi_minus: Optional[PsiSpec] = None):
        self.base, self.psi_plus, self.psi_minus = base, psi_plus, psi_minus
        for key, lam, m in (("lambda_plus", lambda_plus, base.m_plus),
                            ("lambda_minus", lambda_minus, base.m_minus)):
            setattr(self, key, tuple(float(v) for v in lam))
            if len(getattr(self, key)) != m:
                raise ValueError(f"{key} needs {m} entries")

    @cached_property
    def _unfolded(self) -> PwsSystem:
        """build_unfolded's system, built on first use and kept."""
        trans = build_transition(self)
        if zero_psi(self.psi_plus) and zero_psi(self.psi_minus):
            return trans
        f_p, g_p = _sheared_side(trans.upper(), self.psi_plus)
        f_m, g_m = _sheared_side(trans.lower(), self.psi_minus)
        return PwsSystem(f_p, g_p, f_m, g_m, trans.window,
                         transition=(trans, None if zero_psi(self.psi_plus)
                                     else self.psi_plus))


def build_transition(spec: UnfoldingSpec) -> PwsSystem:
    """The lambda-layer only: g-sides become phi * prod(x - lambda_i)."""
    b = spec.base
    g_plus, g_minus = (ScalarField(Mul(phi.expr, _monic_product_expr(lam))
                                   if lam else phi.expr)
                       for phi, lam in ((b.phi_plus, spec.lambda_plus),
                                        (b.phi_minus, spec.lambda_minus)))
    return PwsSystem(b.f_plus, g_plus, b.f_minus, g_minus, b.window)


def _compile_sheared(spec: PsiSpec, fields,
                     negated: bool = False) -> Callable:
    """One generated fn(x, y) for sheared fields of one profile: psi and
    psi' inline from the psi template (cutoffs._psi_source), u once, and
    each distinct transition field once, at (x, u); the value of one
    field, or the tuple of several; with negated, their negations."""
    local = {}   # id of a tree -> (the name of its value, the tree)

    def name(tree: Expr) -> str:
        return local.setdefault(id(tree), (f"v{len(local)}", tree))[0]
    outs = [name(fl._hat.expr) if fl._f is None
            else f"{name(fl._hat.expr)} - {name(fl._f.expr)} * dp"
            for fl in fields]
    outs = [f"-({out})" for out in outs] if negated else outs
    psi, names = _psi_source(spec)
    lets = "".join(f"{v} = {fieldexpr._codegen(t)}\n"
                   for v, t in local.values())
    return generated_fn("x, y", f"{psi}y = y + p\n{lets}", ", ".join(outs),
                        names)


class ShearedField:
    """A transition field hat sheared by the profile psi:
    F(x, y) = hat(x, u) - f(x, u) * psi'(x), u = y + psi(x), where f is
    the side's transition f for g~ and None (no psi' term) for f~.

    The value is compiled from _compile_sheared on first use and kept;
    :meth:`side_with` compiles the side function of two fields of one
    profile each call; x-derivatives of any order come from :meth:`x_jet`,
    whose coefficient k reads psi's jet to order k + 1 alone (prefix-stable,
    as fieldexpr's jets are)."""

    def __init__(self, hat: ScalarField, spec: PsiSpec,
                 f: Optional[ScalarField] = None):
        self._hat = hat
        self._spec = spec
        self._f = f

    @cached_property
    def value(self):
        """The compiled ``(x, y) -> value``."""
        return _compile_sheared(self._spec, (self,))

    def side_with(self, g, negated: bool = False):
        """The compiled ``(x, y) -> (self, g)`` of a side whose g is sheared
        by the same profile, or with negated its ``(-self, -g)`` (None
        otherwise)."""
        if not (isinstance(g, ShearedField) and g._spec is self._spec):
            return None
        return _compile_sheared(self._spec, (self, g), negated)

    def x_jet(self, x: float, y: float, order: int) -> Jet:
        p = psi_jet(self._spec, x, order + 1)
        xj, u = jet_variable(x, order), [y + p[0]] + p[1:-1]
        hat_jet = expr_jet(self._hat.expr, xj, u)
        if self._f is None:
            return hat_jet
        dp = [k * p[k] for k in range(1, order + 2)]
        f_dp = jet_mul(expr_jet(self._f.expr, xj, u), dp)
        return [a - b for a, b in zip(hat_jet, f_dp)]


def _sheared_side(side, psi_spec: Optional[PsiSpec]):
    """(f~, g~): the transition side (f^, g^) sheared by psi_spec, or the
    side itself when psi_spec is zero."""
    if zero_psi(psi_spec):
        return side
    f, g = side
    return ShearedField(f, psi_spec), ShearedField(g, psi_spec, f)


def build_unfolded(spec: UnfoldingSpec) -> PwsSystem:
    """Full unfolding (transition + shear), one system per spec.

    With zero shear profiles this is the transition system itself
    (identical component objects), so a spec with lambda = 0 and zero psi
    reproduces the base system's values bit for bit. A sheared system
    keeps that transition system and psi+ (None when zero); an unsheared
    side is the transition's own pair.
    """
    return spec._unfolded
