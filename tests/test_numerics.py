"""The in-repo stepper and root finder against SciPy's.

numerics.brentq ports SciPy's code path: every value it produces must
equal SciPy's with ==. numerics.DOP853 and numerics.solve_ivp run SciPy's
method on Python floats, whose sums round in another order than the BLAS
reductions SciPy calls, so they are held to named bounds: a step from the
same (t, y, f, h) within STEP_BOUND of each value's rounding scale, and a
whole run's end within RUN_BOUND of the tolerance it was asked for. SciPy
is a test dependency only: the package never imports it.
"""

import ast
import inspect
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate
import scipy.optimize
from scipy.integrate._ivp.rk import rk_step

import filippov2d
from filippov2d import StepUnderflow, flow, numerics
from filippov2d.cutoffs import PsiSpec
from filippov2d.system import Window
from filippov2d.unfolding import CanonicalBase, UnfoldingSpec, build_unfolded


def planar(t, z):
    x, y = map(float, z)   # ours passes a tuple, SciPy an array
    return 1.0 + 0.2 * y, x * x - 0.3 + 0.1 * x * y


def sliding(t, s):
    x = float(s[0])
    return (0.5 * math.sin(3.0 * x) - x ** 3,)


def henon(s, w):
    """A landing on a line x = level in its coordinate s = x - level, with
    (x, y, t) for state (flow._land)."""
    v = np.asarray(planar(w[-1], w[:-1]))
    return np.append(v, 1.0) / v[0]


def _sheared_side():
    """The upper side of a system sheared by a psi bump on [-0.6, 0], as
    one (x, y) -> (f, g) function: its steep flanks make the stepper
    reject steps."""
    window = Window(-1.0, 1.0, -1.0, 1.0)
    base = CanonicalBase.from_strings("1 + 0.2*y", "1", 0, "-1", "-1", 0,
                                      window)
    system = build_unfolded(UnfoldingSpec(
        base, psi_plus=PsiSpec(1, (-0.6, -0.3, 0.0, 0.01))))
    side = system.side_fn("upper")

    def sheared(t, z):
        return side(*map(float, z))
    return sheared


CASES = {
    "2d-forward": (planar, 0.0, [-0.9, 0.1], 3.0, None),
    "2d-backward": (planar, 3.0, [0.4, -0.2], 0.0, None),
    "2d-first-step": (planar, 0.0, [-0.9, 0.1], 0.7, 0.7),
    "1d-sliding": (sliding, 0.0, [0.1], 20.0, None),
    "3d-landing": (henon, -1.15, [0.05, 0.02, 1.5], 0.0, 1.15),
    "3d-landing-own-step": (henon, -1.15, [0.05, 0.02, 1.5], 0.0, None),
    "2d-sheared": (_sheared_side(), 0.0, [-0.9, 0.1], 1.5, None),
}
REJECTS = {"2d-sheared"}   # cases whose run must reject a step

# a generated step against SciPy's from the same (t, y, f, h): each value
# within 16 ulp of its rounding scale, the sum of the magnitudes of the
# terms it is summed from (max(1, |v|) for a slope)
STEP_BOUND = 16 * 2.0 ** -52
# a whole run's end against SciPy's, in units of its own tolerance
# atol + rtol |y|: step sizes that differ by rounding move it by less
RUN_BOUND = 1.0


def _autonomous(fun):
    """SciPy's fun(t, y) as ours calls a field: fun(*y), no time."""
    return lambda *y: fun(0.0, y)


def _steppers(fun, t0, y0, t_bound, first_step):
    kw = dict(rtol=flow.RTOL, atol=flow.ATOL, first_step=first_step)
    return (numerics.DOP853(_autonomous(fun), t0, np.array(y0), t_bound,
                            **kw),
            scipy.integrate.DOP853(fun, t0, np.array(y0), t_bound, **kw))


def _within(ours, theirs, scale):
    """Every |ours - theirs| is within STEP_BOUND of its rounding scale."""
    diff = np.abs(np.asarray(ours, dtype=float) - theirs)
    return bool((diff <= STEP_BOUND * np.asarray(scale)).all())


def _check_step(theirs, fun, t, y, f, h, out):
    """One generated step against SciPy's rk_step and error norm from the
    same (t, y, f, h): the state, the slope and the error norm."""
    y_new, f_new, error_norm, _ = out
    n = len(y)
    Kb = np.empty((numerics.N_STAGES + 1, n))
    yb, fb = rk_step(fun, t, np.array(y), np.array(f), h, theirs.A,
                     theirs.B, theirs.C, Kb)
    scale = flow.ATOL + np.maximum(np.abs(y), np.abs(yb)) * flow.RTOL
    eb = theirs._estimate_error_norm(Kb, h, scale)
    assert _within(y_new, yb, np.abs(y) + abs(h) * np.abs(Kb[:-1].T)
                   @ np.abs(theirs.B))
    assert _within(f_new, fb, np.maximum(1.0, np.abs(fb)))
    # the norm of E5/E3 sums that cancel: the scale is |h| times the RMS
    # of each sum's terms taken in magnitude
    rms = [np.sqrt(np.mean((np.abs(Kb.T) @ np.abs(e) / scale) ** 2))
           for e in (theirs.E5, theirs.E3)]
    assert _within(error_norm, eb, abs(h) * sum(rms))


def _check_dense(ours, theirs):
    """The dense output of ours' last step against SciPy's from the same
    step and stages: the rows of F, and the interpolant."""
    d = ours.dense_output()
    theirs.t_old, theirs.t, theirs.h_previous = d.t_old, d.t, d.h
    theirs.y_old, theirs.y = np.array(ours.y_old), np.array(ours.y)
    theirs.f = np.array(ours.f)
    K = theirs.K_extended
    K[:numerics.N_STAGES + 1] = np.reshape(ours._K, (-1, len(ours.y)))
    e = theirs._dense_output_impl()
    dy, k0, h = np.abs(theirs.y - theirs.y_old), np.abs(K[0]), abs(d.h)
    scale = np.vstack([dy, dy + h * k0, 2 * dy + h * (np.abs(theirs.f) + k0),
                       h * np.abs(theirs.D) @ np.abs(K)])
    assert _within(np.transpose(d.F), e.F, scale)
    for tau in (0.0, 0.3, 0.5, 1.0):
        t = d.t_old + tau * d.h
        assert _within(d(t), e(t), np.abs(e.F).sum(axis=0) + np.abs(e.y_old))


def _run(stepper):
    """Step to the end; the evaluations each step() made, in order."""
    counts = []
    while stepper.status == "running":
        nfev = stepper.nfev
        stepper.step()
        counts.append(stepper.nfev - nfev)
    return counts


@pytest.mark.parametrize("case", sorted(CASES))
def test_stepper_is_scipys_step_for_step(case):
    ours, theirs = _steppers(*CASES[case])
    fun = CASES[case][0]
    assert ours.h_abs == theirs.h_abs and ours.nfev == theirs.nfev
    generated, trials = ours._rk_step, []

    def checked(*args):   # every trial step, rejected ones included
        out = generated(*args)   # (fun, y, f, h, rtol, atol), from ours.t
        _check_step(theirs, fun, ours.t, *args[1:4], out)
        trials.append(ours.t)
        return out
    ours._rk_step = checked
    accepted = 0
    while ours.status == "running":
        assert ours.step() is None
        assert ours.f == [float(v) for v in fun(ours.t, ours.y)]
        accepted += 1
        if accepted % 3 == 0:
            _check_dense(ours, theirs)
    assert ours.status == "finished" and accepted > 3
    assert len(trials) > accepted or case not in REJECTS
    # the whole run ends where SciPy's own does, within its tolerance
    _run(theirs)
    assert theirs.status == "finished" and ours.t == theirs.t
    assert (np.abs(np.array(ours.y) - theirs.y)
            <= RUN_BOUND * (flow.ATOL + flow.RTOL * np.abs(theirs.y))).all()


def test_one_run_changes_scipys_accept_reject_sequence():
    # the error norm sums cancelling terms, so its rounding moves each step
    # size by about 1e-6 relative: one run of the cases, the sheared one,
    # takes a step more than SciPy's
    changed = [case for case in sorted(CASES)
               if _run(_steppers(*CASES[case])[0])
               != _run(_steppers(*CASES[case])[1])]
    assert changed == ["2d-sheared"]


def test_too_small_a_step_fails_as_scipys_does():
    def blowup(t, y):   # y' = y^2 from y(0) = 1 leaves to infinity at t = 1
        return (y[0] * y[0],)
    ours, theirs = _steppers(blowup, 0.0, [1.0], 2.0, None)
    with np.errstate(all="ignore"):
        while theirs.status == "running":
            message = theirs.step()
            assert ours.step() == message
    assert ours.status == theirs.status == "failed"
    assert message == numerics.TOO_SMALL_STEP and ours.nfev == theirs.nfev
    assert abs(ours.t - 1.0) < 1e-10 and abs(theirs.t - 1.0) < 1e-10
    # flow's stepping raises the failed step's message as StepUnderflow
    with pytest.raises(StepUnderflow, match=numerics.TOO_SMALL_STEP):
        flow._run_to(_autonomous(blowup), 0.0, [1.0], 2.0)


def test_nudge_integration_is_scipys_solve_ivp():
    def rhs(t, s):
        fv, gv = planar(t, s)
        return -fv, -gv
    for h in (1e-8, 4e-8, 1e-3, 0.5):
        ours = numerics.solve_ivp(_autonomous(rhs), (0.0, h), (-0.2, 0.0),
                                  rtol=flow.RTOL, atol=flow.ATOL * 1e-2)
        theirs = scipy.integrate.solve_ivp(
            rhs, (0.0, h), (-0.2, 0.0), method="DOP853", rtol=flow.RTOL,
            atol=flow.ATOL * 1e-2)
        assert len(ours.t) == len(theirs.t) and ours.nfev == theirs.nfev
        assert ours.t[0] == theirs.t[0] and ours.t[-1] == theirs.t[-1] == h
        assert [len(c) for c in ours.y] == [len(ours.t)] * 2
        end, want = np.array([c[-1] for c in ours.y]), theirs.y[:, -1]
        tol = flow.ATOL * 1e-2 + flow.RTOL * np.abs(want)
        assert (np.abs(end - want) <= RUN_BOUND * tol).all()


def test_the_generated_step_is_the_one_stepper_path():
    # numerics reduces no array (no .dot), its stepper code never names
    # numpy, and the only tables it keeps are the tableau: no stage table
    # of a generic path can come back beside the generated one
    tree = ast.parse(inspect.getsource(numerics))
    assert not [node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr == "dot"]
    stepper = [stmt for stmt in tree.body
               if isinstance(stmt, (ast.ClassDef, ast.FunctionDef))
               and stmt.name in ("_rms", "_initial_step", "_generated",
                                 "DenseOutput", "DOP853")]
    assert len(stepper) == 5
    assert not [node.lineno for stmt in stepper for node in ast.walk(stmt)
                if isinstance(node, ast.Name) and node.id == "np"]
    tables = sorted(name for name, value in vars(numerics).items()
                    if not name.startswith("__")
                    and isinstance(value, (list, tuple, dict, np.ndarray))
                    and len(value))
    assert tables == ["A", "B", "C", "D", "E3", "E5"]
    solver = numerics.DOP853(_autonomous(planar), 0.0, [-0.9, 0.1], 1.0,
                             rtol=flow.RTOL, atol=flow.ATOL)
    solver.step()
    dense = solver.dense_output()
    assert not [name for name, value in {**vars(solver), **vars(dense)}.items()
                if isinstance(value, np.ndarray)]


def test_the_tableau_is_scipys_float_for_float():
    # A and D keep the nonzero entries of SciPy's matrices, C, B, E3 and
    # E5 its vectors, each float equal to SciPy's
    from scipy.integrate._ivp import dop853_coefficients as theirs
    for ours, want in ((numerics.A, theirs.A), (numerics.D, theirs.D)):
        assert ours == {(i, j): float(v) for (i, j), v
                        in np.ndenumerate(want) if v}
    for name in ("B", "C", "E3", "E5"):
        assert getattr(numerics, name) == getattr(theirs, name).tolist()
        assert all(type(v) is float for v in getattr(numerics, name))


def _brackets(seed=13, n=60):
    """(f, a, b): smooth and high-order zeros, brackets on either side."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        r, u, v = rng.uniform(-1.0, 1.0), *rng.uniform(1e-3, 1.0, 2)
        s, e, p = rng.uniform(0.5, 40.0), rng.uniform(0.0, 2.0), \
            int(rng.integers(1, 8))
        yield (lambda x, r=r, s=s, e=e: math.tanh(s * (x - r))
               + e * (x - r) ** 3), r - u, r + v
        yield (lambda x, r=r, p=p: math.copysign(abs(x - r) ** p, x - r)
               * (1.0 + 0.5 * x)), r + v, r - u


@pytest.mark.parametrize("kw", [
    dict(xtol=1e-15, rtol=1e-15, maxiter=400, disp=False),   # flow._root
    dict(xtol=1e-13, rtol=4e-15),                            # loops._root
], ids=["flow", "loops"])
def test_brentq_is_scipys_root_and_path(kw):
    def outcome(brentq, f, a, b):
        """The root or the failure, and every point evaluated."""
        seen = []
        try:
            out = brentq(lambda x: seen.append(x) or f(x), a, b, **kw)
        except RuntimeError as exc:   # a high-order zero at maxiter 100
            out = str(exc)
        return out, seen
    for f, a, b in _brackets():
        ours = outcome(numerics.brentq, f, a, b)
        assert ours == outcome(scipy.optimize.brentq, f, a, b)
        assert type(ours[0]) is float or kw.get("disp", True)


def test_brentq_fails_as_scipys_does():
    def cubic(x):
        return x ** 3 - 2.0 * x - 5.0
    cases = [(cubic, 3.0, 4.5, {}),                        # no sign change
             (lambda x: math.nan if x > 2.2 else -1.0, 2.0, 2.5, {}),
             (cubic, 2.0, 2.5, dict(maxiter=2))]           # no convergence
    for f, a, b, kw in cases:
        with pytest.raises((ValueError, RuntimeError)) as theirs:
            scipy.optimize.brentq(f, a, b, xtol=1e-13, rtol=4e-15, **kw)
        message = f"^{re.escape(str(theirs.value))}$"
        with pytest.raises(theirs.type, match=message):
            numerics.brentq(f, a, b, xtol=1e-13, rtol=4e-15, **kw)
    kw = dict(xtol=1e-13, rtol=4e-15, maxiter=2, disp=False)
    assert numerics.brentq(cubic, 2.0, 2.5, **kw) \
        == scipy.optimize.brentq(cubic, 2.0, 2.5, **kw)


def test_brentq_bisects_where_its_step_denominator_underflows():
    # subnormal values: the extrapolation's denominator rounds to 0, where
    # C's step is inf or NaN and bisects
    c = [1.6635e-320, -2.03e-322, -1.527e-321, -1.17e-321, -2.925e-321,
         -4.21e-321, -3.256e-321, -3.36e-321]

    def poly(u):
        return flow._horner(c, u)
    kw = dict(xtol=1e-15, rtol=1e-15, maxiter=400)
    root = numerics.brentq(poly, 0.96875, 1.0, **kw)
    assert root == scipy.optimize.brentq(poly, 0.96875, 1.0, **kw) \
        == 0.9998321533203072


GUARD = """
import sys
from filippov2d import cli
assert cli.main(["run", sys.argv[1], "--out", sys.argv[2]]) == 0
assert cli.main(["check", "--seed", "1"]) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""

# the package computes on Python floats: importing numpy alone would cost
# a run's interpreter about 0.13 s and 13 MB resident
NUMPY_GUARD = """
import sys
from filippov2d import cli
assert cli.main(["run", sys.argv[1], "--out", sys.argv[2]]) == 0
assert cli.main(["check", "--seed", "1"]) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] == "numpy"))
"""


def _run_thm2(tmp_path, script):
    """The last line that script prints in a fresh interpreter, given a
    thm2 m=3 config and an output directory."""
    cfg = tmp_path / "thm2.cfg"
    cfg.write_text("upper.m = 3\nscenario.theorem = 2\nscenario.ell = 1\n"
                   "scenario.visibility = I\n")
    src = str(Path(filippov2d.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", script, str(cfg), str(tmp_path / "out")],
        capture_output=True, text=True, check=True, env=env).stdout
    return out.splitlines()[-1]


def test_a_run_and_a_check_import_no_scipy(tmp_path):
    assert _run_thm2(tmp_path, GUARD) == "[]"


def test_a_run_and_a_check_import_no_numpy(tmp_path):
    assert _run_thm2(tmp_path, NUMPY_GUARD) == "[]"


# start-up: modules that a run has no use for, or that serve one path
# alone; dataclasses alone pulls in inspect, ast, dis and tokenize
STARTUP_GUARD = """
import sys
bare = set(sys.modules)
from filippov2d import cli
added = set(sys.modules) - bare
unwanted = {"dataclasses", "inspect", "ast", "dis", "traceback", "textwrap",
            "linecache", "tokenize"}
assert cli.main(["run", sys.argv[1], "--out", sys.argv[2]]) == 0
print(sorted(added & unwanted), "dataclasses" in sys.modules)
"""


def test_importing_the_cli_loads_no_start_up_waste(tmp_path):
    assert _run_thm2(tmp_path, STARTUP_GUARD) == "[] False"
