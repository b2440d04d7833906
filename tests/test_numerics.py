"""The in-repo stepper and root finder against SciPy's, bit for bit.

numerics.DOP853, numerics.solve_ivp and numerics.brentq port SciPy's code
paths; every value they produce must equal SciPy's with ==. SciPy is a
test dependency only: the package never imports it.
"""

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

import filippov2d
from filippov2d import StepUnderflow, flow, numerics


def planar(t, z):
    x, y = z.tolist()
    return 1.0 + 0.2 * y, x * x - 0.3 + 0.1 * x * y


def sliding(t, s):
    x = float(s[0])
    return (0.5 * math.sin(3.0 * x) - x ** 3,)


def henon(s, w):
    """A landing on a line x = level in its coordinate s = x - level, with
    (x, y, t) for state (flow._land)."""
    v = np.asarray(planar(w[-1], w[:-1]))
    return np.append(v, 1.0) / v[0]


CASES = {
    "2d-forward": (planar, 0.0, [-0.9, 0.1], 3.0, None),
    "2d-backward": (planar, 3.0, [0.4, -0.2], 0.0, None),
    "2d-first-step": (planar, 0.0, [-0.9, 0.1], 0.7, 0.7),
    "1d-sliding": (sliding, 0.0, [0.1], 20.0, None),
    "3d-landing": (henon, -1.15, [0.05, 0.02, 1.5], 0.0, 1.15),
    "3d-landing-own-step": (henon, -1.15, [0.05, 0.02, 1.5], 0.0, None),
}


def _steppers(fun, t0, y0, t_bound, first_step):
    kw = dict(rtol=flow.RTOL, atol=flow.ATOL, first_step=first_step)
    return (numerics.DOP853(fun, t0, np.array(y0), t_bound, **kw),
            scipy.integrate.DOP853(fun, t0, np.array(y0), t_bound, **kw))


def _assert_same_dense(ours, theirs):
    d, e = ours.dense_output(), theirs.dense_output()
    assert (d.F == e.F).all() and (d.y_old == e.y_old).all()
    for tau in (0.0, 0.3, 0.5, 1.0):
        t = d.t_old + tau * (d.t - d.t_old)
        assert (d(t) == e(t)).all()


@pytest.mark.parametrize("case", sorted(CASES))
def test_stepper_is_scipys_step_for_step(case):
    ours, theirs = _steppers(*CASES[case])
    assert ours.h_abs == theirs.h_abs and ours.nfev == theirs.nfev
    steps = 0
    while theirs.status == "running":
        assert ours.step() == theirs.step()
        assert ours.status == theirs.status
        assert ours.t == theirs.t and ours.t_old == theirs.t_old
        assert (ours.y == theirs.y).all() and (ours.f == theirs.f).all()
        assert ours.nfev == theirs.nfev
        if steps % 3 == 0:
            _assert_same_dense(ours, theirs)
        steps += 1
    assert theirs.status == "finished" and steps > 3
    assert ours.nfev == theirs.nfev


def test_too_small_a_step_fails_as_scipys_does():
    def blowup(t, y):   # y' = y^2 from y(0) = 1 leaves to infinity at t = 1
        return (y[0] * y[0],)
    ours, theirs = _steppers(blowup, 0.0, [1.0], 2.0, None)
    with np.errstate(all="ignore"):
        while theirs.status == "running":
            message = theirs.step()
            assert ours.step() == message
            assert ours.status == theirs.status and ours.t == theirs.t
    assert theirs.status == "failed" and message == numerics.TOO_SMALL_STEP
    assert ours.nfev == theirs.nfev
    fresh = _steppers(blowup, 0.0, [1.0], 2.0, None)[0]
    with np.errstate(all="ignore"), pytest.raises(
            StepUnderflow, match=numerics.TOO_SMALL_STEP):
        while fresh.status == "running":
            flow._step(fresh)


def test_nudge_integration_is_scipys_solve_ivp():
    def rhs(t, s):
        fv, gv = planar(t, s)
        return -fv, -gv
    for h in (1e-8, 4e-8, 1e-3, 0.5):
        ours = numerics.solve_ivp(rhs, (0.0, h), (-0.2, 0.0),
                                  rtol=flow.RTOL, atol=flow.ATOL * 1e-2)
        theirs = scipy.integrate.solve_ivp(
            rhs, (0.0, h), (-0.2, 0.0), method="DOP853", rtol=flow.RTOL,
            atol=flow.ATOL * 1e-2)
        assert (ours.t == theirs.t).all() and (ours.y == theirs.y).all()
        assert ours.nfev == theirs.nfev


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


GUARD = """
import sys
from filippov2d import cli
assert cli.main(["run", sys.argv[1], "--out", sys.argv[2]]) == 0
assert cli.main(["check", "--seed", "1"]) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_a_run_and_a_check_import_no_scipy(tmp_path):
    cfg = tmp_path / "thm2.cfg"
    cfg.write_text("upper.m = 3\nscenario.theorem = 2\nscenario.ell = 1\n"
                   "scenario.visibility = I\n")
    src = str(Path(filippov2d.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", GUARD, str(cfg), str(tmp_path / "out")],
        capture_output=True, text=True, check=True, env=env).stdout
    assert out.splitlines()[-1] == "[]"

