# The DOP853 stepper, its tableau and the brentq root finder below are
# ports of SciPy (scipy/integrate/_ivp: rk.py, base.py, common.py, ivp.py,
# dop853_coefficients.py; scipy/optimize: _zeros_py.py, Zeros/brentq.c),
# distributed under this license:
#
# Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
# All rights reserved.
#
# Redistribution and use in source and binary forms, with or without
# modification, are permitted provided that the following conditions
# are met:
#
# 1. Redistributions of source code must retain the above copyright
#    notice, this list of conditions and the following disclaimer.
#
# 2. Redistributions in binary form must reproduce the above
#    copyright notice, this list of conditions and the following
#    disclaimer in the documentation and/or other materials provided
#    with the distribution.
#
# 3. Neither the name of the copyright holder nor the names of its
#    contributors may be used to endorse or promote products derived
#    from this software without specific prior written permission.
#
# THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
# "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
# LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
# A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
# OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
# SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
# LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
# DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
# THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
# (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
# OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.

"""The stepper and the root finder: DOP853 and Brent's method.

``DOP853`` is the explicit Runge-Kutta 8(5,3) pair of Dormand and Prince
with its 7th-degree dense output (Hairer, Norsett & Wanner, Solving
Ordinary Differential Equations I, Sec. II), ``solve_ivp`` a fixed-step-
control integration over an interval on it, and ``brentq`` Brent's root
finder (Algorithms for Minimization without Derivatives, 1973, ch. 4).

Each follows SciPy's code path: the same tableau (SciPy's coefficient
lines, filling dicts keyed (row, column) and lists of Python floats),
initial step selection and step-size control, and Brent's method with the
same float operations and error messages, bit for bit. The stepper runs
on Python floats: one function per state dimension, generated from the
tableau on first use, sums the stages, the solution, the error estimates
and the dense output term by term in stage order. SciPy takes those sums
as BLAS reductions, whose rounding no fixed float order reproduces, so the
stepper is held to SciPy within named bounds instead
(tests/test_numerics.py): from the same (t, y, f, h) a step's state,
slope, error norm and dense coefficients lie within 16 ulp of each
value's rounding scale, the sum of its terms' magnitudes, and a whole run
ends within its own tolerance atol + rtol |y| of SciPy's. The error
estimates sum terms that cancel to about 1e-5 of their size, so a run's
step sizes differ from SciPy's by about 1e-6 relative. Only what this
package calls is ported: real states (of 1, 2 or 3 components here), no
``max_step``, events, ``t_eval``, extra arguments or vectorized
evaluation.

Every field this package integrates is autonomous, so the right-hand side
is called as ``fun(*y)``: the state's n components as separate floats, no
time and no list, returning the n slopes. Each stage line of the generated
step is one such call, ``k{s}_0, k{s}_1, = fun(y0 + (...) * h, y1 + (...)
* h)``, so a caller that hands over a field's own compiled function
(flow's forward transits) pays no wrapper per stage.
"""

from __future__ import annotations

import functools
import math
import sys
from typing import Dict, List, NamedTuple, Tuple

from .fieldexpr import generated_fn

# -- the DOP853 tableau, as in SciPy's dop853_coefficients -------------------
# SciPy's coefficient lines as they are: A and D hold the nonzero entries
# keyed (row, column), C, E3 and E5 are lists of floats

N_STAGES = 12
N_STAGES_EXTENDED = 16
INTERPOLATOR_POWER = 7

C = [0.0,
     0.526001519587677318785587544488e-01,
     0.789002279381515978178381316732e-01,
     0.118350341907227396726757197510,
     0.281649658092772603273242802490,
     0.333333333333333333333333333333,
     0.25,
     0.307692307692307692307692307692,
     0.651282051282051282051282051282,
     0.6,
     0.857142857142857142857142857142,
     1.0,
     1.0,
     0.1,
     0.2,
     0.777777777777777777777777777778]

A: Dict[Tuple[int, int], float] = {}
A[1, 0] = 5.26001519587677318785587544488e-2

A[2, 0] = 1.97250569845378994544595329183e-2
A[2, 1] = 5.91751709536136983633785987549e-2

A[3, 0] = 2.95875854768068491816892993775e-2
A[3, 2] = 8.87627564304205475450678981324e-2

A[4, 0] = 2.41365134159266685502369798665e-1
A[4, 2] = -8.84549479328286085344864962717e-1
A[4, 3] = 9.24834003261792003115737966543e-1

A[5, 0] = 3.7037037037037037037037037037e-2
A[5, 3] = 1.70828608729473871279604482173e-1
A[5, 4] = 1.25467687566822425016691814123e-1

A[6, 0] = 3.7109375e-2
A[6, 3] = 1.70252211019544039314978060272e-1
A[6, 4] = 6.02165389804559606850219397283e-2
A[6, 5] = -1.7578125e-2

A[7, 0] = 3.70920001185047927108779319836e-2
A[7, 3] = 1.70383925712239993810214054705e-1
A[7, 4] = 1.07262030446373284651809199168e-1
A[7, 5] = -1.53194377486244017527936158236e-2
A[7, 6] = 8.27378916381402288758473766002e-3

A[8, 0] = 6.24110958716075717114429577812e-1
A[8, 3] = -3.36089262944694129406857109825
A[8, 4] = -8.68219346841726006818189891453e-1
A[8, 5] = 2.75920996994467083049415600797e1
A[8, 6] = 2.01540675504778934086186788979e1
A[8, 7] = -4.34898841810699588477366255144e1

A[9, 0] = 4.77662536438264365890433908527e-1
A[9, 3] = -2.48811461997166764192642586468
A[9, 4] = -5.90290826836842996371446475743e-1
A[9, 5] = 2.12300514481811942347288949897e1
A[9, 6] = 1.52792336328824235832596922938e1
A[9, 7] = -3.32882109689848629194453265587e1
A[9, 8] = -2.03312017085086261358222928593e-2

A[10, 0] = -9.3714243008598732571704021658e-1
A[10, 3] = 5.18637242884406370830023853209
A[10, 4] = 1.09143734899672957818500254654
A[10, 5] = -8.14978701074692612513997267357
A[10, 6] = -1.85200656599969598641566180701e1
A[10, 7] = 2.27394870993505042818970056734e1
A[10, 8] = 2.49360555267965238987089396762
A[10, 9] = -3.0467644718982195003823669022

A[11, 0] = 2.27331014751653820792359768449
A[11, 3] = -1.05344954667372501984066689879e1
A[11, 4] = -2.00087205822486249909675718444
A[11, 5] = -1.79589318631187989172765950534e1
A[11, 6] = 2.79488845294199600508499808837e1
A[11, 7] = -2.85899827713502369474065508674
A[11, 8] = -8.87285693353062954433549289258
A[11, 9] = 1.23605671757943030647266201528e1
A[11, 10] = 6.43392746015763530355970484046e-1

A[12, 0] = 5.42937341165687622380535766363e-2
A[12, 5] = 4.45031289275240888144113950566
A[12, 6] = 1.89151789931450038304281599044
A[12, 7] = -5.8012039600105847814672114227
A[12, 8] = 3.1116436695781989440891606237e-1
A[12, 9] = -1.52160949662516078556178806805e-1
A[12, 10] = 2.01365400804030348374776537501e-1
A[12, 11] = 4.47106157277725905176885569043e-2

A[13, 0] = 5.61675022830479523392909219681e-2
A[13, 6] = 2.53500210216624811088794765333e-1
A[13, 7] = -2.46239037470802489917441475441e-1
A[13, 8] = -1.24191423263816360469010140626e-1
A[13, 9] = 1.5329179827876569731206322685e-1
A[13, 10] = 8.20105229563468988491666602057e-3
A[13, 11] = 7.56789766054569976138603589584e-3
A[13, 12] = -8.298e-3

A[14, 0] = 3.18346481635021405060768473261e-2
A[14, 5] = 2.83009096723667755288322961402e-2
A[14, 6] = 5.35419883074385676223797384372e-2
A[14, 7] = -5.49237485713909884646569340306e-2
A[14, 10] = -1.08347328697249322858509316994e-4
A[14, 11] = 3.82571090835658412954920192323e-4
A[14, 12] = -3.40465008687404560802977114492e-4
A[14, 13] = 1.41312443674632500278074618366e-1

A[15, 0] = -4.28896301583791923408573538692e-1
A[15, 5] = -4.69762141536116384314449447206
A[15, 6] = 7.68342119606259904184240953878
A[15, 7] = 4.06898981839711007970213554331
A[15, 8] = 3.56727187455281109270669543021e-1
A[15, 12] = -1.39902416515901462129418009734e-3
A[15, 13] = 2.9475147891527723389556272149
A[15, 14] = -9.15095847217987001081870187138


def _row(table: Dict[Tuple[int, int], float], i: int, n: int) -> List[float]:
    """Row i of a tableau matrix, its first n entries."""
    return [table.get((i, j), 0.0) for j in range(n)]


B = _row(A, N_STAGES, N_STAGES)

E3 = B + [0.0]
E3[0] -= 0.244094488188976377952755905512
E3[8] -= 0.733846688281611857341361741547
E3[11] -= 0.220588235294117647058823529412e-1

E5 = [0.0] * (N_STAGES + 1)
E5[0] = 0.1312004499419488073250102996e-1
E5[5] = -0.1225156446376204440720569753e+1
E5[6] = -0.4957589496572501915214079952
E5[7] = 0.1664377182454986536961530415e+1
E5[8] = -0.3503288487499736816886487290
E5[9] = 0.3341791187130174790297318841
E5[10] = 0.8192320648511571246570742613e-1
E5[11] = -0.2235530786388629525884427845e-1

# First 3 coefficients are computed separately.
D: Dict[Tuple[int, int], float] = {}
D[0, 0] = -0.84289382761090128651353491142e+1
D[0, 5] = 0.56671495351937776962531783590
D[0, 6] = -0.30689499459498916912797304727e+1
D[0, 7] = 0.23846676565120698287728149680e+1
D[0, 8] = 0.21170345824450282767155149946e+1
D[0, 9] = -0.87139158377797299206789907490
D[0, 10] = 0.22404374302607882758541771650e+1
D[0, 11] = 0.63157877876946881815570249290
D[0, 12] = -0.88990336451333310820698117400e-1
D[0, 13] = 0.18148505520854727256656404962e+2
D[0, 14] = -0.91946323924783554000451984436e+1
D[0, 15] = -0.44360363875948939664310572000e+1

D[1, 0] = 0.10427508642579134603413151009e+2
D[1, 5] = 0.24228349177525818288430175319e+3
D[1, 6] = 0.16520045171727028198505394887e+3
D[1, 7] = -0.37454675472269020279518312152e+3
D[1, 8] = -0.22113666853125306036270938578e+2
D[1, 9] = 0.77334326684722638389603898808e+1
D[1, 10] = -0.30674084731089398182061213626e+2
D[1, 11] = -0.93321305264302278729567221706e+1
D[1, 12] = 0.15697238121770843886131091075e+2
D[1, 13] = -0.31139403219565177677282850411e+2
D[1, 14] = -0.93529243588444783865713862664e+1
D[1, 15] = 0.35816841486394083752465898540e+2

D[2, 0] = 0.19985053242002433820987653617e+2
D[2, 5] = -0.38703730874935176555105901742e+3
D[2, 6] = -0.18917813819516756882830838328e+3
D[2, 7] = 0.52780815920542364900561016686e+3
D[2, 8] = -0.11573902539959630126141871134e+2
D[2, 9] = 0.68812326946963000169666922661e+1
D[2, 10] = -0.10006050966910838403183860980e+1
D[2, 11] = 0.77771377980534432092869265740
D[2, 12] = -0.27782057523535084065932004339e+1
D[2, 13] = -0.60196695231264120758267380846e+2
D[2, 14] = 0.84320405506677161018159903784e+2
D[2, 15] = 0.11992291136182789328035130030e+2

D[3, 0] = -0.25693933462703749003312586129e+2
D[3, 5] = -0.15418974869023643374053993627e+3
D[3, 6] = -0.23152937917604549567536039109e+3
D[3, 7] = 0.35763911791061412378285349910e+3
D[3, 8] = 0.93405324183624310003907691704e+2
D[3, 9] = -0.37458323136451633156875139351e+2
D[3, 10] = 0.10409964950896230045147246184e+3
D[3, 11] = 0.29840293426660503123344363579e+2
D[3, 12] = -0.43533456590011143754432175058e+2
D[3, 13] = 0.96324553959188282948394950600e+2
D[3, 14] = -0.39177261675615439165231486172e+2
D[3, 15] = -0.14972683625798562581422125276e+3

# -- the stepper --------------------------------------------------------------

SAFETY = 0.9       # multiplies the asymptotic step-size estimate
MIN_FACTOR = 0.2   # least decrease of the step size
MAX_FACTOR = 10    # largest increase of the step size
ERROR_EXPONENT = -1 / 8   # -1 / (error estimator order 7 + 1)
TOO_SMALL_STEP = "Required step size is less than spacing between numbers."


def _rms(xs) -> float:
    """The RMS norm, the squares summed in order."""
    total = 0.0
    for x in xs:
        total += x * x
    return math.sqrt(total) / len(xs) ** 0.5


def _initial_step(fun, t0, y0, t_bound, f0, direction, rtol, atol):
    """Hairer, Norsett & Wanner's starting step (Sec. II.4) for an error
    estimator of order 7."""
    interval_length = abs(t_bound - t0)
    if interval_length == 0.0:
        return 0.0

    scale = [atol + abs(y) * rtol for y in y0]
    d0 = _rms([y / s for y, s in zip(y0, scale)])
    d1 = _rms([f / s for f, s in zip(f0, scale)])
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval_length)   # not beyond t_bound
    y1 = [y + h0 * direction * f for y, f in zip(y0, f0)]
    f1 = fun(y1)
    d2 = _rms([(b - a) / s for a, b, s in zip(f0, f1, scale)]) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, interval_length)


@functools.cache
def _generated(n: int, dense: bool = False):
    """DOP853's step function for states of n components, or with dense
    its dense function (built at a stepper's first dense_output()), with
    every tableau sum unrolled into float arithmetic (zero entries
    skipped, terms in stage order); built by fieldexpr.generated_fn.

    Each stage is one call ``fun(y0 + (...) * h, y1 + (...) * h, ...)``
    of the autonomous field, unpacked into its n slopes.
    ``step(fun, y, f, h, rtol, atol)`` returns the new state, its slope,
    the error norm and the 13 stage slopes k{s}_{i}, flat;
    ``dense(fun, y_old, y, h, K)`` the rows of F, 7 a component.
    """
    comps = range(n)

    def ks(s):   # unpacking targets of stage s
        return "".join(f"k{s}_{i}, " for i in comps)

    def dot(i, coefs):   # sum over j of k{j}_{i} * coefs[j]
        return " + ".join(f"k{j}_{i} * {a!r}"
                          for j, a in enumerate(coefs) if a)

    def stage(s):   # stage s from the state y{i}
        state = ", ".join(f"y{i} + ({dot(i, _row(A, s, s))}) * h"
                          for i in comps)
        return f"{ks(s)}= fun({state})\n"

    def sq(v):   # numpy's norm squared: sqrt(x.dot(x)) ** 2
        return f"sqrt({' + '.join(f'{v}{i} * {v}{i}' for i in comps)}) ** 2"

    ys, zs = ("".join(f"{v}{i}, " for i in comps) for v in "yz")
    slopes = "".join(ks(s) for s in range(N_STAGES + 1))
    names = {"sqrt": math.sqrt}
    if dense:
        rows = ", ".join(
            f"[q{i}, h * k0_{i} - q{i}, 2 * q{i} - h * (k12_{i} + k0_{i}), "
            + ", ".join(f"h * ({dot(i, _row(D, r, N_STAGES_EXTENDED))})"
                        for r in range(INTERPOLATOR_POWER - 3)) + "]"
            for i in comps)
        return generated_fn("fun, y, z, h, K", "".join([
            f"{ys}= y\n", f"{zs}= z\n", f"{slopes}= K\n",
            *(stage(s) for s in range(N_STAGES + 1, N_STAGES_EXTENDED)),
            *(f"q{i} = z{i} - y{i}\n" for i in comps)]), f"[{rows}]", names)
    step = "".join([
        f"{ys}= y\n", f"{ks(0)}= f\n",
        *(stage(s) for s in range(1, N_STAGES)),
        *(f"z{i} = y{i} + h * ({dot(i, B)})\n" for i in comps),
        f"{ks(N_STAGES)}= fun({zs})\n",
        # max(|z|, |y|) is NaN where z is, as SciPy's np.maximum is
        *(f"s{i} = atol + max(abs(z{i}), abs(y{i})) * rtol\n" for i in comps),
        *(f"e{i} = ({dot(i, E5)}) / s{i}\n" for i in comps),
        *(f"d{i} = ({dot(i, E3)}) / s{i}\n" for i in comps),
        f"e = {sq('e')}\n", f"d = {sq('d')}\n",
        f"err = abs(h) * e / sqrt((e + 0.01 * d) * {n}) if e or d else 0.0\n"])
    return generated_fn("fun, y, f, h, rtol, atol", step,
                        f"[{zs}], [{ks(N_STAGES)}], err, ({slopes})", names)


class DenseOutput:
    """A step's interpolant: y(t) from the coefficients F (a list of 7
    per state component), nested in tau = (t - t_old) / h and 1 - tau,
    plus y_old."""

    def __init__(self, t_old, t, y_old, F):
        self.t_old, self.t, self.h = t_old, t, t - t_old
        self.y_old, self.F = y_old, F

    def __call__(self, t) -> List[float]:
        x = (t - self.t_old) / self.h
        out = []
        for rows, y_old in zip(self.F, self.y_old):
            y = 0.0
            for i, f in enumerate(reversed(rows)):
                y += f
                y *= x if i % 2 == 0 else 1 - x
            out.append(y + y_old)
        return out


class DOP853:
    """Explicit Runge-Kutta 8(5,3) stepper from (t0, y0) toward t_bound.

    ``step()`` makes one accepted step and returns None, or on a step
    smaller than the spacing of floats near t sets ``status`` to 'failed'
    and returns ``TOO_SMALL_STEP``. ``status`` is 'running' until t reaches
    t_bound ('finished'). ``t``, ``y`` and ``f`` are the state and slope at
    the step's end (lists of floats), ``t_old`` its start, ``nfev`` the
    right-hand side evaluations so far; ``dense_output()`` interpolates
    the last step. The field is autonomous: ``fun(*y)`` receives the
    state's components as floats and returns the slope's as many. Each
    step is SciPy's within 16 ulp of each value's rounding scale (module
    docstring).
    """

    def __init__(self, fun, t0, y0, t_bound, rtol, atol, first_step=None):
        y0 = [float(v) for v in y0]
        if not all(map(math.isfinite, y0)):
            raise ValueError(
                "All components of the initial state `y0` must be finite.")
        self._fun = fun
        self._rk_step = _generated(len(y0))
        self.nfev = 0
        self.t_old, self.t, self.y, self.y_old = None, t0, y0, None
        self.t_bound, self.rtol, self.atol = t_bound, rtol, atol
        self.direction = -1.0 if t_bound < t0 else 1.0
        self.status = "running"
        self.f = self.fun(y0)
        if first_step is None:
            self.h_abs = _initial_step(self.fun, self.t, self.y, t_bound,
                                       self.f, self.direction, rtol, atol)
        else:
            self.h_abs = first_step
        self.h_previous = None
        self._K = None   # the stage slopes of the last step, for its dense

    def fun(self, y) -> List[float]:
        self.nfev += 1
        return [float(v) for v in self._fun(*y)]

    def step(self):
        if self.status != "running":
            raise RuntimeError("Attempt to step on a failed or finished "
                               "solver.")
        t, y, direction = self.t, self.y, self.direction
        if t == self.t_bound:   # no integration
            self.t_old, self.t, self.status = t, self.t_bound, "finished"
            return None
        min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
        h_abs = min_step if self.h_abs < min_step else self.h_abs
        step_rejected = False
        while True:
            if h_abs < min_step:
                self.status = "failed"
                return TOO_SMALL_STEP
            h = h_abs * direction
            t_new = t + h
            if direction * (t_new - self.t_bound) > 0:
                t_new = self.t_bound
            h = t_new - t
            h_abs = abs(h)
            y_new, f_new, error_norm, K = self._rk_step(
                self._fun, y, self.f, h, self.rtol, self.atol)
            self.nfev += N_STAGES
            if error_norm < 1:
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
            step_rejected = True
        factor = MAX_FACTOR if error_norm == 0 else min(
            MAX_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
        if step_rejected:
            factor = min(1, factor)
        self.h_previous, self.y_old, self.t, self.y = h, y, t_new, y_new
        self.h_abs, self.f, self._K = h_abs * factor, f_new, K
        self.t_old = t
        if direction * (t_new - self.t_bound) >= 0:
            self.status = "finished"
        return None

    def dense_output(self) -> DenseOutput:
        """The interpolant of the last step (one that moved t)."""
        F = _generated(len(self.y), True)(self._fun, self.y_old, self.y,
                                          self.h_previous, self._K)
        self.nfev += N_STAGES_EXTENDED - N_STAGES - 1   # stages 13..15
        return DenseOutput(self.t_old, self.t, self.y_old, F)


class IvpResult(NamedTuple):
    t: List[float]         # accepted step ends, t_span[0] first
    y: List[List[float]]   # one list per state component: its values at t
    nfev: int


def solve_ivp(fun, t_span, y0, rtol, atol) -> IvpResult:
    """Integrate dy/dt = fun(*y) from y0 over t_span on DOP853 with steps
    of its own choosing; a step that fails ends the run where it stands."""
    t0, tf = map(float, t_span)
    solver = DOP853(fun, t0, y0, tf, rtol=rtol, atol=atol)
    ts, ys = [t0], [solver.y]
    while solver.status == "running":
        solver.step()
        if solver.status == "failed":
            break
        ts.append(solver.t)
        ys.append(solver.y)
    return IvpResult(ts, [list(c) for c in zip(*ys)], solver.nfev)


# -- the root finder ----------------------------------------------------------

_RTOL_MIN = 4 * sys.float_info.epsilon


def brentq(f, a, b, xtol, rtol, maxiter=100, disp=True) -> float:
    """A zero of f in [a, b], where f(a) and f(b) differ in sign, within
    xtol + rtol * |x|: Brent's method, a line-by-line port of SciPy's C.

    Returns a point it evaluated. Raises ValueError when f(a) and f(b)
    have one sign or f is NaN, and RuntimeError when maxiter iterations
    do not converge, unless disp is False (then the last point returns).
    """
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < _RTOL_MIN:
        raise ValueError(f"rtol too small ({rtol:g} < {_RTOL_MIN:g})")

    def value(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; "
                             "solver cannot continue.")
        return fx

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = value(xpre)
    fcur = value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    # C's signbit: neither value is zero or NaN here, nor in the loop's test
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk = xpre
            fblk = fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre = xcur
            xcur = xblk
            xblk = xpre

            fpre = fcur
            fcur = fblk
            fblk = fpre

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate; a denominator that underflows to 0 makes
                # C's step inf or NaN, which bisects below
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)
                stry = (-fcur * (fblk * dblk - fpre * dpre) / den if den
                        else math.inf)
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre = scur
                scur = stry
            else:
                # bisect
                spre = sbis
                scur = sbis
        else:
            # bisect
            spre = sbis
            scur = sbis

        xpre = xcur
        fpre = fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += (delta if sbis > 0 else -delta)

        fcur = value(xcur)
    if disp:
        raise RuntimeError(f"Failed to converge after {maxiter} iterations.")
    return xcur
