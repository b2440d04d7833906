"""Loop assembly and the scenario censuses built on it."""

import ast
import inspect
import re
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.optimize
from scipy.integrate import solve_ivp

import filippov2d
from filippov2d import (CensusMismatch, PsiSpec, PwsSystem, RangeError,
                        ScalarField, StepUnderflow, UnfoldingSpec,
                        VerificationFailed, build_transition, build_unfolded,
                        canonical_base, canonical_critical_loop,
                        displacement_sigma, integrate_smooth, loops, numerics,
                        scenario_thm2, scenario_thm3, scenario_thm4,
                        scenario_thm5, thm2_base)
from filippov2d.loops import CLOSURE_TOL, _negative_cluster, _pinned_knots


def _hex_fingerprint(rec):
    """Switching abscissae and closure residual as exact float.hex."""
    return ([x.hex() for x, _ in rec.switching_points],
            rec.closure_residual.hex())


def test_loops_fails_in_three_classes():
    # a refusal, a failed certificate or stage, a broken relation
    defined = {obj for obj in vars(loops).values()
               if isinstance(obj, type) and issubclass(obj, BaseException)
               and obj.__module__ == loops.__name__}
    assert defined == {RangeError, VerificationFailed, CensusMismatch}
    assert not {"HarvestFailure", "RootNotBracketed", "NotClosed",
                "TangentOrbitCensus",
                "NormalFormMeta"} & set(filippov2d.__all__)


def test_root_of_a_smooth_gap_is_brentqs_root():
    def f(x):
        if x == 1.0:
            raise StepUnderflow("a point whose transit fails is skipped")
        return x ** 3 - 2.0 * x - 5.0
    xs = np.linspace(0.0, 4.0, 9)   # first sign change in (2, 2.5)
    root = loops._root("cubic", f, loops._evaluable(f, xs))
    assert root == scipy.optimize.brentq(f, 2.0, 2.5, xtol=1e-13, rtol=4e-15)


def test_sign_change_without_a_zero_is_no_root():
    def step(x):
        return 1.0 if x < 0.3 else -1.0
    with pytest.raises(VerificationFailed, match=re.escape(
            "jump: the sign change in (0, 1) holds no zero")):
        loops._root("jump", step, [(0.0, 1.0), (1.0, -1.0)])


def test_no_sign_change_is_no_root():
    def f(x):
        return x * x + 1.0
    with pytest.raises(VerificationFailed, match=re.escape(
            "parabola: no sign change over 5 points in [-1, 1]")):
        loops._root("parabola", f,
                    loops._evaluable(f, np.linspace(-1.0, 1.0, 5)))


@pytest.fixture(scope="module")
def scan_grid_calls():
    """(a, b, n, caller) of every _linspace and _geomspace call of thm4
    (3,3) ell=0 and thm5 (3,3) ell=1: _displacement_root's, _exit_span's
    and thm5's cycle scan, with the flank dips' and tails' geometric
    grids."""
    calls = {"_linspace": [], "_geomspace": []}
    with pytest.MonkeyPatch.context() as mp:
        for name, seen in calls.items():
            def recorded(a, b, n, grid=getattr(loops, name), seen=seen):
                seen.append((a, b, n, sys._getframe(1).f_code.co_name))
                return grid(a, b, n)
            mp.setattr(loops, name, recorded)
        scenario_thm4(canonical_base(3, 3), 0)
        scenario_thm5(canonical_base(3, 3), 1)
    return calls


def test_linspace_is_numpys_bit_for_bit(scan_grid_calls):
    calls = scan_grid_calls["_linspace"]
    assert {f for *_, f in calls} >= {"_displacement_root", "_exit_span",
                                      "scenario_thm5"}
    rng = np.random.default_rng(25)
    scale = 10.0 ** rng.integers(-8, 8, size=(2000, 2))
    ab = rng.uniform(-1.0, 1.0, size=(2000, 2)) * scale
    cases = [(a, b, n, "") for (a, b), n
             in zip(ab.tolist(), rng.integers(2, 200, 2000).tolist())]
    for a, b, n, _ in calls + cases:
        assert [v.hex() for v in loops._linspace(a, b, n)] \
            == [v.hex() for v in np.linspace(a, b, n).tolist()], (a, b, n)


def test_geomspace_is_numpys_within_1e_13(scan_grid_calls):
    # not bit for bit: numpy's log10 and power take SIMD paths on some
    # CPUs that round differently from libm (loops._geomspace)
    calls = scan_grid_calls["_geomspace"]
    assert {f for *_, f in calls} >= {"_displacement_root", "_flank_dip",
                                      "scenario_thm5"}
    rng = np.random.default_rng(26)
    ab = 10.0 ** rng.uniform(-12.0, 12.0, size=(500, 2))
    cases = [(a, b, n, "") for (a, b), n
             in zip(ab.tolist(), rng.integers(2, 200, 500).tolist())]
    for a, b, n, _ in calls + cases:
        ours = loops._geomspace(a, b, n)
        assert len(ours) == n and (ours[0], ours[-1]) == (a, b)
        steps = np.diff(ours) * np.sign(b - a)
        assert (steps > 0.0).all(), (a, b, n)
        assert np.allclose(ours, np.geomspace(a, b, n), rtol=1e-13,
                           atol=0.0), (a, b, n)


def test_loops_polishes_through_one_brentq_call():
    # perfbench counts polish evaluations by wrapping loops.brentq
    assert len(re.findall(r"\bbrentq\(", inspect.getsource(loops))) == 1
    assert loops.brentq is numerics.brentq


def test_no_displacement_is_evaluated_twice(monkeypatch):
    # thm4 (5,5) ell=1's scan and its brentq polish: the closed form
    # screens every scan point, so only the bracket's two ends fly before
    # brentq, which reads them back, and then its own iterates
    flown = []   # (system, x), holding each system so no id is reused
    displacement = loops.displacement_sigma

    def recorded(sys, x):
        flown.append((sys, x))
        return displacement(sys, x)
    monkeypatch.setattr(loops, "displacement_sigma", recorded)
    brackets, iterates = [], []
    brentq = loops.brentq

    def counted(f, a, b, **kwargs):
        brackets.append((a, b))

        def read(x):
            iterates.append(x)
            return f(x)
        return brentq(read, a, b, **kwargs)
    monkeypatch.setattr(loops, "brentq", counted)
    census = scenario_thm4(canonical_base(5, 5), 1)
    assert (census.beta_cro.get(1, 0), census.beta_cri.get(1, 0)) == (1, 2)
    keys = [(id(sys), x) for sys, x in flown]
    assert len(set(keys)) == len(keys) == 11
    assert len(brackets) == 1
    assert {x for _, x in flown} <= {*brackets[0], *iterates}


def _once_each(points):
    """points, the gap's evaluations then the witness's read of its root:
    no point twice, the root one of them, and a polish among them."""
    *gaps, root = points
    assert len(set(gaps)) == len(gaps) > 4
    assert root in gaps


def test_thm3_lower_shear_evaluates_each_gap_point_once(monkeypatch):
    # (5,5) critical ell=2: each landing gap builds the unfolding of its
    # shear height, and the certified system is built once more at the root
    shears = _recorded(monkeypatch, "_plateau_psi")
    scenario_thm3(canonical_base(5, 5), 2, "critical")
    _once_each([args[0] for args in shears])


def test_thm5_sliding_exit_evaluates_each_gap_point_once(monkeypatch):
    # (3,3) ell=0, two sliding loops: inside each witness, every lower
    # transit but the closing leg (the last) is a landing gap's
    exits, sliding_witness = [], loops._sliding_witness
    integrate_smooth = loops.integrate_smooth

    def scoped(*args, **kwargs):
        starts = []

        def recording(sys, side, start, **transit):
            if side == "lower":
                starts.append(start[0])
            return integrate_smooth(sys, side, start, **transit)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(loops, "integrate_smooth", recording)
            witness = sliding_witness(*args, **kwargs)
        exits.append(starts)
        return witness
    monkeypatch.setattr(loops, "_sliding_witness", scoped)
    scenario_thm5(canonical_base(3, 3), 0)
    assert len(exits) == 2
    for starts in exits:
        _once_each(starts)


def test_every_polished_gap_is_read_through_one_memo():
    # _root keeps no cache of its own: each gap it polishes is a _once
    # memo, which the scan reads too, and the screen has no float tag
    tree = ast.parse(inspect.getsource(loops))
    root = next(node for node in tree.body
                if getattr(node, "name", None) == "_root")
    assert not [node for stmt in root.body for node in ast.walk(stmt)
                if isinstance(node, (ast.FunctionDef, ast.Lambda, ast.Dict,
                                     ast.DictComp))]
    memos = {node.name for node in ast.walk(tree)
             if isinstance(node, ast.FunctionDef)
             and "_once" in map(ast.unparse, node.decorator_list)}
    assert memos == {"gap", "land_gap", "num"}
    polished = {ast.unparse(node.args[1]) for node in ast.walk(tree)
                if isinstance(node, ast.Call)
                and ast.unparse(node.func) == "_root"}
    assert polished == memos | {"disp"}
    assert "return _once(" in inspect.getsource(loops._displacement)
    for path in Path(loops.__file__).parent.glob("*.py"):
        assert not re.search(r"\b_(Screened|flown)\b", path.read_text()), \
            path.name


@pytest.mark.parametrize("m", [1, 3, 5])
def test_canonical_loop_is_critical_with_one_contact(m):
    # m = 3: one accepted step holds both zeros of g+ (the hill top and the
    # contact at the origin), with g+ of one sign at its ends
    _, rec = canonical_critical_loop(m, m)
    assert rec.kind == "critical"
    assert rec.tangent_touch_count == 1
    assert rec.closure_residual <= CLOSURE_TOL


def test_canonical_family_has_one_shape():
    # the base is fixed: crossing at -1, both hills x^(m+1) (x + 1); only
    # canonical_base takes a window, thm2_base builds its own from m, delta
    builders = (canonical_base, canonical_critical_loop, thm2_base,
                scenario_thm2, scenario_thm3, scenario_thm4, scenario_thm5)
    params = {fn.__name__: set(inspect.signature(fn).parameters)
              for fn in builders}
    assert [n for n, p in params.items() if p & {"a", "k1", "k2"}] == []
    assert [n for n, p in params.items() if "window" in p] == \
        ["canonical_base"]


@pytest.mark.parametrize("m, visibility, ell", [
    (3, "I", 1), (5, "I", 2), (7, "V", 1), (7, "V", 2), (7, "V", 4)])
def test_thm2_tangent_orbits_follow_the_paper_count(m, visibility, ell):
    census = scenario_thm2(m, visibility, ell)
    offset = 1 if visibility == "V" else -1
    assert census.tangent_orbits == {ell: (m + offset) // (2 * ell)}
    assert (census.scenario, census.m_plus, census.m_minus, census.ell) == \
        ("thm2", m, 0, ell)
    assert len(census.orbits) == census.tangent_orbits[ell]


def test_thm2_census_off_the_paper_count_is_a_mismatch(monkeypatch):
    # with its grazes dropped, each orbit of (5, I, 2) meets one split point
    integrate_smooth = loops.integrate_smooth

    def no_touches(*args, **kwargs):
        run = integrate_smooth(*args, **kwargs)
        return run._replace(events=[run.terminal])
    monkeypatch.setattr(loops, "integrate_smooth", no_touches)
    with pytest.raises(CensusMismatch, match=re.escape(
            "tangent orbit count 0 differs from 1")):
        scenario_thm2(5, "I", 2)


def test_thm3_critical_loop_with_two_contacts():
    census = scenario_thm3(canonical_base(5, 5), 2, "critical")
    assert census.beta_cri == {2: 1} and census.beta_cro == {}
    [(tag, rec)] = census.witnesses
    assert tag == "critical_l2"
    assert rec.kind == "critical"
    assert rec.tangent_touch_count == 2
    assert _hex_fingerprint(rec) == (
        ["-0x1.eb851eb851eb8p-3", "-0x1.feb9037202ff0p-1"],
        "0x1.8000000000000p-51")


def test_thm3_jump_of_the_landing_gap_is_no_lower_shear(monkeypatch):
    # thm3 (7,7) critical ell=2: the landing gap changes sign across a jump
    # between two shear heights; no witness leg may be integrated on it
    upper_legs = []
    integrate_smooth = loops.integrate_smooth

    def recording(sys, side, start, **kwargs):
        if side == "upper":
            upper_legs.append(kwargs.get("time_sign", 1.0))
        return integrate_smooth(sys, side, start, **kwargs)
    monkeypatch.setattr(loops, "integrate_smooth", recording)
    with pytest.raises(VerificationFailed) as err:
        scenario_thm3(canonical_base(7, 7), 2, "critical")
    stage, a, b, root, residual = re.fullmatch(
        r"(.+): the sign change in \((\S+), (\S+)\) holds no zero: "
        r"the gap at (\S+) is (\S+)", str(err.value)).groups()
    assert stage == "lower shear"
    assert float(a) == pytest.approx(0.002007, abs=1e-6)
    assert float(b) == pytest.approx(0.004014, abs=1e-6)
    assert float(a) < float(root) < float(b)
    assert float(residual) == pytest.approx(-1.37e-3, abs=1e-5)
    assert upper_legs == [-1.0]   # only the backward leg that finds p+


def test_thm4_census_and_witness_closure():
    census = scenario_thm4(canonical_base(5, 5), 2)
    assert census.beta_cri == {1: 3}
    assert census.beta_cro == {}
    assert census.witnesses
    for _, rec in census.witnesses:
        assert rec.closure_residual <= CLOSURE_TOL
    assert {tag: _hex_fingerprint(rec) for tag, rec in census.witnesses} == {
        "critical@x=-0.5": (["-0x1.fbcc15d16a06ep-1", "-0x1.0000000000000p-1"],
                            "0x0.0p+0"),
        "critical@x=-0.3": (["-0x1.ffbce87db470dp-1", "-0x1.3333333333334p-2"],
                            "0x0.0p+0"),
        "critical@x=-0.1": (["-0x1.ffffe1cd0461dp-1", "-0x1.999999999999ap-4"],
                            "0x0.0p+0"),
    }


# The passing thm2-thm5 rows of the scenario matrix at default delta and
# their censuses. thm2 (m, visibility, ell): tangent_orbits; thm3 (m, ell,
# kind): the loop's kind and contacts; thm4 (m, ell): (beta_cro[1],
# beta_cri[1]); thm5 (m, ell): (beta_s, beta_c, len(dropped_cycles)). For
# thm3-thm5, m is the base's (m+, m-), or one int when they are equal.
# thm3 at m = 7 and thm4 (7, 7) ell=0 fail and stay out; the (5, 3) and
# (3, 5) rows are every ell each of those bases takes.
_CENSUS_ROWS = [
    ("thm2", (3, "I", 1), {1: 1}),
    ("thm2", (3, "V", 1), {1: 2}),
    ("thm2", (3, "V", 2), {2: 1}),
    ("thm2", (5, "I", 1), {1: 2}),
    ("thm2", (5, "I", 2), {2: 1}),
    ("thm2", (5, "V", 1), {1: 3}),
    ("thm2", (5, "V", 2), {1: 1, 2: 1}),
    ("thm2", (5, "V", 3), {3: 1}),
    ("thm2", (7, "I", 1), {1: 3}),
    ("thm2", (7, "I", 2), {1: 1, 2: 1}),
    ("thm2", (7, "I", 3), {3: 1}),
    ("thm2", (7, "V", 1), {1: 4}),
    ("thm2", (7, "V", 2), {2: 2}),
    ("thm2", (7, "V", 3), {1: 1, 3: 1}),
    ("thm2", (7, "V", 4), {4: 1}),
    ("thm3", (3, 1, "critical"), ("critical", 1)),
    ("thm3", (3, 2, "critical"), ("critical", 2)),
    ("thm3", (3, 1, "crossing"), ("crossing-nonsliding", 1)),
    ("thm3", (5, 1, "critical"), ("critical", 1)),
    ("thm3", (5, 2, "critical"), ("critical", 2)),
    ("thm3", (5, 3, "critical"), ("critical", 3)),
    ("thm3", (5, 1, "crossing"), ("crossing-nonsliding", 1)),
    ("thm3", (5, 2, "crossing"), ("crossing-nonsliding", 2)),
    ("thm3", ((5, 3), 1, "critical"), ("critical", 1)),
    ("thm3", ((5, 3), 2, "critical"), ("critical", 2)),
    ("thm3", ((5, 3), 3, "critical"), ("critical", 3)),
    ("thm3", ((5, 3), 1, "crossing"), ("crossing-nonsliding", 1)),
    ("thm3", ((5, 3), 2, "crossing"), ("crossing-nonsliding", 2)),
    ("thm3", ((3, 5), 1, "critical"), ("critical", 1)),
    ("thm3", ((3, 5), 2, "critical"), ("critical", 2)),
    ("thm3", ((3, 5), 1, "crossing"), ("crossing-nonsliding", 1)),
    ("thm4", (3, 0), (1, 1)),
    ("thm4", (3, 1), (0, 2)),
    ("thm4", (5, 0), (2, 1)),
    ("thm4", (5, 1), (1, 2)),
    ("thm4", (5, 2), (0, 3)),
    ("thm4", (7, 1), (2, 2)),
    ("thm4", (7, 2), (1, 3)),
    ("thm4", (7, 3), (0, 4)),
    ("thm4", ((5, 3), 0), (2, 1)),
    ("thm4", ((5, 3), 1), (1, 2)),
    ("thm4", ((5, 3), 2), (0, 3)),
    ("thm4", ((3, 5), 0), (1, 1)),
    ("thm4", ((3, 5), 1), (0, 2)),
    ("thm5", (3, 0), (2, 2, 0)),
    ("thm5", (3, 1), (1, 3, 0)),
    ("thm5", (3, 2), (0, 4, 0)),
    ("thm5", (5, 0), (3, 3, 0)),
    ("thm5", (5, 1), (2, 4, 0)),
    # a crossing cycle whose witness misses closure by 1.1e-8 is dropped
    ("thm5", (5, 2), (1, 4, 1)),
    ("thm5", (5, 3), (0, 6, 0)),
    ("thm5", (7, 1), (3, 5, 0)),
    ("thm5", (7, 3), (1, 7, 0)),
    ("thm5", (7, 4), (0, 8, 0)),
    ("thm5", ((5, 3), 0), (3, 2, 0)),
    ("thm5", ((5, 3), 1), (2, 3, 0)),
    ("thm5", ((5, 3), 2), (1, 4, 0)),
    ("thm5", ((5, 3), 3), (0, 5, 0)),
    ("thm5", ((3, 5), 0), (2, 2, 0)),
    ("thm5", ((3, 5), 1), (1, 3, 0)),
    ("thm5", ((3, 5), 2), (0, 4, 0)),
]


@pytest.mark.parametrize("theorem, args, want", _CENSUS_ROWS,
                         ids=[f"{t}-{a}" for t, a, _ in _CENSUS_ROWS])
def test_scenario_matrix_rows_keep_their_census(theorem, args, want):
    ms = args[0] if isinstance(args[0], tuple) else (args[0], args[0])
    if theorem == "thm2":
        got = scenario_thm2(*args).tangent_orbits
    elif theorem == "thm3":
        _, ell, kind = args
        [(_, rec)] = scenario_thm3(canonical_base(*ms), ell, kind).witnesses
        got = (rec.kind, rec.tangent_touch_count)
    elif theorem == "thm4":
        census = scenario_thm4(canonical_base(*ms), args[1])
        got = (census.beta_cro.get(1, 0), census.beta_cri.get(1, 0))
    else:
        census = scenario_thm5(canonical_base(*ms), args[1])
        got = (census.beta_s, census.beta_c, len(census.dropped_cycles))
    assert got == want


def test_grazes_decides_alike_on_expression_and_sheared_g():
    # an expression g: the (3,3) canonical base split at the negative
    # cluster; a sheared g: the thm4 (5,5) ell=1 unfolding
    lam = _negative_cluster(3, 0.1)
    plain = build_transition(UnfoldingSpec(canonical_base(3, 3), lam,
                                           (0.0,) * 3))
    spec = scenario_thm4(canonical_base(5, 5), 1).spec
    sheared = build_unfolded(spec)
    assert isinstance(plain.g_plus, ScalarField)
    assert not isinstance(sheared.g_plus, ScalarField)
    for system, zeros in ((plain, lam), (sheared, spec.lambda_plus)):
        for zero in zeros:
            for sign in (-1.0, 1.0):
                assert loops._grazes(system, "upper", zero + sign * 1e-9)
                assert not loops._grazes(system, "upper", zero + sign * 1e-4)


def _upper_g(g: str) -> PwsSystem:
    """A system whose upper g is g, on the window [-1, 1]^2."""
    return PwsSystem.from_strings("1", g, "1", "-1",
                                  filippov2d.Window(-1.0, 1.0, -1.0, 1.0))


def test_grazes_reads_the_x_distance_not_the_size_of_g():
    # a crossing of g = k (x - 0.3): inside _CONTACT_TOL in x it grazes,
    # outside it does not, however steep or shallow g is
    for k in (50.0, 0.02):
        system = _upper_g(f"{k!r} * (x - 0.3)")
        assert loops._grazes(system, "upper", 0.3 + 0.5 * loops._CONTACT_TOL)
        assert not loops._grazes(system, "upper",
                                 0.3 + 2.0 * loops._CONTACT_TOL)


def test_grazes_rejects_a_dip_that_misses_zero():
    # g_x vanishes at the bottom of both dips; only the one that touches
    # zero grazes there
    assert loops._grazes(_upper_g("x^2"), "upper", 0.0)
    assert not loops._grazes(_upper_g("x^2 + 1e-6"), "upper", 0.0)


def test_pin_data_checks_both_orbit_heights(monkeypatch):
    # one pin per given peak: its tangency, landing and upper orbit height;
    # a pin past the first peak lam[0] must pass positively over it too
    lam = (-0.5, -0.4, -0.3)
    sections, heights = [], []
    monkeypatch.setattr(loops, "integrate_smooth", lambda *a, **k: None)
    monkeypatch.setattr(loops, "_landed", lambda traj: 0.7)

    def flow_to_section(hat, p, x):
        sections.append(x)
        return SimpleNamespace(y=heights.pop(0))

    monkeypatch.setattr(loops, "_flow_to_section", flow_to_section)
    heights[:] = [0.2, 0.1, 0.3]
    pins = loops._pin_data(None, lam[::2], lam[0])
    assert sections == [-0.5, -0.3, -0.5]
    assert [(p.tp, p.conj, p.height) for p in pins] == [
        (-0.5, 0.7, 0.2), (-0.3, 0.7, 0.1)]
    # only the peaks given are pinned
    sections[:], heights[:] = [], [0.1, 0.3]
    assert [p.tp for p in loops._pin_data(None, lam[2:], lam[0])] == [-0.3]
    assert sections == [-0.3, -0.5]
    # a height at pin 1, a height at pin 2, an anchor at pin 2
    for bad, x in (([0.0], -0.5), ([0.2, -1e-9, 0.3], -0.3),
                   ([0.2, 0.1, -1e-9], -0.5)):
        heights[:] = list(bad)
        with pytest.raises(VerificationFailed, match=re.escape(
                f"pin from (0.7, 0.000e+00) over x={x:g}: height "
                f"{min(bad):.3e} is not positive")):
            loops._pin_data(None, lam[::2], lam[0])


def test_thm4_repin_refuses_a_height_that_is_not_positive(monkeypatch):
    # thm4 (5,5) ell=0 re-pins bump 2 to the orbit of the cycle found right
    # of it; that one section transit is made to come back below Sigma
    flow_to_section = loops._flow_to_section
    displacement_root = loops._displacement_root
    roots = []

    def root_found(*args):
        roots.append(displacement_root(*args))
        return roots[-1]

    def sinking_repin(hat, start, x):
        hit = flow_to_section(hat, start, x)
        return hit._replace(y=-1e-9) if roots else hit
    monkeypatch.setattr(loops, "_displacement_root", root_found)
    monkeypatch.setattr(loops, "_flow_to_section", sinking_repin)
    with pytest.raises(VerificationFailed, match=(
            r"^pin from \(-0\.\d+, 0\.000e\+00\) over x=-0\.3: "
            r"height -1\.000e-09 is not positive$")):
        scenario_thm4(canonical_base(5, 5), 0)
    assert len(roots) == 1


def _ending(run, kind):
    """run with its terminal event turned into one of the given kind."""
    return run._replace(events=run.events[:-1] + [
        run.terminal._replace(kind=kind)])


def _recorded(monkeypatch, name):
    """Record the arguments of every call of loops.<name>."""
    calls = []
    fn = getattr(loops, name)

    def recording(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)
    monkeypatch.setattr(loops, name, recording)
    return calls


def test_thm2_walks_each_orbit_once(monkeypatch):
    # (7, V, 4): one orbit grazes all four visible points; walked forward
    # and backward from the first, and from no point it touches
    transits = _recorded(monkeypatch, "integrate_smooth")
    census = scenario_thm2(7, "V", 4)
    assert census.tangent_orbits == {4: 1}
    assert [(args[1], args[2]) for args in transits] == [
        ("upper", (0.4, 0.0))] * 2


def test_thm4_pins_only_the_bumps_it_keeps(monkeypatch):
    # (5,5) ell=0 keeps bump 3's own pin (its height and its anchor over
    # the first peak) and re-pins bumps 2 and 1 to their crossing cycles
    sections = _recorded(monkeypatch, "_flow_to_section")
    scenario_thm4(canonical_base(5, 5), 0)
    assert [round(args[2], 9) for args in sections] == \
        [-0.1, -0.5, -0.3, -0.5]


@pytest.mark.parametrize("ell, peaks", [(0, []), (1, [-0.1])])
def test_thm5_flies_only_the_flank_dips_it_reads(monkeypatch, ell, peaks):
    # (3,3): a raised bump reads no dip; a lowered one gives up a share of
    # its own, so ell=1 flies bump 2's alone
    dips = _recorded(monkeypatch, "_flank_dip")
    scenario_thm5(canonical_base(3, 3), ell)
    assert [round(args[2], 9) for args in dips] == peaks


def test_every_pin_and_unfolding_layout_has_one_site():
    # every plateau height comes from _pin, and every thm3-thm5 unfolding
    # from _pinned, so a change to either is one edit; a witness's runs are
    # joined by _certify alone: only thm2's stitched orbits build arcs and
    # events, and the cycle's capped return its crossing
    tree = ast.parse(inspect.getsource(loops))

    def callers(name):
        return {getattr(stmt, "name", "<module>") for stmt in tree.body
                for node in ast.walk(stmt) if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name) and node.func.id == name}
    assert callers("_flow_to_section") == {"_pin"}
    assert callers("UnfoldingSpec") == {"_pinned", "scenario_thm2"}
    assert callers("Arc") == {"_stitch_orbit"}
    assert callers("Event") == {"_stitch_orbit", "_crossing_cycle_witness"}
    assert callers("Trajectory") == {"_certify", "_stitch_orbit",
                                     "_crossing_cycle_witness"}
    assert sum(ast.unparse(node) == "(0.0,) * base.m_minus"
               for node in ast.walk(tree)) == 1


def test_thm5_sliding_loops_and_crossing_cycles():
    # thm5 (3,3) ell=0: both bumps raised, so each pinned orbit slides to
    # an exit solved on the landing gap, and the scan polishes two cycles
    census = scenario_thm5(canonical_base(3, 3), 0)
    assert (census.beta_s, census.beta_c) == (2, 2)
    for _, rec in census.witnesses:
        assert rec.closure_residual <= CLOSURE_TOL
    assert {tag: _hex_fingerprint(rec) for tag, rec in census.witnesses} == {
        "sliding@x=-0.3": (["-0x1.3333333333334p-2", "-0x1.331849b42a2f4p-2",
                            "-0x1.fd0844875386fp-1"], "0x1.0000000000000p-53"),
        "sliding@x=-0.1": (["-0x1.999999999999ap-4", "-0x1.914ae9c05cbb3p-4",
                            "-0x1.fff51a8b8868dp-1"], "0x1.0000000000000p-52"),
        "cycle@x=-0.984508645": (["-0x1.f8118462c2f4cp-1",
                                  "-0x1.930b06d91a874p-2"],
                                 "0x1.6790000000000p-41"),
        "cycle@x=-0.999636903": (["-0x1.ffd0687e4aee3p-1",
                                  "-0x1.25c1bb1c70764p-3"],
                                 "0x1.d110000000000p-37"),
    }
    assert [rec.kind for _, rec in census.witnesses] == \
        ["sliding-loop"] * 2 + ["crossing-limit-cycle"] * 2
    assert census.dropped_cycles == []


def test_thm5_records_each_cycle_root_it_drops(monkeypatch):
    # thm5 (3,3) ell=0 polishes two cycle roots; whichever stage fails on
    # the first of them, its census keeps one cycle and records the drop
    witness, polish = loops._crossing_cycle_witness, loops._root
    seeds = []

    def failing_witness(sys, q):
        seeds.append(q)
        if len(seeds) == 1:
            raise VerificationFailed(f"cycle through x={q}: open", gap=3e-8)
        return witness(sys, q)
    monkeypatch.setattr(loops, "_crossing_cycle_witness", failing_witness)
    census = scenario_thm5(canonical_base(3, 3), 0)
    assert census.beta_c == 1 and len(seeds) == 2
    assert census.dropped_cycles == [(seeds[0], "witness", 3e-8)]
    monkeypatch.undo()

    brackets = []

    def failing_polish(stage, f, samples):
        if stage == "crossing cycle":
            brackets.append(samples[0][0])
            if len(brackets) == 1:
                raise VerificationFailed("no zero", -0.9, 2e-3)
        return polish(stage, f, samples)
    monkeypatch.setattr(loops, "_root", failing_polish)
    census = scenario_thm5(canonical_base(3, 3), 0)
    assert census.beta_c == 1 and len(brackets) == 2
    assert census.dropped_cycles == [(-0.9, "polish", 2e-3)]
    monkeypatch.undo()

    # a closure that fails inside the witness keeps the witness's miss
    certify, names = loops._certify, []

    def failing_certify(sys, name, *args, **kwargs):
        if name.startswith("cycle through"):
            names.append(name)
            if len(names) == 1:
                raise VerificationFailed(f"{name} fails to close")
        return certify(sys, name, *args, **kwargs)
    monkeypatch.setattr(loops, "_certify", failing_certify)
    [(q, stage, gap)] = scenario_thm5(canonical_base(3, 3), 0).dropped_cycles
    assert stage == "witness" and names[0] == f"cycle through x={q:.9g}"
    assert abs(gap) <= 0.5 * CLOSURE_TOL


def test_thm5_77_ell2_census():
    # two raised bumps slide; of the six cycles, the last two cross Sigma
    # again just left of the last lowered bump's peak at -0.1
    census = scenario_thm5(canonical_base(7, 7), 2)
    assert (census.beta_s, census.beta_c) == (2, 6)
    assert [rec.kind for _, rec in census.witnesses] == \
        ["sliding-loop"] * 2 + ["crossing-limit-cycle"] * 6
    for _, rec in census.witnesses:
        assert rec.closure_residual <= CLOSURE_TOL
    assert [-0.1002 < rec.switching_points[1][0] < -0.1
            for _, rec in census.witnesses[-2:]] == [True, True]


def _thm5_33_ell1_system():
    lam = _negative_cluster(3, 0.1)
    heights = (float.fromhex("0x1.33905d00237bdp-6"),
               float.fromhex("0x1.7b98654fdce00p-8"))
    return build_unfolded(UnfoldingSpec(
        canonical_base(3, 3), lam, (0.0,) * 3,
        PsiSpec(2, _pinned_knots(lam, 0.1) + heights)))


def test_cycle_witness_polish_stays_in_the_window(monkeypatch):
    # thm5 (3,3) ell=1: the displacement root at q misses by about 1e2 in
    # abscissa units, so an unbounded secant step seeds far off the window
    system = _thm5_33_ell1_system()
    w = system.window
    starts = []
    integrate_smooth = loops.integrate_smooth

    def recording(sys, side, start, **kwargs):
        starts.append(start[0])
        return integrate_smooth(sys, side, start, **kwargs)
    monkeypatch.setattr(loops, "integrate_smooth", recording)
    with pytest.raises(VerificationFailed, match="fails to close"):
        loops._crossing_cycle_witness(system, -0.10289492812919601)
    assert starts
    assert all(w.x_lo <= x <= w.x_hi for x in starts), starts


def test_every_capped_return_steps_on_the_witness_systems_side(
        monkeypatch):
    # each secant step caps the upper return on a window of its own; the
    # capped systems share the witness system's compiled upper side, so no
    # step generates it again
    system = _thm5_33_ell1_system()
    uppers = []
    integrate_smooth = loops.integrate_smooth

    def recording(sys, side, start, **kwargs):
        if side == "upper":
            uppers.append(sys)
        return integrate_smooth(sys, side, start, **kwargs)
    monkeypatch.setattr(loops, "integrate_smooth", recording)
    # q = -0.35 misses by -0.039; the secant closes the cycle at -0.3938
    # after six more steps
    loops._crossing_cycle_witness(system, -0.35)
    assert len({s.window.x_hi for s in uppers}) == len(uppers) == 7
    assert all(s.side_fn("upper") is system.side_fn("upper")
               for s in uppers)


def test_cycle_witness_polish_stops_at_a_seed_that_does_not_land(
        monkeypatch):
    # q = -0.35 misses by -0.039, so the secant seeds at -0.3305, inside
    # the window; that seed's lower transit is made to leave the window,
    # and the polish keeps q's own legs, which do not close
    lower_runs = []
    integrate_smooth = loops.integrate_smooth

    def second_lower_leaves(sys, side, start, **kwargs):
        run = integrate_smooth(sys, side, start, **kwargs)
        if side == "lower":
            lower_runs.append(start[0])
            if len(lower_runs) == 2:
                run = _ending(run, "window-exit")
        return run
    monkeypatch.setattr(loops, "integrate_smooth", second_lower_leaves)
    with pytest.raises(VerificationFailed, match=re.escape(
            "cycle through x=-0.35 fails to close")):
        loops._crossing_cycle_witness(_thm5_33_ell1_system(), -0.35)
    assert lower_runs == [-0.35, pytest.approx(-0.3305, abs=1e-4)]


@pytest.mark.parametrize("q", [-0.11, -0.1025])
def test_a_capped_upper_return_runs_to_its_cap(q):
    # the cycle witness's upper return from q's landing, capped at x = q:
    # it turns toward Sigma over the bump peaks, stays above it and leaves
    # the cap (whose exit line lies 1e-9 of the window's larger side out);
    # the window lines that fire on the way must not send a search for a
    # Sigma root the orbit never reaches
    system = _thm5_33_ell1_system()
    w = system.window
    low = integrate_smooth(system, "lower", (q, 0.0))
    capped = PwsSystem(*system.upper(), *system.lower(),
                       filippov2d.Window(w.x_lo, q, w.y_lo, w.y_hi))
    up = integrate_smooth(capped, "upper", (low.terminal.x, 0.0),
                          chain=True, t_offset=low.terminal.t)
    assert up.terminal.kind == "window-exit"
    assert abs(up.terminal.x - q) <= 2e-9


def test_a_cycle_seed_whose_return_rides_above_sigma_fails_by_name():
    # q = -0.11's upper return ends at its cap 1.6e-2 above Sigma
    with pytest.raises(VerificationFailed, match=re.escape(
            "cycle through x=-0.11 fails to close")):
        loops._crossing_cycle_witness(_thm5_33_ell1_system(), -0.11)


# thm5 (3,3) ell=1's first crossing cycle: its witness closes to 6e-13
_CYCLE_SEED = float.fromhex("-0x1.933b70744fa64p-2")


@pytest.mark.parametrize("name, build", [
    ("canonical loop through -1", lambda: canonical_critical_loop(1, 1)),
    ("cycle through x=-0.39378143", lambda: loops._crossing_cycle_witness(
        _thm5_33_ell1_system(), _CYCLE_SEED)),
    ("loop at 0", lambda: loops._critical_witness(
        canonical_base(1, 1).system(), 0.0)),
    ("sliding loop at -0.3", lambda: scenario_thm5(canonical_base(3, 3), 0)),
    (r"critical loop from -\S+",
     lambda: scenario_thm3(canonical_base(3, 3), 1, "critical")),
], ids=["canonical", "cycle", "critical", "sliding", "thm3"])
def test_every_witness_closure_failure_names_its_witness(monkeypatch, name,
                                                         build):
    # every leg's last sample is moved 1e-6 in x, its terminal event is
    # left as flown; each witness closed to far below 1e-6 unstubbed, so
    # its certificate reads a gap of 1e-6
    integrate_smooth = loops.integrate_smooth

    def off_by_a_micron(*args, **kwargs):
        run = integrate_smooth(*args, **kwargs)
        last = run.arcs[-1]
        x = last.x[:-1] + (last.x[-1] + 1e-6,)
        return run._replace(arcs=run.arcs[:-1] + [last._replace(x=x)])
    monkeypatch.setattr(loops, "integrate_smooth", off_by_a_micron)
    with pytest.raises(VerificationFailed, match=(
            f"^{name} fails to close: endpoints .* differ by "
            r"1\.000e-06 > 1\.0e-08$")):
        build()


@pytest.mark.parametrize("build", [
    lambda: scenario_thm5(canonical_base(3, 3), 0),
    lambda: scenario_thm3(canonical_base(3, 3), 1, "critical"),
], ids=["sliding", "thm3"])
def test_a_closing_lower_leg_that_does_not_land_names_its_leg(monkeypatch,
                                                              build):
    # of the lower transits these scenarios fly, only the loop's closing
    # leg starts later than t = 0; it is made to end at the window's edge
    integrate_smooth = loops.integrate_smooth

    def closing_leg_leaves(sys, side, start, **kwargs):
        run = integrate_smooth(sys, side, start, **kwargs)
        if side == "lower" and kwargs.get("t_offset"):
            run = _ending(run, "window-exit")
        return run
    monkeypatch.setattr(loops, "integrate_smooth", closing_leg_leaves)
    with pytest.raises(VerificationFailed, match=(
            r"^lower leg from -0\.\d+: window-exit after 0 contacts, "
            r"expected sigma-cross$")):
        build()


def test_certificate_names_a_wrong_kind_or_contact_count():
    system, rec = canonical_critical_loop(1, 1)
    runs = [rec.trajectory]
    with pytest.raises(VerificationFailed, match=re.escape(
            "probe classified critical with 1 contacts, expected "
            "sliding-loop")):
        loops._certify(system, "probe", runs, "sliding-loop")
    with pytest.raises(VerificationFailed, match=re.escape(
            "probe classified critical with 1 contacts, expected critical "
            "with 2")):
        loops._certify(system, "probe", runs, "critical", 2)
    assert loops._certify(system, "probe", runs, "critical",
                          1).kind == "critical"


@pytest.mark.parametrize("build, kinds", [
    (lambda: canonical_critical_loop(1, 1)[1],
     ["tangency-touch", "sigma-cross"]),
    (lambda: scenario_thm5(canonical_base(3, 3), 0).witnesses[0][1],
     ["tangency-touch", "sliding-exit", "sigma-cross"]),
    (lambda: scenario_thm3(canonical_base(3, 3), 1,
                           "crossing").witnesses[0][1],
     ["tangency-touch", "sigma-cross", "sigma-cross"]),
], ids=["canonical", "sliding", "thm3-crossing"])
def test_certificate_keeps_every_event_but_tangent_arrivals(build, kinds):
    # a tangent arrival's touch is already an event; a thm3 crossing
    # witness keeps the sigma-cross that ends its upper leg
    rec = build()
    times = [ev.t for ev in rec.trajectory.events]
    assert [ev.kind for ev in rec.trajectory.events] == kinds
    assert times == sorted(times)


def test_cycle_witness_kind_comes_from_the_certificate(monkeypatch):
    certified = []
    certify = loops._certify

    def recording(*args, **kwargs):
        certified.append(certify(*args, **kwargs))
        return certified[-1]
    monkeypatch.setattr(loops, "_certify", recording)
    rec = loops._crossing_cycle_witness(_thm5_33_ell1_system(), _CYCLE_SEED)
    assert len(certified) == 1 and certified[0] is rec
    assert rec.kind == "crossing-limit-cycle"


def _x_integrated_height(system, x0, x1):
    # reference: the upper orbit from (x0, 0) as a graph, dy/dx = g/f,
    # integrated knot to knot so that no step straddles a knot of psi
    f, g = system.side("upper")
    knots = _pinned_knots(_negative_cluster(3, 0.1), 0.1)
    cuts = [x0] + [k for k in knots if x0 < k < x1] + [x1]
    y = 0.0
    for a, b in zip(cuts, cuts[1:]):
        y = solve_ivp(lambda s, u: [g.value(s, u[0]) / f.value(s, u[0])],
                      (a, b), [y], method="DOP853", rtol=1e-13,
                      atol=1e-15).y[0, -1]
    return y


def test_displacement_next_to_a_bump_peak_is_positive_and_smooth():
    # thm5 (3,3) ell=1 next to the second bump's peak at x = -0.1: every
    # value is the upper orbit's true height, with no spurious sign change
    system = _thm5_33_ell1_system()
    for x in np.linspace(-0.1035, -0.0995, 41):
        d = displacement_sigma(system, float(x))
        assert d > 0.0
        land = integrate_smooth(system, "lower", (float(x), 0.0)).terminal.x
        ref = _x_integrated_height(system, land, float(x))
        assert d == pytest.approx(ref, abs=1e-11), x
