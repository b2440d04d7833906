"""The command-line driver: exit codes, artifacts, flags, census files."""

import hashlib
import re

import pytest

from filippov2d import (LoopCensus, VerificationFailed, cli, integrate_pws,
                        loops, read_census_csv, write_census_csv)
from filippov2d.cli import load_config, main
from conftest import make_sys


def write_config(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


THM2 = "upper.m = 3\nscenario.theorem = 2\nscenario.ell = 1\n" \
       "scenario.visibility = I\n"
THM3_55 = "upper.m = 5\nlower.m = 5\nscenario.theorem = 3\n"


def test_bad_config_exits_with_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "upper.q = 1\n")
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "unknown key 'q'" in capsys.readouterr().err
    assert main(["portrait", str(tmp_path / "missing.cfg")]) == 2


@pytest.mark.parametrize("bounds", ["-1.75 0.75 0.1 0.5",
                                    "0.75 -1.75 -0.5 0.5"])
def test_bad_window_is_a_config_error(tmp_path, capsys, bounds):
    cfg = write_config(tmp_path, THM2 + f"scenario.window = {bounds}\n")
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: run.cfg:5: scenario.window: ")


# each bad line after a comment line (line 1), and its refusal; a side
# that lacks what its run needs is seen only at the end, so no line is named
# a scan config on lines 2-6: upper.m = 3, lower.m = 1
_SCAN = ('scenario.theorem = 1\nupper.phi = "1"\nupper.m = 3\n'
         'lower.phi = "1"\nlower.m = 1\n')
_M55 = "upper.m = 5\nlower.m = 5\n"   # lines 2-3, then the theorem on 4
_REFUSALS = [
    ('upper.f = 1', "run.cfg:2: expression values must be quoted strings"),
    ('upper.f = "1 +"', "run.cfg:2: unexpected end of input (at byte 3)"),
    ("upper.m = x", "run.cfg:2: expected an integer, got 'x'"),
    ("scenario.delta = abc", "run.cfg:2: expected a number, got 'abc'"),
    ("scenario.lambda_plus =", "run.cfg:2: expected numbers"),
    ('upper.f "1"', "run.cfg:2: expected 'section.key = value'"),
    ("upper = 1", "run.cfg:2: keys are written section.key"),
    ('middle.f = "1"', "run.cfg:2: unknown section 'middle'"),
    ('output.dir = "x"', "run.cfg:2: unknown section 'output'"),
    ('upper.g = "1"', "run.cfg:2: unknown key 'g' in section 'upper'"),
    ("upper.m = -1", "run.cfg:2: upper.m must be >= 0, got -1"),
    ("scenario.theorem = 6", "run.cfg:2: scenario.theorem must be 1..5"),
    ("scenario.ell = -1", "run.cfg:2: scenario.ell must be >= 0"),
    ("scenario.delta = 0", "run.cfg:2: scenario.delta must be > 0"),
    ("scenario.kind = loop", "run.cfg:2: scenario.kind must be cro or cri"),
    ("scenario.visibility = X",
     "run.cfg:2: scenario.visibility must be one of V I L R"),
    ("scenario.window = 1 2 3",
     "run.cfg:2: scenario.window wants x_lo x_hi y_lo y_hi"),
    ('scenario.theorem = 1\nupper.phi = "1"\nupper.m = 0',
     "run.cfg: section 'lower' needs phi with m"),
    ('upper.phi = "1"', "run.cfg: section 'upper' sets phi without m"),
    ('upper.f = "' + "(" * 400 + "1" + ")" * 400 + '"',
     "run.cfg:2: nested deeper than 200 levels (at byte 200)"),
    ('upper.f = "2 * 1e999"', "run.cfg:2: number '1e999' out of range "
     "(at byte 4)"),
    ('upper.phi = "' + " + ".join(["x"] * 602) + '"',
     "run.cfg:2: operations nested deeper than 600 levels (at byte 2)"),
    (_SCAN + "scenario.lambda_plus = -0.1 0.1",
     "run.cfg:7: scenario.lambda_plus needs upper.m = 3 entries, got 2"),
    (_SCAN + "scenario.lambda_minus = -0.1 0.1",
     "run.cfg:7: scenario.lambda_minus needs lower.m = 1 entries, got 2"),
    ('scenario.theorem = 2\nupper.f = "2"',
     "run.cfg:3: theorem 2 does not read upper.f"),
    ('scenario.theorem = 4\nupper.m = 5\nupper.f = "2"',
     "run.cfg:4: theorem 4 does not read upper.f"),
    ('scenario.theorem = 5\nlower.phi = "1"\nlower.m = 3',
     "run.cfg:3: theorem 5 does not read lower.phi"),
    ("scenario.theorem = 3\nscenario.lambda_minus = 0.1",
     "run.cfg:3: theorem 3 does not read scenario.lambda_minus"),
    (_SCAN + "scenario.ell = 4",
     "run.cfg:7: a scan does not read scenario.ell"),
    (_SCAN + "scenario.delta = 0.3",
     "run.cfg:7: a scan does not read scenario.delta"),
    (_SCAN + "scenario.kind = critical",
     "run.cfg:7: a scan does not read scenario.kind"),
    (_SCAN + "scenario.visibility = V",
     "run.cfg:7: a scan does not read scenario.visibility"),
    ("scenario.theorem = 2\nupper.m = 3\nscenario.window = -1 1 -1 1",
     "run.cfg:4: theorem 2 does not read scenario.window"),
    ("scenario.theorem = 2\nupper.m = 3\nscenario.kind = cri",
     "run.cfg:4: theorem 2 does not read scenario.kind"),
    (_M55 + "scenario.theorem = 3\nscenario.visibility = V",
     "run.cfg:5: theorem 3 does not read scenario.visibility"),
    (_M55 + "scenario.theorem = 4\nscenario.kind = critical",
     "run.cfg:5: theorem 4 does not read scenario.kind"),
    (_M55 + "scenario.theorem = 4\nscenario.visibility = V",
     "run.cfg:5: theorem 4 does not read scenario.visibility"),
    (_M55 + "scenario.theorem = 5\nscenario.kind = cro",
     "run.cfg:5: theorem 5 does not read scenario.kind"),
    (_M55 + "scenario.theorem = 5\nscenario.visibility = I",
     "run.cfg:5: theorem 5 does not read scenario.visibility"),
    ("upper.m = 1\nupper.m = 3",
     "run.cfg:3: upper.m is already set on line 2"),
    ("scenario.expect_tangent_points = -1",
     "run.cfg:2: scenario.expect_tangent_points must be >= 0, got -1"),
    ("scenario.theorem = 4\nscenario.ell = 1",
     "run.cfg: section 'upper' needs m"),
    ("scenario.theorem = 3\nupper.m = 5", "run.cfg: section 'lower' needs m"),
]


@pytest.mark.parametrize("line, message", _REFUSALS,
                         ids=[m.split(": ", 1)[1] for _, m in _REFUSALS])
def test_every_config_refusal_exits_2_with_its_message(tmp_path, capsys,
                                                       line, message):
    cfg = write_config(tmp_path, f"# a comment line\n{line}\n")
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_scan_config_scans_the_tangent_points_of_its_g(tmp_path, capsys):
    # m = 0 and no lambdas: each side's g is its phi, one simple zero each
    out = tmp_path / "out"
    cfg = write_config(tmp_path, 'scenario.theorem = 1\n'
                       'upper.f = "1"\nupper.phi = "x - 0.25"\nupper.m = 0\n'
                       'lower.f = "-1"\nlower.phi = "x + 0.5"\nlower.m = 0\n')
    assert main(["run", cfg, "--out", str(out)]) == 0
    assert "tangent_points=2" in capsys.readouterr().out.splitlines()
    _, rows = cli._read_table(out / "tangent_points.csv",
                              cli.TANGENT_CSV_VERSION)
    assert [(float(r[0]), r[1], r[2]) for r in rows] == [
        (pytest.approx(-0.5, abs=1e-9), "0", "1"),
        (pytest.approx(0.25, abs=1e-9), "1", "0")]


def test_scan_config_without_one_lambda_list_splits_that_side_at_0(
        tmp_path, capsys):
    # upper.m = 1 with no lambda_plus: g+ = x, a tangency at 0
    out = tmp_path / "out"
    cfg = write_config(tmp_path, 'scenario.theorem = 1\nupper.phi = "1"\n'
                       'upper.m = 1\nlower.phi = "1"\nlower.m = 2\n'
                       'scenario.lambda_minus = -0.5 0.25\n')
    assert main(["run", cfg, "--out", str(out)]) == 0
    assert "tangent_points=3" in capsys.readouterr().out.splitlines()
    _, rows = cli._read_table(out / "tangent_points.csv",
                              cli.TANGENT_CSV_VERSION)
    assert [(float(r[0]), r[1], r[2]) for r in rows] == [
        (pytest.approx(-0.5, abs=1e-9), "0", "1"),
        (pytest.approx(0.0, abs=1e-9), "1", "0"),
        (pytest.approx(0.25, abs=1e-9), "0", "1")]


def test_a_field_nested_200_deep_still_runs(tmp_path, capsys):
    deep = "(" * 200 + "1" + ")" * 200
    cfg = write_config(tmp_path, 'scenario.theorem = 1\n'
                       f'upper.f = "{deep}"\nupper.phi = "x - 0.25"\n'
                       'upper.m = 0\nlower.f = "-1"\n'
                       'lower.phi = "x + 0.5"\nlower.m = 0\n')
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 0
    assert "tangent_points=2" in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("f, phi", [
    ("1", "x" + " + 0" * 250 + " - 0.25"),   # 251 operations deep
    ("1 + 0 * (" + "x + x * (" * 199 + "x" + ")" * 200, "x - 0.25"),
], ids=["sum of 252 terms", "200 levels of x + x * (...)"])
def test_a_deep_field_runs(tmp_path, capsys, f, phi):
    # each side compiles (f, g) as one function whose code nests no deeper
    # in parentheses than the field's source
    cfg = write_config(tmp_path, 'scenario.theorem = 1\n'
                       f'upper.f = "{f}"\nupper.phi = "{phi}"\n'
                       'upper.m = 0\nlower.f = "-1"\n'
                       'lower.phi = "x + 0.5"\nlower.m = 0\n')
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 0
    assert "tangent_points=2" in capsys.readouterr().out.splitlines()


def test_run_thm2_writes_every_artifact(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", write_config(tmp_path, THM2), "--out", str(out)]) == 0
    assert "tangent_orbits=1" in capsys.readouterr().out.splitlines()
    for name in ("census.csv", "tangent_points.csv", "portrait.svg"):
        assert (out / name).stat().st_size > 0
    assert list((out / "trajectories").glob("*.csv"))
    assert not (out / "diagnostics.txt").exists()
    row, = read_census_csv(out / "census.csv")
    assert (row["scenario"], row["m_plus"], row["ell"]) == ("thm2", 3, 1)


def test_tangent_point_count_off_the_config_is_a_census_mismatch(tmp_path,
                                                                capsys):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, THM2 + "scenario.expect_tangent_points = 4\n")
    assert main(["run", cfg, "--out", str(out)]) == 1
    message = "CensusMismatch: found 3 tangent points, config expects 4"
    assert capsys.readouterr().err.startswith(f"error: {message}\n")
    assert (out / "diagnostics.txt").read_text().startswith(message)


@pytest.mark.parametrize("command", ["run", "portrait"])
def test_run_and_portrait_fail_alike(tmp_path, capsys, monkeypatch, command):
    def fails(system):
        raise ZeroDivisionError("probe")
    monkeypatch.setattr(cli, "find_tangent_points", fails)
    out = tmp_path / "out"
    assert main([command, write_config(tmp_path, THM2), "--out",
                 str(out)]) == 1
    diag = out / "diagnostics.txt"
    assert capsys.readouterr().err == (
        f"error: ZeroDivisionError: probe\ndiagnostics written to {diag}\n")
    assert diag.read_text().startswith(
        "ZeroDivisionError: probe\n\nTraceback")


def test_portrait_builds_the_canonical_base_for_theorem_configs(tmp_path):
    cfg = write_config(tmp_path, THM3_55)
    out = tmp_path / "out"
    assert main(["portrait", cfg, "--out", str(out)]) == 0
    assert (out / "portrait.svg").read_text().startswith("<svg")


def test_portrait_of_theorem_2_draws_its_base(tmp_path):
    # thm2_base(3, "I"): one (3,0) point at x = 0, invisible from above, in
    # the window (-1.6, 2.4), so 1.6 / 4.0 of the 800 px across
    out = tmp_path / "out"
    assert main(["portrait", write_config(tmp_path, THM2), "--out",
                 str(out)]) == 0
    markers = re.findall(r'<text x="([^"]+)"[^>]*>([^<]*)</text>',
                         (out / "portrait.svg").read_text())
    assert markers == [("320.00", "(3,0) I/-")]


def test_the_module_docstring_lists_every_key_with_its_runs():
    # an indented docstring line holds 'keys: runs' groups joined by '; '
    listed = {}
    for line in cli.__doc__.splitlines():
        for group in line.split("; ") if re.match(r"    \w", line) else ():
            keys, runs = re.fullmatch(r" *([a-z_. ]+): ([\d* ]+)",
                                      group).groups()
            listed.update(dict.fromkeys(keys.split(), runs))
    assert listed == {
        key: " ".join([str(r) for r in runs] + [f"{r}*" for r in with_phi])
        for key, (_, _, runs, with_phi) in cli._KEYS.items()}


@pytest.mark.parametrize("argv", [
    ["run", "CFG", "--seed", "1"],
    ["portrait", "CFG", "--seed", "1"],
    ["portrait", "CFG", "--tol", "1e-8"],
    ["run", "CFG", "--tol", "1e-8"],
    ["check", "--tol", "1e-8"],
])
def test_removed_flags_are_rejected(tmp_path, argv):
    cfg = write_config(tmp_path, THM2)
    with pytest.raises(SystemExit) as ei:
        main([cfg if a == "CFG" else a for a in argv])
    assert ei.value.code == 2


@pytest.mark.parametrize("key", ["tol", "alpha", "a", "k1", "k2"])
def test_tolerance_is_no_config_key(tmp_path, capsys, key):
    cfg = write_config(tmp_path, THM2 + f"scenario.{key} = 1e-8\n")
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
    assert f"unknown key '{key}'" in capsys.readouterr().err


def test_kept_flags_parse(tmp_path):
    cfg = load_config(write_config(tmp_path, THM2))
    assert cfg.theorem == 2 and cfg.upper.m == 3
    assert main(["check", "--seed", "3"]) == 0


def test_census_round_trips_every_contact_count(tmp_path):
    census = LoopCensus("thm3", 5, 5, 2, beta_cri={2: 1})
    other = LoopCensus("thm4", 5, 5, 1, beta_cro={1: 1}, beta_cri={1: 2, 3: 1})
    path = tmp_path / "census.csv"
    write_census_csv(path, [census, other], witnesses_paths=["a", "b"])
    assert path.read_text().splitlines()[2] == "thm3,5,5,2,0,0,,2:1,a"
    first, second = read_census_csv(path)
    assert first["beta_cri"] == {2: 1} and first["beta_cro"] == {}
    assert second["beta_cro"] == {1: 1}
    assert second["beta_cri"] == {1: 2, 3: 1}
    assert second["witnesses_path"] == "b"


def test_census_reader_refuses_another_table(tmp_path):
    # a trajectory table, and a census table whose version line has one
    # character more
    orbit = tmp_path / "orbit.csv"
    cli.trajectory_to_csv(integrate_pws(make_sys("1", "1", "1", "1"),
                                        (0.0, 0.5), t_max=0.1), orbit)
    census = tmp_path / "census.csv"
    write_census_csv(census, [LoopCensus("thm3", 5, 5, 2)])
    census.write_text(census.read_text().replace("-v2\n", "-v2x\n", 1))
    assert census.read_text().startswith("# filippov2d-census-v2x\n")
    for path in (orbit, census):
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: not a filippov2d-census-v2 table")):
            read_census_csv(path)


def test_pencil_drops_an_orbit_whose_field_fails():
    # log(x) of a seed left of the origin raises a domain error: every
    # upper orbit is dropped, every lower one (a plain drift) is kept
    system = make_sys("log(x)", "0", "1", "0")
    orbits = cli._pencil(system)
    assert len(orbits) == 6
    assert all(orbit.start()[1] < 0.0 for orbit in orbits)


def test_pencil_lets_a_programming_error_through(monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("not an orbit failure")
    monkeypatch.setattr(cli, "integrate_pws", broken)
    with pytest.raises(TypeError, match="not an orbit failure"):
        cli._pencil(make_sys("1", "0", "1", "0"))


def test_thm5_run_reports_its_dropped_cycle_roots(tmp_path, capsys,
                                                 monkeypatch):
    # thm5 (3,3) ell=0 finds two cycles; the first root's witness fails
    witness, seeds = loops._crossing_cycle_witness, []

    def failing(sys, q):
        seeds.append(q)
        if len(seeds) == 1:
            raise VerificationFailed(f"cycle through x={q}: open")
        return witness(sys, q)
    monkeypatch.setattr(loops, "_crossing_cycle_witness", failing)
    out = tmp_path / "out"
    cfg = write_config(tmp_path, "upper.m = 3\nlower.m = 3\n"
                       "scenario.theorem = 5\nscenario.ell = 0\n")
    assert main(["run", cfg, "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert {"beta_c=1", "beta_s=2", "dropped_cycles=1"} <= set(lines)
    header, rows = cli._read_table(out / "census.csv", cli.CENSUS_CSV_VERSION)
    assert header[:6] == ["scenario", "m_plus", "m_minus", "ell", "beta_c",
                          "beta_s"]
    assert rows[0][:6] == ["thm5", "3", "3", "0", "1", "2"]


# sha1 of every artifact of two short runs: any change in the numerics of
# a transit, a witness or the artifact writers shows up here
ARTIFACT_SHA1 = {
    "thm4_55_l1": (THM3_55.replace("theorem = 3", "theorem = 4")
                   + "scenario.ell = 1\n", {
        "census.csv": "ee2c7a3202c661ca5e9a96713364b6c425c89130",
        "portrait.svg": "93af0ad399152c2445e83fcd9077cfe89de0bab1",
        "tangent_points.csv": "9b7593e2f9188096fb282e2b3464c4138687de66",
        "trajectories/critical_x_-0.1.csv":
            "50feb5195fde38a0ffeb0e4a3868003e92b07bfa",
        "trajectories/critical_x_-0.3.csv":
            "9473da41ae1493611baef6bfdc7d52a8058d167b",
        "trajectories/crossing_x_-0.344864283.csv":
            "183ef82828a4661ed3bf1b14ea59c3d37af191b0",
    }),
    "thm3_55_cri_l2": (THM3_55 + "scenario.ell = 2\n"
                       "scenario.kind = critical\n", {
        "census.csv": "57c10c45f87e85a92b704cea877c11b8293cd990",
        "portrait.svg": "e9f0978c103078ca4ef53b9263ec250c89787391",
        "tangent_points.csv": "47cf0286d5c2ce8a491da6d35d96f8560993cf1d",
        "trajectories/critical_l2.csv":
            "055f564c9b99f9c3bf6a38027472e266c4a054ac",
    }),
}


@pytest.mark.parametrize("name", sorted(ARTIFACT_SHA1))
def test_run_artifacts_are_pinned(tmp_path, capsys, name):
    text, want = ARTIFACT_SHA1[name]
    out = tmp_path / "out"
    assert main(["run", write_config(tmp_path, text), "--out", str(out)]) == 0
    got = {str(p.relative_to(out)): hashlib.sha1(p.read_bytes()).hexdigest()
           for p in sorted(out.rglob("*")) if p.is_file()}
    assert got == want
