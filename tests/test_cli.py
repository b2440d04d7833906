"""The command-line driver: exit codes, artifacts, flags, census files."""

import hashlib

import pytest

from filippov2d import LoopCensus, cli, read_census_csv, write_census_csv
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


def test_portrait_builds_the_canonical_base_for_theorem_configs(tmp_path):
    cfg = write_config(tmp_path, THM3_55)
    out = tmp_path / "out"
    assert main(["portrait", cfg, "--out", str(out)]) == 0
    assert (out / "portrait.svg").read_text().startswith("<svg")


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


@pytest.mark.parametrize("key", ["tol", "alpha"])
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


def test_pencil_drops_an_orbit_whose_field_fails():
    # log(x) of a seed left of the origin raises a domain error: every
    # upper orbit is dropped, every lower one (a plain drift) is kept
    system = make_sys("log(x)", "0", "1", "0")
    orbits = cli._pencil(system, n=4)
    assert len(orbits) == 4
    assert all(orbit.start()[1] < 0.0 for orbit in orbits)


def test_pencil_lets_a_programming_error_through(monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("not an orbit failure")
    monkeypatch.setattr(cli, "integrate_pws", broken)
    with pytest.raises(TypeError, match="not an orbit failure"):
        cli._pencil(make_sys("1", "0", "1", "0"))


# sha1 of every artifact of two short runs: any change in the numerics of
# a transit, a witness or the artifact writers shows up here
ARTIFACT_SHA1 = {
    "thm4_55_l1": (THM3_55.replace("theorem = 3", "theorem = 4")
                   + "scenario.ell = 1\n", {
        "census.csv": "ee2c7a3202c661ca5e9a96713364b6c425c89130",
        "portrait.svg": "1bd8a18572d818d33be71fd3069829af452584c9",
        "tangent_points.csv": "9b7593e2f9188096fb282e2b3464c4138687de66",
        "trajectories/critical_x_-0.1.csv":
            "d3ae49de707caa6e4f0988cad69314b9b4bffded",
        "trajectories/critical_x_-0.3.csv":
            "7ed019efedd256949d497fcbadc3ec185d1daed5",
        "trajectories/crossing_x_-0.344864283.csv":
            "793f4aa16a520810d00b73f39d96ff40c08ec234",
    }),
    "thm3_55_cri_l2": (THM3_55 + "scenario.ell = 2\n"
                       "scenario.kind = critical\n", {
        "census.csv": "57c10c45f87e85a92b704cea877c11b8293cd990",
        "portrait.svg": "d38fdda1ef6530e363f7e2fa2bdf484e92e5b363",
        "tangent_points.csv": "47cf0286d5c2ce8a491da6d35d96f8560993cf1d",
        "trajectories/critical_l2.csv":
            "bb69d0aeb9cfb572e3b74607a2346782e915265f",
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
