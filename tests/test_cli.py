"""The command-line driver: exit codes, artifacts, flags, census files."""

import pytest

from filippov2d import LoopCensus, read_census_csv, write_census_csv
from filippov2d.cli import load_config, main


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


def test_tolerance_is_no_config_key(tmp_path, capsys):
    cfg = write_config(tmp_path, THM2 + "scenario.tol = 1e-8\n")
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "unknown key 'tol'" in capsys.readouterr().err


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
