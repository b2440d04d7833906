"""The census oracle flags runs that disagree with the paper."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import oracle  # noqa: E402

THM2 = {"name": "thm2_5V_l1", "theorem": 2, "m": 5, "ell": 1,
        "visibility": "V", "tangent_points": 5}
THM4 = {"name": "thm4_55_l1", "theorem": 4, "m": 5, "ell": 1,
        "tangent_points": 7}


def _out(tmp_path, witnesses=()):
    traj = tmp_path / "trajectories"
    traj.mkdir(parents=True)
    for name, (start, end) in witnesses:
        (traj / name).write_text(
            "# filippov2d-trajectory-v1\nt,x,y,arc_kind,arc_index,event\n"
            f"0.0,{start[0]!r},{start[1]!r},upper,0,\n"
            f"1.0,{end[0]!r},{end[1]!r},lower,1,\n")
    return tmp_path


def test_predictions_follow_the_paper():
    assert oracle.predicted(THM2)["tangent_orbits"] == "3"
    assert oracle.predicted(dict(THM2, visibility="I"))["tangent_orbits"] \
        == "2"
    assert oracle.predicted(THM4)["beta_cro_1"] == "1"
    assert oracle.predicted(THM4)["beta_cri_1"] == "2"
    spec = {"theorem": 3, "m": 5, "ell": 2, "kind": "critical",
            "tangent_points": 7}
    assert oracle.predicted(spec)["loop_kind"] == "critical"
    assert oracle.predicted(spec)["tangent_touches"] == "2"


def test_matching_run_passes(tmp_path):
    out = "tangent_orbits=3\ncontact_groups=1:3\ntangent_points=5\n"
    assert oracle.judge_run(THM2, 0, out, "", _out(tmp_path)) is None


def test_doctored_expected_count_is_flagged(tmp_path):
    out = "tangent_orbits=3\ncontact_groups=1:3\ntangent_points=5\n"
    doctored = dict(THM2, tangent_points=6)
    record = oracle.judge_run(doctored, 0, out, "", _out(tmp_path))
    assert record.startswith("OracleMismatch: tangent_points=5")


def test_census_off_by_one_is_flagged(tmp_path):
    out = "beta_cro_1=2\nbeta_cri_1=2\ntangent_points=7\n"
    record = oracle.judge_run(THM4, 0, out, "", _out(tmp_path))
    assert record.startswith("OracleMismatch: beta_cro_1=2")


def test_open_witness_is_flagged(tmp_path):
    out = "beta_cro_1=1\nbeta_cri_1=2\ntangent_points=7\n"
    closed = ("cri.csv", ((-1.0, 0.0), (-1.0 + 1e-9, 0.0)))
    opened = ("cro.csv", ((-1.0, 0.0), (-1.0 + 1e-6, 0.0)))
    assert oracle.judge_run(THM4, 0, out, "", _out(tmp_path, [closed])) \
        is None
    record = oracle.judge_run(THM4, 0, out, "",
                              _out(tmp_path / "b", [closed, opened]))
    assert record.startswith("WitnessNotClosed: cro.csv")


def test_plain_orbits_are_not_witnesses(tmp_path):
    out = "beta_cro_1=1\nbeta_cri_1=2\ntangent_points=7\n"
    orbit = ("orbit_00.csv", ((-1.0, 0.5), (0.5, -1.0)))
    assert oracle.judge_run(THM4, 0, out, "", _out(tmp_path, [orbit])) \
        is None


def test_failure_record_is_class_and_first_line(tmp_path):
    (tmp_path / "diagnostics.txt").write_text(
        "RootNotBracketed: no sign change\n\nTraceback ...\n")
    assert oracle.judge_run(THM4, 1, "", "error", tmp_path) == \
        "RootNotBracketed: no sign change"
    assert oracle.judge_run(THM4, 2, "", "config error: bad\n",
                            tmp_path / "none") == \
        "ExitCode2: config error: bad"


def test_wrong_multiplicity_is_flagged(tmp_path):
    spec = {"tangent_points": 2, "multiplicities": [[-1.125, 7, 0],
                                                    [0.25, 0, 1]]}
    out = _out(tmp_path)
    (out / "tangent_points.csv").write_text(
        "# filippov2d-tangent-points-v1\n"
        "x,m_plus,m_minus,vis_plus,vis_minus,label\n"
        "-1.125,7,0,V,,V.\n0.25,0,1,,V,.V\n")
    assert oracle.judge_run(spec, 0, "tangent_points=2\n", "", out) is None
    (out / "tangent_points.csv").write_text(
        "# filippov2d-tangent-points-v1\n"
        "x,m_plus,m_minus,vis_plus,vis_minus,label\n"
        "-1.125,4,0,L,,L.\n0.25,0,1,,V,.V\n")
    record = oracle.judge_run(spec, 0, "tangent_points=2\n", "", out)
    assert record.startswith("OracleMismatch: tangent points -1.1250:(4,0)")


def test_check_battery_verdict():
    assert oracle.judge_check(0, "ok   a\nok   b\n") is None
    assert oracle.judge_check(1, "ok   a\nFAIL b: x\n").startswith(
        "CheckFailed: exit 1, FAIL b")
