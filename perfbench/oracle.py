"""Census oracle: judge one ``filippov2d run`` against the paper.

The verdict reads only what a user sees: the ``key=value`` summary that
``run`` prints, ``diagnostics.txt`` on failure, and the loop witness CSVs.
``census.csv`` is deliberately not read, so a change of its format cannot
move the benchmark.

Predictions (m = multiplicity of the unfolded tangency, ell = contacts):

* thm2: tangent_orbits = (m+1) // (2 ell) for a visible O, (m-1) // (2 ell)
  for an invisible one;
* thm3: loop_kind = critical / crossing-nonsliding, tangent_touches = ell;
* thm4: (beta_cro_1, beta_cri_1) = ((m-1)/2 - ell, ell + 1);
* lambda-split scans: one tangent point per distinct split point, with
  the split point's multiplicity on its own side (tangent_points.csv);
* every run: the tangent-point count in the spec, and every loop witness
  closes within CLOSURE_TOL.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path
from typing import Dict, Optional

# loops.CLOSURE_TOL, restated so the oracle does not trust the program
CLOSURE_TOL = 1e-8
# how far a reported tangent point may sit from its split point
SPLIT_X_TOL = 1e-6


def predicted(spec: dict) -> Dict[str, str]:
    """The summary values the paper predicts for one config spec."""
    want = {"tangent_points": str(spec["tangent_points"])}
    theorem, m, ell = spec.get("theorem"), spec.get("m"), spec.get("ell")
    if theorem == 2:
        offset = 1 if spec.get("visibility", "I") == "V" else -1
        want["tangent_orbits"] = str((m + offset) // (2 * ell))
    elif theorem == 3:
        critical = spec.get("kind", "crossing") == "critical"
        want["loop_kind"] = "critical" if critical else "crossing-nonsliding"
        want["tangent_touches"] = str(ell)
    elif theorem == 4:
        want["beta_cro_1"] = str((m - 1) // 2 - ell)
        want["beta_cri_1"] = str(ell + 1)
    return want


def summary(stdout: str) -> Dict[str, str]:
    """The ``key=value`` lines of a run's standard output."""
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition("=")
        if sep and key.strip().isidentifier():
            out[key.strip()] = value.strip()
    return out


def closure_residual(path: Path) -> float:
    """Distance between the first and last sample of a trajectory CSV."""
    with open(path, newline="") as fh:
        next(fh)  # version line
        rows = [row for row in csv.reader(fh)][1:]
    (x0, y0), (x1, y1) = ((float(r[1]), float(r[2]))
                          for r in (rows[0], rows[-1]))
    return math.hypot(x1 - x0, y1 - y0)


def tangent_points(path: Path):
    """(x, m_plus, m_minus) rows of a tangent_points.csv, in file order."""
    lines = path.read_text().splitlines()[2:]  # version line, header
    return [(float(x), int(mp), int(mm)) for x, mp, mm, *_ in
            (ln.split(",") for ln in lines if ln.strip())]


def multiplicity_error(want, got) -> Optional[str]:
    """Compare predicted (x, m_plus, m_minus) points with the reported ones."""
    got = sorted(got)
    ok = len(got) == len(want) and all(
        abs(gx - wx) <= SPLIT_X_TOL and (gp, gm) == (wp, wm)
        for (gx, gp, gm), (wx, wp, wm) in zip(got, sorted(want)))
    if ok:
        return None
    show = ", ".join(f"{x:.4f}:({p},{m})" for x, p, m in got)
    return f"OracleMismatch: tangent points {show}; paper predicts " + \
        ", ".join(f"{x:.4f}:({p},{m})" for x, p, m in sorted(want))


def _first_line(text: str) -> str:
    lines = text.strip().splitlines()
    return lines[0] if lines else ""


def judge_run(spec: dict, rc: int, stdout: str, stderr: str,
              out_dir: Path) -> Optional[str]:
    """None when the run matches the paper, else a one-line failure record.

    The record is ``<ExceptionClass>: <first line of the message>``; a
    census that disagrees with the prediction is ``OracleMismatch`` and an
    open witness is ``WitnessNotClosed``.
    """
    if rc != 0:
        diag = out_dir / "diagnostics.txt"
        if diag.exists():
            return _first_line(diag.read_text())
        return f"ExitCode{rc}: {_first_line(stderr)}"
    got = summary(stdout)
    for key, want in predicted(spec).items():
        if got.get(key) != want:
            return (f"OracleMismatch: {key}={got.get(key)}, "
                    f"paper predicts {want}")
    if "multiplicities" in spec:
        bad = multiplicity_error([tuple(p) for p in spec["multiplicities"]],
                                 tangent_points(out_dir / "tangent_points.csv"))
        if bad:
            return bad
    traj_dir = out_dir / "trajectories"
    for path in sorted(traj_dir.glob("*.csv")):
        if path.name.startswith("orbit_"):
            continue  # plain orbits, not loop witnesses
        residual = closure_residual(path)
        if not residual <= CLOSURE_TOL:
            return (f"WitnessNotClosed: {path.name} residual "
                    f"{residual:.3e} > {CLOSURE_TOL:.0e}")
    return None


def judge_check(rc: int, stdout: str) -> Optional[str]:
    """None when ``check`` passed every battery entry."""
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    bad = [ln for ln in lines if not ln.startswith("ok ")]
    if rc != 0 or bad or not lines:
        return f"CheckFailed: exit {rc}, {_first_line(chr(10).join(bad))}"
    return None
