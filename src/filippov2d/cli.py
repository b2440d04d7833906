"""Command-line driver: config files in, CSV/SVG artifacts out.

Subcommands
-----------
run <config>       execute the configured scenario, write census.csv,
                   tangent_points.csv, trajectories/*.csv, portrait.svg
portrait <config>  render the configured system without running a census
                   (both write into --out, by default ./out)
check              built-in self-test battery (seeded)

Config files are line-oriented ``section.key = value``, each key on one
line at most; --out alone says where artifacts go. Field expressions are
quoted strings; everything else is plain decimal / bare words, surrounding
spaces ignored. A config picks a run, a scan (1: scenario.theorem 1 or
unset) or theorem 2-5, and load_config refuses every key (_KEYS) that run
does not read; a starred run reads its key only when both sides set phi:
    upper.f upper.phi lower.f lower.phi: 1 3* 4* 5*
    upper.m lower.m scenario.theorem scenario.expect_tangent_points: 1 2 3 4 5
    scenario.ell scenario.delta: 2 3 4 5; scenario.window: 1 3 4 5
    scenario.kind: 3; scenario.visibility: 2
    scenario.lambda_plus scenario.lambda_minus: 1
A side's g is x^m * phi. Every run needs upper.m, and every run but
theorem 2 (which accepts lower.m unread) lower.m; a scan needs phi on both
sides, and m entries in a lambda list (zeros when unset).

``run`` looks scenario.theorem 2-5 up in one table (_SCENARIOS): the
theorem's loops.scenario_thmN returns a LoopCensus that already meets its
theorem's relation, and run writes its witnesses and plain orbits. With
theorem 1 or none it scans the configured system and pencils a few plain
orbits. A tangent point count other than scenario.expect_tangent_points
raises CensusMismatch.

census.csv, tangent_points.csv and trajectories/*.csv are one table shape,
written by _write_table and read by _read_table: a '# <version>' line, a
header row, then one row per record, its fields comma-joined and each line
ending in a newline. No field holds a comma: every field is a number, a
kind word or a 'contacts:count;...' list.

Exit codes: 0 success, 2 malformed config, 1 anything else (a refusal,
a failed certificate, a broken relation or a transit failure; a
diagnostics.txt with the traceback is left in the output directory).
"""

from __future__ import annotations

import argparse
import random
import sys as _sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .fieldexpr import ScalarField, parse_expr
# decompose_sigma stays bound here for tracers that wrap it by module
from .system import (PwsSystem, Window, decompose_sigma, h_value,  # noqa: F401
                     sliding_convex_coefficient, sliding_field)
from .tangency import TangencyScan, find_tangent_points
from .flow import Trajectory, TransitFailure, integrate_pws
from .unfolding import CanonicalBase, UnfoldingSpec, build_transition, \
    build_unfolded
from .cutoffs import cutoff_up
from .loops import (CensusMismatch, LoopCensus, LoopRecord, canonical_base,
                    canonical_critical_loop, scenario_thm2, scenario_thm3,
                    scenario_thm4, scenario_thm5, thm2_base)


class ConfigError(ValueError):
    """Malformed or invalid run configuration (exit code 2)."""


# --------------------------------------------------------------------------
# configuration


@dataclass
class SideConfig:
    f: str
    phi: Optional[str] = None
    m: Optional[int] = None


@dataclass
class RunConfig:
    upper: SideConfig
    lower: SideConfig
    theorem: Optional[int] = None
    ell: int = 1
    delta: Optional[float] = None
    kind: str = "crossing"
    visibility: str = "I"
    window: Optional[Window] = None
    lambda_plus: Tuple[float, ...] = ()
    lambda_minus: Tuple[float, ...] = ()
    expect_tangent_points: Optional[int] = None


def _expr(raw: str) -> str:
    if len(raw) < 2 or raw[0] not in "\"'" or raw[-1] != raw[0]:
        raise ValueError("expression values must be quoted strings")
    parse_expr(raw[1:-1])
    return raw[1:-1]


def _number(convert, noun: str):
    def parse(raw: str):
        try:
            return convert(raw)
        except ValueError:
            raise ValueError(f"expected {noun}, got {raw!r}") from None
    return parse


_int, _float = _number(int, "an integer"), _number(float, "a number")


def _floats(raw: str) -> Tuple[float, ...]:
    parts = raw.replace(",", " ").split()
    if not parts:
        raise ValueError("expected numbers")
    return tuple(map(_float, parts))


def _window(raw: str) -> Window:
    bounds = _floats(raw)
    if len(bounds) != 4:
        raise ValueError("scenario.window wants x_lo x_hi y_lo y_hi")
    try:
        return Window(*bounds)
    except ValueError as exc:
        raise ValueError(f"scenario.window: {exc}") from None


_KINDS = {"cro": "crossing", "crossing": "crossing",
          "cri": "critical", "critical": "critical"}
_COUNT = (lambda n: n >= 0, ">= 0, got {}")
_ALL, _THEOREMS, _WITH_PHI = (1, 2, 3, 4, 5), (2, 3, 4, 5), (3, 4, 5)

# section.key -> (parser, test, runs, runs_with_phi): the parser raises
# ValueError; a value failing test = (ok, rule) is refused as '<key> must
# be <rule>' (the value fills a {}); runs read the key (1 is a scan), and
# runs_with_phi read it only when both sides set phi.
_KEYS = {
    "upper.f": (_expr, None, (1,), _WITH_PHI),
    "upper.phi": (_expr, None, (1,), _WITH_PHI),
    "upper.m": (_int, _COUNT, _ALL, ()),
    "lower.f": (_expr, None, (1,), _WITH_PHI),
    "lower.phi": (_expr, None, (1,), _WITH_PHI),
    # theorem 2 has no lower multiplicity, but accepts lower.m unread: the
    # benchmark's thm2 configs set it, and their round trip reads it back
    "lower.m": (_int, _COUNT, _ALL, ()),
    "scenario.theorem": (_int, (lambda n: 1 <= n <= 5, "1..5"), _ALL, ()),
    "scenario.ell": (_int, (lambda n: n >= 0, ">= 0"), _THEOREMS, ()),
    "scenario.delta": (_float, (lambda d: d > 0.0, "> 0"), _THEOREMS, ()),
    "scenario.kind": (lambda raw: _KINDS.get(raw.lower()),
                      (bool, "cro or cri"), (3,), ()),
    "scenario.visibility": (str.upper, (lambda v: v in ("V", "I", "L", "R"),
                                        "one of V I L R"), (2,), ()),
    "scenario.window": (_window, None, (1, 3, 4, 5), ()),
    "scenario.lambda_plus": (_floats, None, (1,), ()),
    "scenario.lambda_minus": (_floats, None, (1,), ()),
    "scenario.expect_tangent_points": (_int, _COUNT, _ALL, ()),
}


def load_config(path) -> RunConfig:
    """Parse each line through its key's parser and test in _KEYS, then
    refuse every key the run does not read and every side lacking what the
    run needs; a ConfigError names the file, and the line if there is one."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"{path}: no such config file")
    cfg = RunConfig(upper=SideConfig(f="1"), lower=SideConfig(f="-1"))
    set_on: Dict[str, int] = {}   # "section.key" -> the line that set it
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        where = f"{path.name}:{lineno}"
        if "=" not in stripped:
            raise ConfigError(f"{where}: expected 'section.key = value'")
        lhs, raw = (part.strip() for part in stripped.split("=", 1))
        if "." not in lhs:
            raise ConfigError(f"{where}: keys are written section.key")
        section, name = (part.strip() for part in lhs.split(".", 1))
        key = f"{section}.{name}"
        if key not in _KEYS:
            if section not in {k.split(".")[0] for k in _KEYS}:
                raise ConfigError(f"{where}: unknown section {section!r}")
            raise ConfigError(
                f"{where}: unknown key {name!r} in section {section!r}")
        if key in set_on:
            raise ConfigError(
                f"{where}: {key} is already set on line {set_on[key]}")
        parse, test, _, _ = _KEYS[key]
        try:
            value = parse(raw)
            if test and not test[0](value):
                raise ValueError(f"{key} must be {test[1].format(value)}")
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
        setattr(cfg if section == "scenario" else getattr(cfg, section),
                name, value)
        set_on[key] = lineno
    run, phis = cfg.theorem or 1, (cfg.upper.phi, cfg.lower.phi)
    for key, at in set_on.items():
        _, _, runs, runs_with_phi = _KEYS[key]
        if run not in runs and (run not in runs_with_phi or None in phis):
            who = "a scan" if run == 1 else f"theorem {run}"
            raise ConfigError(f"{path.name}:{at}: {who} does not read {key}")
    for name, side, key in (("upper", cfg.upper, "lambda_plus"),
                            ("lower", cfg.lower, "lambda_minus")):
        lam = getattr(cfg, key)
        if run == 1 and side.phi is None:
            raise ConfigError(
                f"{path.name}: section {name!r} needs phi with m")
        if side.m is None and (name == "upper" or run != 2):
            raise ConfigError(f"{path.name}: section {name!r} " + (
                "needs m" if side.phi is None else "sets phi without m"))
        if lam and len(lam) != side.m:
            raise ConfigError(
                f"{path.name}:{set_on['scenario.' + key]}: scenario.{key} "
                f"needs {name}.m = {side.m} entries, got {len(lam)}")
    return cfg


def _delta(cfg: RunConfig) -> Dict[str, float]:
    return {} if cfg.delta is None else {"delta": cfg.delta}


def _canonical_for(cfg: RunConfig) -> CanonicalBase:
    """The configured run's base: thm2_base for theorem 2, else one from
    explicit phi sides, else canonical_base of the multiplicities."""
    if cfg.theorem == 2:
        return thm2_base(cfg.upper.m, cfg.visibility, **_delta(cfg))
    if cfg.upper.phi is not None and cfg.lower.phi is not None:
        return CanonicalBase.from_strings(
            cfg.upper.f, cfg.upper.phi, cfg.upper.m,
            cfg.lower.f, cfg.lower.phi, cfg.lower.m,
            cfg.window or Window(-1.75, 0.75, -2.0, 2.0))
    return canonical_base(cfg.upper.m, cfg.lower.m, cfg.window)


def _configured_system(cfg: RunConfig) -> PwsSystem:
    """The config's system before any scenario unfolds it: _canonical_for's
    base split at the lambdas (a missing list is all zeros)."""
    base = _canonical_for(cfg)
    return build_transition(UnfoldingSpec(
        base, cfg.lambda_plus or (0.0,) * base.m_plus,
        cfg.lambda_minus or (0.0,) * base.m_minus))


# --------------------------------------------------------------------------
# artifact tables

TRAJECTORY_CSV_VERSION = "filippov2d-trajectory-v1"
CENSUS_CSV_VERSION = "filippov2d-census-v2"
TANGENT_CSV_VERSION = "filippov2d-tangent-points-v1"


def _write_table(path, version: str, header: Sequence[str],
                 rows: Iterable[Sequence[object]]) -> None:
    """Stream the table of the module docstring; fields go through str."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# {version}\n{','.join(header)}\n")
        for row in rows:
            fh.write(",".join(map(str, row)) + "\n")


def _read_table(path, version: str) -> Tuple[List[str], List[List[str]]]:
    """(header, rows) of a table, blank lines skipped; ValueError when its
    first line is not '# <version>'."""
    with open(path) as fh:
        lines = [line for line in fh.read().splitlines() if line]
    if len(lines) < 2 or lines[0] != f"# {version}":
        raise ValueError(f"{path}: not a {version} table")
    header, *rows = (line.split(",") for line in lines[1:])
    return header, rows


def trajectory_to_csv(traj: Trajectory, path) -> None:
    """One row per sample: t, x, y, its arc's kind and index, and the kind
    of an event at that time."""
    ev_by_t = {round(e.t, 12): e.kind for e in traj.events}
    _write_table(path, TRAJECTORY_CSV_VERSION,
                 ("t", "x", "y", "arc_kind", "arc_index", "event"),
                 ((t, x, y, arc.kind, i, ev_by_t.get(round(t, 12), ""))
                  for i, arc in enumerate(traj.arcs)
                  for t, x, y in zip(arc.t, arc.x, arc.y)))


def read_trajectory_csv(path):
    """Round-trip reader: returns (version, header, rows)."""
    return (TRAJECTORY_CSV_VERSION, *_read_table(path, TRAJECTORY_CSV_VERSION))


def _counts_field(counts: Dict[int, int]) -> str:
    """{contacts: count} as 'contacts:count' pairs joined by ';'."""
    return ";".join(f"{k}:{v}" for k, v in sorted(counts.items()))


def write_census_csv(path, censuses: Sequence[LoopCensus], *,
                     witnesses_paths: Optional[Sequence[str]] = None) -> None:
    """One row per census; beta_cro and beta_cri keep every contact count
    (column format 'contacts:count;...', empty when there are none)."""
    _write_table(path, CENSUS_CSV_VERSION,
                 ("scenario", "m_plus", "m_minus", "ell", "beta_c", "beta_s",
                  "beta_cro", "beta_cri", "witnesses_path"),
                 ((c.scenario, c.m_plus, c.m_minus, c.ell, c.beta_c, c.beta_s,
                   _counts_field(c.beta_cro), _counts_field(c.beta_cri),
                   witnesses_paths[i] if witnesses_paths else "")
                  for i, c in enumerate(censuses)))


def read_census_csv(path) -> List[Dict[str, object]]:
    header, rows = _read_table(path, CENSUS_CSV_VERSION)
    out: List[Dict[str, object]] = [dict(zip(header, row)) for row in rows]
    for row in out:
        for key in ("m_plus", "m_minus", "ell", "beta_c", "beta_s"):
            row[key] = int(row[key])  # type: ignore[arg-type]
        for key in ("beta_cro", "beta_cri"):
            pairs = (item.split(":") for item in row[key].split(";") if item)
            row[key] = {int(k): int(v) for k, v in pairs}
    return out


def write_tangent_points_csv(path, scan: TangencyScan) -> None:
    _write_table(path, TANGENT_CSV_VERSION,
                 ("x", "m_plus", "m_minus", "vis_plus", "vis_minus", "label"),
                 ((r.x0, r.m_plus, r.m_minus, r.vis_plus or "",
                   r.vis_minus or "", r.label) for r in scan.records))


# --------------------------------------------------------------------------
# SVG portrait

_VIEW_W, _VIEW_H = 800, 600

_KIND_COLORS = {
    "crossing-limit-cycle": "#1a73e8",
    "sliding-loop": "#e8710a",
    "crossing-nonsliding": "#7b1fa2",
    "critical": "#c2185b",
}


def _mapper(w: Window):
    sx = _VIEW_W / (w.x_hi - w.x_lo)
    sy = _VIEW_H / (w.y_hi - w.y_lo)

    def to_px(x: float, y: float) -> Tuple[float, float]:
        return (x - w.x_lo) * sx, _VIEW_H - (y - w.y_lo) * sy

    return to_px


def _polyline(points: Sequence[Tuple[float, float]], color: str,
              width: float) -> str:
    coords = " ".join(f"{px:.2f},{py:.2f}" for px, py in points)
    return (f'<polyline fill="none" stroke="{color}" '
            f'stroke-width="{width}" points="{coords}"/>')


def _traj_polylines(traj: Trajectory, to_px, color: str,
                    width: float) -> List[str]:
    out = []
    for arc in traj.arcs:
        pts = [to_px(float(x), float(y)) for x, y in zip(arc.x, arc.y)]
        if len(pts) >= 2:
            stroke = width * (2.0 if arc.kind == "sliding" else 1.0)
            out.append(_polyline(pts, color, stroke))
    return out


def render_portrait(sys: PwsSystem, scan: TangencyScan,
                    trajectories: Sequence[Trajectory] = (),
                    records: Sequence[LoopRecord] = ()) -> str:
    """Render the window as a self-contained 800x600 SVG document.

    Sigma is the horizontal midline with the scan's sliding stretches
    thickened, the scan's tangent points get labeled markers, plain
    trajectories are grey and loop records are colored by kind.
    """
    w = sys.window
    to_px = _mapper(w)
    _, y_sigma = to_px(w.x_lo, 0.0)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_VIEW_W}" '
        f'height="{_VIEW_H}" viewBox="0 0 {_VIEW_W} {_VIEW_H}">',
        f'<defs><clipPath id="win"><rect x="0" y="0" width="{_VIEW_W}" '
        f'height="{_VIEW_H}"/></clipPath></defs>',
        f'<rect x="0" y="0" width="{_VIEW_W}" height="{y_sigma:.2f}" '
        f'fill="#f5f8fc"/>',
        f'<rect x="0" y="{y_sigma:.2f}" width="{_VIEW_W}" '
        f'height="{_VIEW_H - y_sigma:.2f}" fill="#fdf7f0"/>',
        '<g clip-path="url(#win)">',
        f'<line x1="0" y1="{y_sigma:.2f}" x2="{_VIEW_W}" y2="{y_sigma:.2f}" '
        f'stroke="#20242a" stroke-width="1.2"/>',
    ]
    for x_lo, x_hi in scan.sigma.sliding:
        p0, _ = to_px(x_lo, 0.0)
        p1, _ = to_px(x_hi, 0.0)
        parts.append(f'<line x1="{p0:.2f}" y1="{y_sigma:.2f}" x2="{p1:.2f}" '
                     f'y2="{y_sigma:.2f}" stroke="#b3261e" '
                     f'stroke-width="4.5"/>')
    for traj in trajectories:
        parts.extend(_traj_polylines(traj, to_px, "#9aa0a6", 1.0))
    for rec in records:
        color = _KIND_COLORS.get(rec.kind, "#444444")
        parts.extend(_traj_polylines(rec.trajectory, to_px, color, 1.6))
    for r in scan.records:
        px, py = to_px(r.x0, 0.0)
        vis = "/".join(v or "-" for v in (r.vis_plus, r.vis_minus))
        parts.append(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="4" '
                     f'fill="#ffffff" stroke="#20242a" stroke-width="1.2"/>')
        parts.append(f'<text x="{px:.2f}" y="{py - 9:.2f}" font-size="11" '
                     f'font-family="sans-serif" text-anchor="middle" '
                     f'fill="#20242a">({r.m_plus},{r.m_minus}) {vis}</text>')
    parts.append("</g></svg>")
    return "\n".join(parts)


# --------------------------------------------------------------------------
# scenario execution


def _safe_tag(tag: str) -> str:
    return "".join(ch if ch.isalnum() or ch in "-_." else "_" for ch in tag)


def _pencil(sys: PwsSystem) -> List[Trajectory]:
    """Forward orbits from six seeds across the top and six across the
    bottom edge.

    An orbit the flow cannot continue (a TransitFailure) or whose field
    meets a domain error (ArithmeticError, ValueError) is left out.
    """
    w = sys.window
    n = 6
    out = []
    t_max = 3.0 * (w.x_hi - w.x_lo)
    for i in range(n):
        x0 = w.x_lo + (i + 0.5) * (w.x_hi - w.x_lo) / n
        for y0 in (0.7 * w.y_hi, 0.7 * w.y_lo):
            try:
                out.append(integrate_pws(sys, (x0, y0), t_max=t_max))
            except (TransitFailure, ArithmeticError, ValueError):
                continue
    return out


def _count_lines(census: LoopCensus) -> List[str]:
    return [f"beta_c={census.beta_c}", f"beta_s={census.beta_s}",
            f"beta_cro_1={census.beta_cro.get(1, 0)}",
            f"beta_cri_1={census.beta_cri.get(1, 0)}"]


def _cycle_lines(census: LoopCensus) -> List[str]:
    return _count_lines(census) + [
        f"dropped_cycles={len(census.dropped_cycles)}"]


def _loop_lines(census: LoopCensus) -> List[str]:
    rec = census.witnesses[0][1]
    return [f"loop_kind={rec.kind}",
            f"tangent_touches={rec.tangent_touch_count}"]


def _tangent_orbit_lines(census: LoopCensus) -> List[str]:
    return [f"tangent_orbits={census.tangent_orbits.get(census.ell, 0)}",
            "contact_groups=" + _counts_field(census.tangent_orbits)]


# theorem -> (its census for a config and the delta keyword, the summary
# lines of that census). Each lambda looks its scenario_thmN up in this
# module when it runs, so a wrapper bound here later is the one called.
_SCENARIOS = {
    2: (lambda cfg, kw: scenario_thm2(cfg.upper.m, cfg.visibility, cfg.ell,
                                      **kw), _tangent_orbit_lines),
    3: (lambda cfg, kw: scenario_thm3(_canonical_for(cfg), cfg.ell,
                                      cfg.kind, **kw), _loop_lines),
    4: (lambda cfg, kw: scenario_thm4(_canonical_for(cfg), cfg.ell, **kw),
        _count_lines),
    5: (lambda cfg, kw: scenario_thm5(_canonical_for(cfg), cfg.ell, **kw),
        _cycle_lines),
}


def _failed(out: Path, exc: Exception) -> int:
    """Exit 1 from run/portrait's except: traceback to out/diagnostics.txt."""
    diag = out / "diagnostics.txt"
    diag.write_text(f"{type(exc).__name__}: {exc}\n\n{traceback.format_exc()}")
    print(f"error: {type(exc).__name__}: {exc}", file=_sys.stderr)
    print(f"diagnostics written to {diag}", file=_sys.stderr)
    return 1


def run_scenario(cfg: RunConfig, *, out_dir: str = "out") -> int:
    """Execute the configured scenario and write every artifact.

    Returns the process exit status: 0 when all asserted counts match.
    """
    out = Path(out_dir)
    traj_dir = out / "trajectories"
    traj_dir.mkdir(parents=True, exist_ok=True)

    try:
        if cfg.theorem in _SCENARIOS:
            scenario, summarize = _SCENARIOS[cfg.theorem]
            census = scenario(cfg, _delta(cfg))
            sys_final = build_unfolded(census.spec)
            summary = summarize(census)
        else:
            # plain scan (scenario.theorem = 1 or omitted): tangencies of
            # the configured system, optionally after a lambda unfolding
            sys_final = _configured_system(cfg)
            census = LoopCensus("scan", cfg.upper.m, cfg.lower.m, cfg.ell,
                                orbits=_pencil(sys_final))
            summary = []

        scan = find_tangent_points(sys_final)
        summary.append(f"tangent_points={len(scan.records)}")
        if cfg.expect_tangent_points is not None \
                and len(scan.records) != cfg.expect_tangent_points:
            raise CensusMismatch(
                f"found {len(scan.records)} tangent points, "
                f"config expects {cfg.expect_tangent_points}")

        for tag, rec in census.witnesses:
            name = _safe_tag(tag) + ".csv"
            trajectory_to_csv(rec.trajectory, traj_dir / name)
        for i, traj in enumerate(census.orbits):
            trajectory_to_csv(traj, traj_dir / f"orbit_{i:02d}.csv")

        write_census_csv(out / "census.csv", [census],
                         witnesses_paths=["trajectories"])
        write_tangent_points_csv(out / "tangent_points.csv", scan)
        svg = render_portrait(sys_final, scan, census.orbits,
                              [rec for _, rec in census.witnesses])
        (out / "portrait.svg").write_text(svg)
        for line in summary:
            print(line)
        print(f"artifacts written to {out}")
        return 0
    except Exception as exc:  # noqa: BLE001 - every failure goes to disk
        return _failed(out, exc)


def run_portrait(cfg: RunConfig, *, out_dir: str = "out") -> int:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    try:
        sys_final = _configured_system(cfg)
        svg = render_portrait(sys_final, find_tangent_points(sys_final),
                              _pencil(sys_final))
        (out / "portrait.svg").write_text(svg)
        print(f"portrait written to {out / 'portrait.svg'}")
        return 0
    except Exception as exc:  # noqa: BLE001 - every failure goes to disk
        return _failed(out, exc)


# --------------------------------------------------------------------------
# self-test battery


def _random_system(rng: random.Random) -> PwsSystem:
    """A random polynomial system with a guaranteed sliding stretch."""
    c = [rng.uniform(-2.0, 2.0) for _ in range(6)]
    f_p = f"{1.0 + abs(c[0])!r} + {c[1]!r}*x"
    f_m = f"{-(1.0 + abs(c[2]))!r} + {c[3]!r}*x"
    g_p = f"{1.0 + abs(c[4])!r} + x*x"
    g_m = f"{-(1.0 + abs(c[5]))!r} - x*x*0.5"
    return PwsSystem(ScalarField(f_p), ScalarField(g_p),
                     ScalarField(f_m), ScalarField(g_m),
                     Window(-2.0, 2.0, -2.0, 2.0))


def _check_convex(seed: int) -> Optional[str]:
    rng = random.Random(seed)
    systems = [_random_system(rng) for _ in range(20)]
    xs = [[rng.uniform(-2.0, 2.0) for _ in range(500)] for _ in range(20)]

    def worst(sys_i: PwsSystem, row) -> float:
        bad = 0.0
        for x in row:
            if h_value(sys_i, x) >= 0.0:
                continue
            lam = sliding_convex_coefficient(sys_i, x)
            blend_g = lam * sys_i.g_plus.value(x, 0.0) \
                + (1.0 - lam) * sys_i.g_minus.value(x, 0.0)
            blend_f = lam * sys_i.f_plus.value(x, 0.0) \
                + (1.0 - lam) * sys_i.f_minus.value(x, 0.0)
            bad = max(bad, abs(blend_g),
                      abs(blend_f - sliding_field(sys_i, x)))
        return bad

    top = max(worst(sys_i, row) for sys_i, row in zip(systems, xs))
    return None if top <= 1e-10 else f"convex residual {top:.2e} > 1.0e-10"


def _check_cutoff() -> Optional[str]:
    for x in (-1.0, 0.0, 0.2499, 0.75, 1.0, 2.0):
        v = cutoff_up(x, 0.25, 0.75)
        if x <= 0.25 and v != 0.0:
            return f"cutoff not flat-zero at {x}"
        if x >= 0.75 and v != 1.0:
            return f"cutoff not flat-one at {x}"
        if not 0.0 <= v <= 1.0:
            return f"cutoff out of range at {x}"
    return None


def _check_canonical() -> Optional[str]:
    from .maps import _flow_to_section

    sys_c, rec = canonical_critical_loop(1, 1)
    if rec.kind != "critical":
        return f"canonical loop classified {rec.kind}"
    hit = _flow_to_section(sys_c, (-1.0, 0.0), -2.0 / 3.0)
    if abs(hit.y - 4.0 / 27.0) > 1e-9:
        return f"upper arc height {hit.y!r} at x=-2/3, want 4/27"
    return None


def _check_roundtrip(tmp: Path) -> Optional[str]:
    census = LoopCensus("check", 1, 1, 0)
    write_census_csv(tmp / "census.csv", [census])
    rows = read_census_csv(tmp / "census.csv")
    if len(rows) != 1 or rows[0]["scenario"] != "check":
        return "census csv did not round-trip"
    traj = integrate_pws(canonical_base(1, 1).system(), (-0.5, 0.5),
                         t_max=1.0)
    trajectory_to_csv(traj, tmp / "orbit.csv")
    _, header, rows = read_trajectory_csv(tmp / "orbit.csv")
    n_in = sum(len(a.t) for a in traj.arcs)
    if header[0] != "t":
        return f"unexpected trajectory csv header: {header[:3]}"
    if len(rows) != n_in:
        return f"trajectory csv kept {len(rows)} of {n_in} samples"
    return None


def run_check(*, seed: int = 0) -> int:
    """Built-in smoke battery; one ok/FAIL line per check, exit 0 iff ok."""
    import tempfile

    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        checks = [
            ("sliding-convex-combination",
             lambda: _check_convex(seed)),
            ("cutoff-plateaus", _check_cutoff),
            ("canonical-loop-height", _check_canonical),
            ("csv-round-trip", lambda: _check_roundtrip(Path(tmp))),
        ]
        for name, fn in checks:
            try:
                msg = fn()
            except Exception as exc:  # noqa: BLE001
                msg = f"{type(exc).__name__}: {exc}"
            if msg is None:
                print(f"ok   {name}")
            else:
                failures += 1
                print(f"FAIL {name}: {msg}")
    return 0 if failures == 0 else 1


# --------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="filippov2d",
        description="planar two-zone system scenarios: census, CSV, SVG")
    sub = ap.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a configured scenario")
    p_run.add_argument("config")
    p_run.add_argument("--out", default="out", help="output directory")

    p_por = sub.add_parser("portrait", help="render the configured system")
    p_por.add_argument("config")
    p_por.add_argument("--out", default="out")

    p_chk = sub.add_parser("check", help="run the self-test battery")
    p_chk.add_argument("--seed", type=int, default=0)
    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "check":
        return run_check(seed=args.seed)
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=_sys.stderr)
        return 2
    if args.command == "run":
        return run_scenario(cfg, out_dir=args.out)
    return run_portrait(cfg, out_dir=args.out)


if __name__ == "__main__":
    raise SystemExit(main())
