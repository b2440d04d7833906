"""Command-line driver: config files in, CSV/SVG artifacts out.

Subcommands
-----------
run <config>       execute the configured scenario, write census.csv,
                   tangent_points.csv, trajectories/*.csv, portrait.svg
portrait <config>  render the configured system without running a census
check              built-in self-test battery (seeded)

Config files are line-oriented ``section.key = value`` with sections
{upper, lower, scenario, output}. Field expressions are quoted strings;
everything else is plain decimal / bare words. See load_config.

Exit codes: 0 success, 2 malformed config, 1 anything else (a
diagnostics.txt with the traceback is left in the output directory).
"""

from __future__ import annotations

import argparse
import sys as _sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .fieldexpr import ParseError, ScalarField, parse_expr
from .system import (PwsSystem, Window, decompose_sigma, h_value,
                     sliding_convex_coefficient, sliding_field)
from .tangency import TangencyScan, find_tangent_points
from .maps import Section
from .flow import (Trajectory, TransitFailure, integrate_pws,
                   read_trajectory_csv, trajectory_to_csv)
from .unfolding import CanonicalBase, UnfoldingSpec, build_transition, \
    build_unfolded
from .cutoffs import cutoff_up
from .loops import (LoopCensus, LoopRecord, RangeError, canonical_base,
                    canonical_critical_loop, scenario_thm2, scenario_thm3,
                    scenario_thm4, scenario_thm5, write_census_csv,
                    read_census_csv)

TANGENT_CSV_VERSION = "filippov2d-tangent-points-v1"


class ConfigError(ValueError):
    """Malformed or invalid run configuration (exit code 2)."""


# --------------------------------------------------------------------------
# configuration


@dataclass
class SideConfig:
    f: str
    g: Optional[str] = None
    phi: Optional[str] = None
    m: Optional[int] = None

    def g_expr(self) -> str:
        if self.g is not None:
            return self.g
        return f"x^{self.m} * ({self.phi})" if self.m else f"({self.phi})"


@dataclass
class RunConfig:
    upper: SideConfig
    lower: SideConfig
    theorem: Optional[int] = None
    ell: int = 1
    delta: Optional[float] = None
    alpha: Optional[float] = None
    kind: str = "crossing"
    visibility: str = "I"
    a: float = 1.0
    k1: float = 1.0
    k2: float = -1.0
    window: Optional[Window] = None
    lambda_plus: Tuple[float, ...] = ()
    lambda_minus: Tuple[float, ...] = ()
    expect_tangent_points: Optional[int] = None
    out_dir: str = "out"
    notes: Dict[str, str] = field(default_factory=dict)


_SECTIONS = {
    "upper": {"f", "g", "phi", "m"},
    "lower": {"f", "g", "phi", "m"},
    "scenario": {"theorem", "ell", "delta", "alpha", "kind", "visibility",
                 "a", "k1", "k2", "window", "lambda_plus",
                 "lambda_minus", "expect_tangent_points"},
    "output": {"dir"},
}


def _unquote(raw: str, where: str) -> str:
    raw = raw.strip()
    if len(raw) >= 2 and raw[0] in "\"'" and raw[-1] == raw[0]:
        return raw[1:-1]
    raise ConfigError(f"{where}: expression values must be quoted strings")


def _expr_value(raw: str, where: str) -> str:
    text = _unquote(raw, where)
    try:
        parse_expr(text)
    except ParseError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    return text


def _int_value(raw: str, where: str) -> int:
    try:
        return int(raw.strip())
    except ValueError as exc:
        raise ConfigError(f"{where}: expected an integer, got {raw!r}") \
            from exc


def _float_value(raw: str, where: str) -> float:
    try:
        return float(raw.strip())
    except ValueError as exc:
        raise ConfigError(f"{where}: expected a number, got {raw!r}") from exc


def _floats_value(raw: str, where: str) -> Tuple[float, ...]:
    parts = raw.replace(",", " ").split()
    if not parts:
        raise ConfigError(f"{where}: expected numbers")
    return tuple(_float_value(p, where) for p in parts)


def load_config(path) -> RunConfig:
    """Parse and validate a line-oriented run configuration.

    Every non-blank, non-comment line must read ``section.key = value``;
    errors carry the file name and line number. Each side needs either a
    full g expression or a (phi, m) pair.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"{path}: no such config file")
    upper = SideConfig(f="1")
    lower = SideConfig(f="-1")
    cfg = RunConfig(upper=upper, lower=lower)

    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        where = f"{path.name}:{lineno}"
        if "=" not in stripped:
            raise ConfigError(f"{where}: expected 'section.key = value'")
        lhs, raw = stripped.split("=", 1)
        lhs = lhs.strip()
        if "." not in lhs:
            raise ConfigError(f"{where}: keys are written section.key")
        section, key = lhs.split(".", 1)
        section, key = section.strip(), key.strip()
        if section not in _SECTIONS:
            raise ConfigError(f"{where}: unknown section {section!r}")
        if key not in _SECTIONS[section]:
            raise ConfigError(
                f"{where}: unknown key {key!r} in section {section!r}")

        if section in ("upper", "lower"):
            side = upper if section == "upper" else lower
            if key == "f":
                side.f = _expr_value(raw, where)
            elif key == "g":
                side.g = _expr_value(raw, where)
            elif key == "phi":
                side.phi = _expr_value(raw, where)
            else:
                side.m = _int_value(raw, where)
                if side.m < 0:
                    raise ConfigError(
                        f"{where}: {section}.m must be >= 0, got {side.m}")
        elif section == "output":
            cfg.out_dir = raw.strip().strip("\"'")
        elif key == "theorem":
            cfg.theorem = _int_value(raw, where)
            if cfg.theorem not in (1, 2, 3, 4, 5):
                raise ConfigError(
                    f"{where}: scenario.theorem must be 1..5")
        elif key == "ell":
            cfg.ell = _int_value(raw, where)
            if cfg.ell < 0:
                raise ConfigError(f"{where}: scenario.ell must be >= 0")
        elif key in ("delta", "alpha", "a", "k1", "k2"):
            val = _float_value(raw, where)
            if key in ("delta", "alpha") and val <= 0.0:
                raise ConfigError(f"{where}: scenario.{key} must be > 0")
            setattr(cfg, key, val)
        elif key == "kind":
            word = raw.strip().lower()
            aliases = {"cro": "crossing", "crossing": "crossing",
                       "cri": "critical", "critical": "critical"}
            if word not in aliases:
                raise ConfigError(
                    f"{where}: scenario.kind must be cro or cri")
            cfg.kind = aliases[word]
        elif key == "visibility":
            word = raw.strip().upper()
            if word not in ("V", "I", "L", "R"):
                raise ConfigError(
                    f"{where}: scenario.visibility must be one of V I L R")
            cfg.visibility = word
        elif key == "window":
            bounds = _floats_value(raw, where)
            if len(bounds) != 4:
                raise ConfigError(
                    f"{where}: scenario.window wants x_lo x_hi y_lo y_hi")
            try:
                cfg.window = Window(*bounds)
            except ValueError as exc:
                raise ConfigError(f"{where}: scenario.window: {exc}") from exc
        elif key == "lambda_plus":
            cfg.lambda_plus = _floats_value(raw, where)
        elif key == "lambda_minus":
            cfg.lambda_minus = _floats_value(raw, where)
        elif key == "expect_tangent_points":
            cfg.expect_tangent_points = _int_value(raw, where)

    # Theorems 2-5 synthesise both fields from the canonical family, so a
    # bare upper.m (or nothing at all) is a complete side there; only a scan
    # run needs concrete vector fields in the config.
    needs_fields = cfg.theorem in (None, 1)
    for name, side in (("upper", upper), ("lower", lower)):
        if side.g is not None and side.phi is not None:
            raise ConfigError(
                f"{path.name}: section {name!r} sets both g and phi; "
                f"use one form")
        if needs_fields and side.g is None and side.phi is None:
            raise ConfigError(
                f"{path.name}: section {name!r} needs g, or phi with m")
        if side.phi is not None and side.m is None:
            raise ConfigError(
                f"{path.name}: section {name!r} sets phi without m")
    if not (cfg.a > 0.0 and cfg.k1 > 0.0 and cfg.k2 < 0.0):
        raise ConfigError(
            f"{path.name}: need scenario.a > 0, k1 > 0, k2 < 0")
    return cfg


def _config_window(cfg: RunConfig) -> Window:
    if cfg.window is not None:
        return cfg.window
    return Window(-1.75 * cfg.a, 0.75 * cfg.a, -2.0, 2.0)


def _canonical_for(cfg: RunConfig) -> CanonicalBase:
    """Canonical base from explicit phi sides, else from (m, a, k1, k2)."""
    if cfg.upper.phi is not None and cfg.lower.phi is not None:
        return CanonicalBase.from_strings(
            cfg.upper.f, cfg.upper.phi, cfg.upper.m or 0,
            cfg.lower.f, cfg.lower.phi, cfg.lower.m or 0,
            _config_window(cfg))
    m_p = cfg.upper.m if cfg.upper.m is not None else 1
    m_m = cfg.lower.m if cfg.lower.m is not None else m_p
    return canonical_base(m_p, m_m, cfg.a, cfg.k1, cfg.k2, cfg.window)


def _configured_system(cfg: RunConfig) -> PwsSystem:
    """The system a config describes, before any scenario unfolds it.

    lambdas set: the transition system; explicit g or phi on both sides:
    those fields; otherwise (bare m, as theorem configs have) the
    canonical base.
    """
    if cfg.lambda_plus or cfg.lambda_minus:
        base = _canonical_for(cfg)
        lam_m = cfg.lambda_minus or (0.0,) * (cfg.lower.m or 0)
        return build_transition(UnfoldingSpec(base, cfg.lambda_plus, lam_m))
    if all(side.g is not None or side.phi is not None
           for side in (cfg.upper, cfg.lower)):
        return PwsSystem(ScalarField(cfg.upper.f),
                         ScalarField(cfg.upper.g_expr()),
                         ScalarField(cfg.lower.f),
                         ScalarField(cfg.lower.g_expr()),
                         _config_window(cfg))
    return _canonical_for(cfg).system()


# --------------------------------------------------------------------------
# tangent point CSV


def write_tangent_points_csv(path, scan: TangencyScan) -> None:
    lines = [f"# {TANGENT_CSV_VERSION}",
             "x,m_plus,m_minus,vis_plus,vis_minus,label"]
    for r in scan.records:
        lines.append(",".join((f"{r.x0!r}", str(r.m_plus), str(r.m_minus),
                               r.vis_plus or "", r.vis_minus or "", r.label)))
    Path(path).write_text("\n".join(lines) + "\n")


# --------------------------------------------------------------------------
# SVG portrait

_VIEW_W, _VIEW_H = 800, 600

_KIND_COLORS = {
    "crossing-limit-cycle": "#1a73e8",
    "crossing-periodic": "#6ab7ff",
    "sliding-loop": "#e8710a",
    "grazing": "#188038",
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


def render_portrait(sys: PwsSystem, trajectories: Sequence[Trajectory] = (),
                    records: Sequence[LoopRecord] = ()) -> str:
    """Render the window as a self-contained 800x600 SVG document.

    Sigma is the horizontal midline with sliding stretches thickened,
    tangent points get labeled markers, plain trajectories are grey and
    loop records are colored by kind.
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
    dec = decompose_sigma(sys)
    for x_lo, x_hi in dec.sliding:
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
    scan = find_tangent_points(sys)
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


def _pencil(sys: PwsSystem, n: int = 6) -> List[Trajectory]:
    """A few forward orbits seeded across the top and bottom edges.

    An orbit the flow cannot continue (a TransitFailure) or whose field
    meets a domain error (ArithmeticError, ValueError) is left out.
    """
    w = sys.window
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


def run_scenario(cfg: RunConfig, *, out_dir: Optional[str] = None) -> int:
    """Execute the configured scenario and write every artifact.

    Returns the process exit status: 0 when all asserted counts match.
    """
    out = Path(out_dir if out_dir is not None else cfg.out_dir)
    traj_dir = out / "trajectories"
    traj_dir.mkdir(parents=True, exist_ok=True)

    try:
        censuses: List[LoopCensus] = []
        witnesses: List[Tuple[str, LoopRecord]] = []
        plain: List[Trajectory] = []
        summary: List[str] = []

        if cfg.theorem == 2:
            m_p = cfg.upper.m if cfg.upper.m is not None else 7
            kwargs = {} if cfg.delta is None else {"delta": cfg.delta}
            spec, tc = scenario_thm2(m_p, cfg.visibility, cfg.ell, **kwargs)
            sys_final = build_unfolded(spec)
            census = LoopCensus("thm2", m_p, 0, cfg.ell)
            censuses.append(census)
            plain.extend(tc.orbits)
            got = tc.counts.get(cfg.ell, 0)
            offset = 1 if cfg.visibility == "V" else -1
            want = (m_p + offset) // (2 * cfg.ell)
            summary.append(f"tangent_orbits={got}")
            summary.append(
                "contact_groups=" + ";".join(
                    f"{k}:{v}" for k, v in sorted(tc.counts.items())))
            if got != want:
                raise RangeError(
                    f"tangent orbit count {got} differs from {want}")
        elif cfg.theorem == 3:
            base = _canonical_for(cfg)
            kwargs = {} if cfg.delta is None else {"delta": cfg.delta}
            spec4, rec = scenario_thm3(base, cfg.ell, cfg.kind, **kwargs)
            sys_final = build_unfolded(spec4)
            census = LoopCensus("thm3", base.m_plus, base.m_minus, cfg.ell)
            if cfg.kind == "crossing":
                census.beta_cro[cfg.ell] = 1
            else:
                census.beta_cri[cfg.ell] = 1
            census.witnesses.append((f"{cfg.kind}_l{cfg.ell}", rec))
            censuses.append(census)
            summary.append(f"loop_kind={rec.kind}")
            summary.append(f"tangent_touches={rec.tangent_touch_count}")
        elif cfg.theorem in (4, 5):
            base = _canonical_for(cfg)
            kwargs = {} if cfg.delta is None else {"delta": cfg.delta}
            if cfg.theorem == 4:
                census = scenario_thm4(base, cfg.ell, **kwargs)
            else:
                if cfg.alpha is not None:
                    kwargs["alpha"] = cfg.alpha
                census = scenario_thm5(base, cfg.ell, **kwargs)
            sys_final = build_unfolded(census.notes["spec"])
            censuses.append(census)
            summary.append(f"beta_c={census.beta_c}")
            summary.append(f"beta_s={census.beta_s}")
            summary.append(f"beta_cro_1={census.beta_cro.get(1, 0)}")
            summary.append(f"beta_cri_1={census.beta_cri.get(1, 0)}")
        else:
            # plain scan (scenario.theorem = 1 or omitted): tangencies of
            # the configured system, optionally after a lambda unfolding
            sys_final = _configured_system(cfg)
            census = LoopCensus("scan", cfg.upper.m or 0, cfg.lower.m or 0,
                                cfg.ell)
            censuses.append(census)
            plain.extend(_pencil(sys_final))

        scan = find_tangent_points(sys_final)
        summary.append(f"tangent_points={len(scan.records)}")
        if cfg.expect_tangent_points is not None \
                and len(scan.records) != cfg.expect_tangent_points:
            raise RangeError(
                f"found {len(scan.records)} tangent points, "
                f"config expects {cfg.expect_tangent_points}")

        for census in censuses:
            witnesses.extend(census.witnesses)
        for tag, rec in witnesses:
            name = _safe_tag(tag) + ".csv"
            trajectory_to_csv(rec.trajectory, traj_dir / name)
        for i, traj in enumerate(plain):
            trajectory_to_csv(traj, traj_dir / f"orbit_{i:02d}.csv")

        write_census_csv(out / "census.csv", censuses,
                         witnesses_paths=["trajectories"] * len(censuses))
        write_tangent_points_csv(out / "tangent_points.csv", scan)
        svg = render_portrait(sys_final, plain,
                              [rec for _, rec in witnesses])
        (out / "portrait.svg").write_text(svg)
        for line in summary:
            print(line)
        print(f"artifacts written to {out}")
        return 0
    except Exception as exc:  # noqa: BLE001 - every failure goes to disk
        out.mkdir(parents=True, exist_ok=True)
        diag = out / "diagnostics.txt"
        diag.write_text(
            f"{type(exc).__name__}: {exc}\n\n{traceback.format_exc()}")
        print(f"error: {type(exc).__name__}: {exc}", file=_sys.stderr)
        print(f"diagnostics written to {diag}", file=_sys.stderr)
        return 1


def run_portrait(cfg: RunConfig, *, out_dir: Optional[str] = None) -> int:
    out = Path(out_dir if out_dir is not None else cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    try:
        sys_final = _configured_system(cfg)
        svg = render_portrait(sys_final, _pencil(sys_final), [])
        (out / "portrait.svg").write_text(svg)
        print(f"portrait written to {out / 'portrait.svg'}")
        return 0
    except Exception as exc:  # noqa: BLE001
        diag = out / "diagnostics.txt"
        diag.write_text(
            f"{type(exc).__name__}: {exc}\n\n{traceback.format_exc()}")
        print(f"error: {type(exc).__name__}: {exc}", file=_sys.stderr)
        return 1


# --------------------------------------------------------------------------
# self-test battery


def _random_system(rng: np.random.Generator) -> PwsSystem:
    """A random polynomial system with a guaranteed sliding stretch."""
    c = [float(v) for v in rng.uniform(-2.0, 2.0, size=6)]
    f_p = f"{1.0 + abs(c[0])!r} + {c[1]!r}*x"
    f_m = f"{-(1.0 + abs(c[2]))!r} + {c[3]!r}*x"
    g_p = f"{1.0 + abs(c[4])!r} + x*x"
    g_m = f"{-(1.0 + abs(c[5]))!r} - x*x*0.5"
    return PwsSystem(ScalarField(f_p), ScalarField(g_p),
                     ScalarField(f_m), ScalarField(g_m),
                     Window(-2.0, 2.0, -2.0, 2.0))


def _check_convex(seed: int) -> Optional[str]:
    rng = np.random.default_rng(seed)
    systems = [_random_system(rng) for _ in range(20)]
    xs = rng.uniform(-2.0, 2.0, size=(20, 500))

    def worst(sys_i: PwsSystem, row) -> float:
        bad = 0.0
        for x in row:
            x = float(x)
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

    sys_c, rec = canonical_critical_loop(1, 1, 1.0, 1.0, -1.0)
    if rec.kind != "critical":
        return f"canonical loop classified {rec.kind}"
    hit = _flow_to_section(sys_c.f_plus, sys_c.g_plus, (-1.0, 0.0),
                           Section.vertical(-2.0 / 3.0))
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
    version, header, rows = read_trajectory_csv(tmp / "orbit.csv")
    n_in = sum(len(a.t) for a in traj.arcs)
    if version != "filippov2d-trajectory-v1" or header[0] != "t":
        return f"unexpected trajectory csv shape: {version}, {header[:3]}"
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
    p_run.add_argument("--out", default=None, help="output directory")

    p_por = sub.add_parser("portrait", help="render the configured system")
    p_por.add_argument("config")
    p_por.add_argument("--out", default=None)

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
