"""Seeded config generator for the scenario benchmark.

A workload is a list of config specs (plain dicts, see workloads.json).
The seed fixes the pass order of every workload and, for ``classify``,
the split positions and phi slopes of the generated scan systems; the
multiplicity pattern of those systems is fixed. The same seed always
gives the same specs and the same config files.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Dict, List, Optional

WORKLOADS: Dict[str, dict] = json.loads(
    Path(__file__).with_name("workloads.json").read_text())

# workloads the benchmark times; "known_failures" is run on its own
TIMED = ("displace", "graze", "classify")

_JITTER = 0.2      # split-position jitter, as a share of the slot spacing
_UPPER_SLOPE = (250, 350)  # phi slopes, in thousandths
_LOWER_SLOPE = (200, 300)


def _fixed_width(rng: random.Random, lo: int, hi: int, scale: int) -> float:
    """A random multiple of 1/scale whose shortest repr has all its digits.

    Every generated constant is printed with the same number of digits, so
    the size of the derivative code (and its compile time) does not
    depend on the seed.
    """
    k = rng.randint(lo, hi)
    return (k + (k % 10 == 0)) / scale


def _on_grid(x: float, grid: dict) -> float:
    """The exact grid point nearest to x (see workloads.json scan_grid).

    A k-fold split point (k > 1) flattens g below the tangency scan's zero
    threshold over several cells, and the scan then reports the deepest
    grid point instead of the zero; off the grid that misreads the
    multiplicity (the known failure repeated_7_off_grid). Repeated points
    therefore sit at a fixed grid point; only simple points move.
    """
    j = round((x - grid["x_lo"]) / grid["step"])
    return grid["x_lo"] + j * grid["step"]


def _scan_spec(system: dict, workload: dict, rng: random.Random) -> dict:
    """Place one system's split points on a row of slots.

    Every distinct split point of either side gets its own slot, so the
    predicted tangent points are the slots, each with the multiplicity of
    its split point. The lower points take evenly spread slots; the upper
    points fill the rest in order. Simple points are jittered inside their
    slot; repeated points sit on the grid point nearest the slot centre.
    """
    ups, lows = system["upper"], system["lower"]
    n = len(ups) + len(lows)
    lo, hi = workload["split_window"]
    step = (hi - lo) / n
    low_slots = {int((j + 0.5) * n / len(lows)) for j in range(len(lows))}
    kinds = iter(ups)
    lower_kinds = iter(lows)
    points = []  # (x, m_plus, m_minus) in x order
    for i in range(n):
        centre = lo + (i + 0.5) * step
        if i in low_slots:
            mult = (0, next(lower_kinds))
        else:
            mult = (next(kinds), 0)
        if max(mult) > 1:
            x = _on_grid(centre, workload["scan_grid"])
        else:
            reach = int(_JITTER * step * 1e4)
            x = _fixed_width(rng, round(centre * 1e4) - reach,
                             round(centre * 1e4) + reach, 10000)
        points.append((x,) + mult)
    s_p = _fixed_width(rng, *_UPPER_SLOPE, 1000)
    s_m = _fixed_width(rng, *_LOWER_SLOPE, 1000)
    return {"name": system["name"],
            "upper_phi": f"1 + {s_p!r}*x",
            "lambda_plus": [x for x, k, _ in points for _ in range(k)],
            "lower_phi": f"1 + {s_m!r}*x",
            "lambda_minus": [x for x, _, k in points for _ in range(k)],
            "window": workload["window"],
            "tangent_points": n,
            "multiplicities": [list(p) for p in points]}


def workload_specs(name: str, seed: int) -> List[dict]:
    """The workload's config specs, in this seed's pass order."""
    w = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    if "systems" in w:
        specs = [_scan_spec(s, w, rng) for s in w["systems"]]
    else:
        specs = [dict(c) for c in w["configs"]]
    if w.get("check"):
        specs.append({"name": "check", "check_seed": seed})
    rng.shuffle(specs)
    return specs


def config_text(spec: dict) -> str:
    """The line-oriented config file for one spec."""
    if "theorem" in spec:
        lines = [f"upper.m = {spec['m']}", f"lower.m = {spec['m']}",
                 f"scenario.theorem = {spec['theorem']}",
                 f"scenario.ell = {spec['ell']}"]
        for key in ("kind", "visibility", "delta"):
            if key in spec:
                lines.append(f"scenario.{key} = {spec[key]}")
    else:
        lines = ['upper.f = "1"', f'upper.phi = "{spec["upper_phi"]}"',
                 f"upper.m = {len(spec['lambda_plus'])}",
                 'lower.f = "-1"', f'lower.phi = "{spec["lower_phi"]}"',
                 f"lower.m = {len(spec['lambda_minus'])}",
                 "scenario.lambda_plus = "
                 + " ".join(repr(v) for v in spec["lambda_plus"]),
                 "scenario.lambda_minus = "
                 + " ".join(repr(v) for v in spec["lambda_minus"])]
        if "window" in spec:
            lines.append("scenario.window = "
                         + " ".join(repr(v) for v in spec["window"]))
    return "\n".join(lines) + "\n"


def write_configs(specs: List[dict], directory: Path) -> List[dict]:
    """Write one config file per spec; returns the specs with their path."""
    directory.mkdir(parents=True, exist_ok=True)
    out = []
    for spec in specs:
        spec = dict(spec)
        if "check_seed" not in spec:
            path = directory / f"{spec['name']}.cfg"
            path.write_text(config_text(spec))
            spec["path"] = str(path)
        out.append(spec)
    return out


def round_trip_error(spec: dict, cfg) -> Optional[str]:
    """Compare a RunConfig parsed by load_config with the spec it came from."""
    if "theorem" in spec:
        want = {"theorem": spec["theorem"], "ell": spec["ell"],
                "upper.m": spec["m"], "lower.m": spec["m"],
                "kind": spec.get("kind", "crossing"),
                "visibility": spec.get("visibility", "I"),
                "delta": spec.get("delta")}
    else:
        want = {"theorem": None,
                "upper.phi": spec["upper_phi"],
                "lower.phi": spec["lower_phi"],
                "upper.m": len(spec["lambda_plus"]),
                "lower.m": len(spec["lambda_minus"]),
                "lambda_plus": tuple(spec["lambda_plus"]),
                "lambda_minus": tuple(spec["lambda_minus"]),
                "window": tuple(spec["window"]) if "window" in spec else None}
    got = {"theorem": cfg.theorem, "ell": cfg.ell, "kind": cfg.kind,
           "visibility": cfg.visibility, "delta": cfg.delta,
           "upper.m": cfg.upper.m, "lower.m": cfg.lower.m,
           "upper.phi": cfg.upper.phi, "lower.phi": cfg.lower.phi,
           "lambda_plus": cfg.lambda_plus, "lambda_minus": cfg.lambda_minus,
           "window": cfg.window and (cfg.window.x_lo, cfg.window.x_hi,
                                     cfg.window.y_lo, cfg.window.y_hi)}
    bad = [f"{k}: {got[k]!r} != {v!r}" for k, v in want.items()
           if got[k] != v]
    return "; ".join(bad) if bad else None
