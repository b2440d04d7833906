"""One sha1 per scenario case, to compare the outputs of two checkouts.

    python3 tests/artifact_digest.py --src <checkout>/src > digests.txt

Runs, in one interpreter on the package under --src:

* ``filippov2d run`` over every distinct config that perfbench/generate.py
  writes for seeds 1, 2, 4242 and 5151 of the displace, graze, classify
  and known_failures workloads (the seed only reorders the theorem
  workloads, so each of their configs runs once);
* ``filippov2d check --seed 1..3``;
* scenario_thm2 for m = 3, 5, 7 and 9, O invisible and visible,
  scenario_thm3 at (3,3) and (5,5) for both kinds, and scenario_thm4
  and scenario_thm5 at (3,3), (5,5), (7,7) and (7,5), each for every
  ell: the census (counts, witness arcs and events, switching points,
  residuals, dropped roots) and the tangency scan of its unfolded
  system, every float in hex, or the failure message.

Each case's digest covers its artifacts (relative path and bytes), stdout,
stderr and exit code. The output directory's path and the --src path are
replaced by placeholders, and each traceback ``File`` line keeps its file
name and function but loses its line number and the source lines under
it, so a moved line does not change a digest. Two checkouts whose printed
lines are equal produced the same outputs: diff the two files. pytest does
not collect this file.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import re
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from generate import config_text, workload_specs  # noqa: E402

SEEDS = (1, 2, 4242, 5151)
WORKLOADS = ("displace", "graze", "classify", "known_failures")
_FILE_LINE = re.compile(r'^(\s*)File "(?:.*/)?([^/"]+)", line \d+, in (.*)$')


def _normalized(text: str, paths) -> str:
    for path, name in paths:
        text = text.replace(path, name)
    out, in_frame = [], False
    for line in text.splitlines():
        m = _FILE_LINE.match(line)
        if m:
            out.append(f'{m[1]}File "{m[2]}", in {m[3]}')
            in_frame = True
        elif in_frame and line.startswith("    "):
            continue   # the frame's source line and its carets
        else:
            out.append(line)
            in_frame = False
    return "\n".join(out)


def _cli_case(argv, src: str) -> str:
    from filippov2d import cli

    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(tmp) / "out"
        full = argv + ["--out", str(out_dir)] if argv[0] == "run" else argv
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            rc = cli.main(full)
        paths = [(str(out_dir), "<out>"), (src, "<src>")]
        h = hashlib.sha1(f"rc={rc}\n".encode())
        for label, text in (("stdout", stdout.getvalue()),
                            ("stderr", stderr.getvalue())):
            h.update(f"{label}\n{_normalized(text, paths)}\n".encode())
        files = sorted(p for p in out_dir.rglob("*") if p.is_file()) \
            if out_dir.exists() else []
        for p in files:
            body = _normalized(p.read_text(), paths)
            h.update(f"{p.relative_to(out_dir)}\n{body}\n".encode())
        return h.hexdigest()


def _dump(obj) -> str:
    """A float as hex, containers element by element, a census by its
    fields (its spec left out: the tangency scan stands for it)."""
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(map(_dump, obj)) + "]"
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{_dump(k)}: {_dump(v)}"
                               for k, v in sorted(obj.items())) + "}"
    if hasattr(obj, "__dict__") and not isinstance(obj, type):
        return type(obj).__name__ + _dump(
            {k: v for k, v in vars(obj).items() if k != "spec"})
    return repr(obj)


def _scenario_case(theorem: int, ms, args, src: str) -> str:
    """ms: thm2's (m_plus,), or the (m_plus, m_minus) of the canonical
    base of thm3-thm5."""
    from filippov2d import (build_unfolded, canonical_base,
                            find_tangent_points, loops)

    try:
        first = ms[0] if theorem == 2 else canonical_base(*ms)
        census = getattr(loops, f"scenario_thm{theorem}")(first, *args)
        scan = find_tangent_points(build_unfolded(census.spec))
        text = _dump(census) + "\n" + _dump(scan)
    except Exception as exc:  # noqa: BLE001 - a failure is an outcome too
        text = f"{type(exc).__name__}: {exc}"
    return hashlib.sha1(_normalized(text, [(src, "<src>")])
                        .encode()).hexdigest()


def _cases(src: str):
    seen = set()
    for workload in WORKLOADS:
        for seed in SEEDS:
            for spec in workload_specs(workload, seed):
                if "check_seed" in spec:
                    continue
                text = config_text(spec)
                if text in seen:
                    continue
                seen.add(text)
                name = f"run {workload}/{seed}/{spec['name']}"
                yield name, lambda text=text: _run(text, src)
    for seed in (1, 2, 3):
        yield f"check --seed {seed}", \
            lambda seed=seed: _cli_case(["check", "--seed", str(seed)], src)
    for m in (3, 5):
        for kind, top in (("crossing", m // 2), ("critical", (m + 1) // 2)):
            for ell in range(1, top + 1):
                yield f"thm3 ({m},{m}) {kind} ell={ell}", \
                    lambda m=m, args=(ell, kind): _scenario_case(
                        3, (m, m), args, src)
    for theorem, top in ((4, -1), (5, 1)):
        for ms in ((3, 3), (5, 5), (7, 7), (7, 5)):
            for ell in range((ms[0] + top) // 2 + 1):
                yield f"thm{theorem} ({ms[0]},{ms[1]}) ell={ell}", \
                    lambda t=theorem, ms=ms, args=(ell,): _scenario_case(
                        t, ms, args, src)
    for m in (3, 5, 7, 9):
        for vis, top in (("I", (m - 1) // 2), ("V", (m + 1) // 2)):
            for ell in range(1, top + 1):
                yield f"thm2 m={m} {vis} ell={ell}", \
                    lambda m=m, args=(vis, ell): _scenario_case(
                        2, (m,), args, src)


def _run(text: str, src: str) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "run.cfg"
        cfg.write_text(text)
        return _cli_case(["run", str(cfg)], src)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", required=True,
                    help="the src directory of the checkout to digest")
    src = str(Path(ap.parse_args().src).resolve())
    sys.path.insert(0, src)
    for name, case in _cases(src):
        print(f"{case()}  {name}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
