"""Scenario benchmark for filippov2d.

    python3 perfbench/run.py --workload {displace,graze,classify} \\
        --seed N --seconds S --trace {0,1}

Run it from the root of a source checkout: it imports ``src/filippov2d``
and nothing installed. The seed generates the workload's config files
(perfbench/generate.py) in a scratch directory under the checkout, which
is removed at the end; the program only ever sees those files.

Untraced (``--trace 0``): one fresh interpreter per pass over the config
list, as many passes as fit in S seconds (at least one), and extra
set-up-only interpreters until there are five set-up samples.
Prints the end-to-end metrics:

  wall_s       time spent inside cli.main over one pass: the sum over the
               configs of each config's median time
  setup_s      median time from a fresh interpreter to filippov2d.cli
               imported and every config parsed by load_config
  peak_rss_mb  median peak resident set of the interpreter of one pass

Both times are given at reference speed: rescaled by a fixed loop timed
just before and after each interval, so that a shared machine's drifting
speed does not move them (speed.py). The raw times are printed above the
result line.

Traced (``--trace 1``): one untraced pass, then traced passes (at least two,
more while they fit in S seconds) under perfbench/tracing.py. Prints the per-layer metrics,
the tracing overhead and the work counters, and checks that the counters
agree with each other and repeat exactly from pass to pass.

Every run is judged by the census oracle (perfbench/oracle.py). The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import speed
from generate import TIMED, WORKLOADS, workload_specs, write_configs

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 5
TIME_LIMIT_S = 170.0  # a run must end within 180 s
WORK_DIR = ".perfbench_work"


def unit_of(metric: str) -> str:
    for suffix, unit in (("_mb", "MB"), ("_us", "us"), ("_s", "s")):
        if metric.endswith(suffix):
            return unit
    return "ms" if "_ms" in metric else "count"


class Bench:
    """Starts worker interpreters and collects their results."""

    def __init__(self, root: Path, work: Path):
        self.work = work
        self.started = time.monotonic()
        # one single-threaded load: no idle BLAS/OpenMP worker threads
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"),
                        TMPDIR=str(work), PYTHONHASHSEED="0",
                        OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        self.src = (root / "src").resolve()

    def spawn(self, *flags: str) -> dict:
        """Run one worker; returns its result plus set-up time and RSS."""
        result_path = self.work / "result.json"
        log_path = self.work / "worker.log"
        budget = TIME_LIMIT_S - (time.monotonic() - self.started)
        before = speed.loop_seconds()
        with open(log_path, "wb") as log:
            t0 = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "worker.py"),
                 str(self.work / "specs.json"), str(result_path), *flags],
                env=self.env, stdout=log, stderr=subprocess.STDOUT)
            status, rusage = self._wait(proc, t0 + max(budget, 1.0))
        if status != 0:
            tail = log_path.read_text(errors="replace")[-2000:]
            raise RuntimeError(f"worker exited with {status}:\n{tail}")
        result = json.loads(result_path.read_text())
        if not Path(result["module"]).resolve().is_relative_to(self.src):
            raise RuntimeError(f"imported {result['module']}, not {self.src}")
        result["raw_setup_s"] = result["ready"] - t0
        result["setup_s"] = speed.to_reference(
            result["raw_setup_s"], before, speed.loop_seconds())
        result["peak_rss_mb"] = rusage.ru_maxrss / 1024.0  # KiB on Linux
        return result

    @staticmethod
    def _wait(proc, deadline):
        """Wait for the worker; it never outlives this process's wait."""
        try:
            while True:
                pid, status, rusage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    proc.returncode = os.waitstatus_to_exitcode(status)
                    return proc.returncode, rusage
                if time.monotonic() > deadline:
                    raise RuntimeError("worker killed: over the time limit")
                time.sleep(0.01)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -9
            raise


@contextlib.contextmanager
def work_dir(root: Path):
    """A scratch directory under the checkout, removed afterwards."""
    (root / WORK_DIR).mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=root / WORK_DIR))
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            (root / WORK_DIR).rmdir()


def _median(results, key):
    return statistics.median(r[key] for r in results)


def _tally(passes):
    runs = [r for p in passes for r in p["runs"]]
    failures = [f"{r['name']}: {r['failure']}" for r in runs if r["failure"]]
    return len(runs), failures


def config_seconds(passes, key="ref_seconds") -> dict:
    """Each config's run times over the passes, by config name."""
    out = {}
    for p in passes:
        for r in p["runs"]:
            out.setdefault(r["name"], []).append(r[key])
    return dict(sorted(out.items()))


def pass_wall(passes, key="ref_seconds") -> float:
    """One pass's wall time: the sum of each config's median run time.

    Taking the median per config, not per pass, keeps a slow stretch of
    the machine that hits one config out of the other configs' figures.
    """
    return sum(statistics.median(v)
               for v in config_seconds(passes, key).values())


def _report_configs(passes) -> None:
    raw = config_seconds(passes, "seconds")
    for name, secs in config_seconds(passes).items():
        print(f"  {name:<24} {statistics.median(secs):9.3f} s at reference "
              "speed, raw " + " ".join(f"{v:.3f}" for v in raw[name]))
    print(f"raw wall_s {pass_wall(passes, 'seconds'):.4f}")


def _passes(bench: Bench, seconds: float, *flags: str, least: int = 1):
    """At least `least` passes, then more while the next one should end
    within `seconds` of the start (judged by the last pass's length)."""
    passes, last = [], 0.0
    while len(passes) < least or \
            time.monotonic() - bench.started + last <= seconds:
        t0 = time.monotonic()
        passes.append(bench.spawn(*flags))
        last = time.monotonic() - t0
    return passes


def untraced(bench: Bench, seconds: float):
    passes = _passes(bench, seconds)
    setups = passes[:]
    while len(setups) < SETUP_SAMPLES:
        setups.append(bench.spawn("--setup-only"))
    _report_configs(passes)
    metrics = {"wall_s": pass_wall(passes),
               "setup_s": _median(setups, "setup_s"),
               "peak_rss_mb": _median(passes, "peak_rss_mb")}
    print(f"{len(passes)} passes, {len(setups)} set-up samples, raw setup_s "
          f"{_median(setups, 'raw_setup_s'):.4f}")
    return passes, metrics, []


def traced(bench: Bench, seconds: float):
    plain = bench.spawn()
    passes = _passes(bench, seconds, "--trace", least=2)
    problems = [f"pass {i}: {msg}" for i, p in enumerate(passes)
                for msg in p["inconsistent"]]
    first = passes[0]["counts"]
    for i, p in enumerate(passes[1:], start=1):
        moved = sorted(k for k in first.keys() | p["counts"].keys()
                       if first.get(k) != p["counts"].get(k))
        if moved:
            problems.append(f"pass {i}: counters differ from pass 0: "
                            + ", ".join(moved[:8]))
    _report_configs(passes)
    metrics = {k: statistics.median(p["layers"][k] for p in passes)
               for k in passes[0]["layers"]}
    metrics["trace.wall_s"] = pass_wall(passes)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - pass_wall([plain])
    print(f"{len(passes)} traced passes")
    print("work counters: " + json.dumps(first, sort_keys=True))
    return [plain] + passes, metrics, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=TIMED)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated run still stops its worker and removes its scratch files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    root = Path.cwd()
    if not (root / "src" / "filippov2d" / "cli.py").is_file():
        print(f"error: {root} is not a filippov2d checkout "
              "(src/filippov2d/cli.py missing); run from its root",
              file=sys.stderr)
        return 2
    with work_dir(root) as work:
        specs = write_configs(workload_specs(args.workload, args.seed),
                              work / "configs")
        (work / "specs.json").write_text(json.dumps(
            {"workload": WORKLOADS[args.workload], "specs": specs}))
        run = traced if args.trace else untraced
        passes, metrics, problems = run(Bench(root, work), args.seconds)

    attempted, failures = _tally(passes)
    for line in failures + problems:
        print(f"FAIL {line}")
    for name, value in metrics.items():
        print(f"{name:<36} {value:>14.6g} {unit_of(name)}")
    print(json.dumps({
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": unit_of(k)}
                    for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
