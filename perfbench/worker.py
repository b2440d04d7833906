"""One pass over a workload's configs, in a fresh interpreter.

Usage (started by run.py, never by hand):
    python3 perfbench/worker.py <specs.json> <result.json> [--setup-only]
                                [--trace]

The worker imports ``filippov2d.cli`` and parses every config with
``load_config``; the moment that is done is the end of set-up. It then
passes each config to ``cli.main(["run", cfg, "--out", tmp])`` in-process
(``cli.main(["check", "--seed", n])`` for the check entry), judges the
output with the census oracle and writes a JSON result. Each config's
time is also given at reference speed (speed.py). With --trace the
pass runs under the Tracer and the result carries per-layer metrics.
"""

import time  # first: set-up is timed from interpreter start

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import oracle
import speed
from generate import round_trip_error


def _load(specs):
    from filippov2d.cli import load_config

    errors = {}
    for spec in specs:
        if "path" in spec:
            err = round_trip_error(spec, load_config(spec["path"]))
            if err:
                errors[spec["name"]] = f"RoundTrip: {err}"
    return errors


def _run_one(spec, work: Path, tracer):
    from filippov2d import cli

    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        argv = (["check", "--seed", str(spec["check_seed"])]
                if "check_seed" in spec
                else ["run", spec["path"], "--out", tmp])
        before = speed.loop_seconds()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is None:
                rc = cli.main(argv)
            else:
                tracer.config = spec["name"]
                rc = tracer.run("cli.run", cli.main, argv)
        seconds = time.perf_counter() - t0
        ref_seconds = speed.to_reference(seconds, before, speed.loop_seconds())
        if "check_seed" in spec:
            failure = oracle.judge_check(rc, out.getvalue())
        else:
            failure = oracle.judge_run(spec, rc, out.getvalue(),
                                       err.getvalue(), Path(tmp))
    return {"name": spec["name"], "rc": rc, "seconds": seconds,
            "ref_seconds": ref_seconds, "failure": failure}


def _psi_specs(arg):
    """The nonzero shear profiles of an UnfoldingSpec (none otherwise)."""
    from filippov2d.cutoffs import zero_psi
    from filippov2d.unfolding import UnfoldingSpec

    if not isinstance(arg, UnfoldingSpec):
        return []
    return [p for p in (arg.psi_plus, arg.psi_minus) if not zero_psi(p)]


def _probes(tracer, workload: dict):
    """Per-call timings on the systems the pass built (tracer removed)."""
    import probes
    from filippov2d.fieldexpr import ScalarField
    from filippov2d.unfolding import UnfoldingSpec, build_transition
    from tracing import percentile_ms

    system, arg = tracer.systems[workload["probe"]]
    transition = (build_transition(arg) if isinstance(arg, UnfoldingSpec)
                  else system)
    candidates = [workload["probe"]] + [
        c["name"] for c in workload.get("configs", ())]
    psi_specs = [spec for name in candidates if name in tracer.systems
                 for spec in _psi_specs(tracer.systems[name][1])]
    field = transition.g_plus
    if not isinstance(field, ScalarField):
        raise TypeError(f"probe system has no expression field: {field!r}")
    disp = tracer.durations("loops.displacement") \
        or probes.reference_displacement_seconds()
    return {
        "maps.displacement_ms_p50": percentile_ms(disp, 50),
        "maps.displacement_ms_p90": percentile_ms(disp, 90),
        "unfolding.rhs_point_us": probes.rhs_point_us(system),
        "fieldexpr.value_us": probes.value_us(field, transition.window),
        "cutoffs.psi_us": probes.psi_us(
            psi_specs[0] if psi_specs else probes.reference_psi_spec()),
    }


def main(argv):
    specs_path, result_path = Path(argv[0]), Path(argv[1])
    payload = json.loads(specs_path.read_text())
    specs = payload["specs"]
    import filippov2d.cli  # noqa: F401 - the import is part of set-up

    load_errors = _load(specs)
    ready = time.monotonic()
    result = {"ready": ready,
              "module": filippov2d.cli.__file__}
    if "--setup-only" not in argv:
        work = specs_path.parent
        tracer = None
        if "--trace" in argv:
            from tracing import Tracer
            tracer = Tracer().install()
        runs = []
        for spec in specs:
            if spec["name"] in load_errors:
                runs.append({"name": spec["name"], "rc": None, "seconds": 0.0,
                             "failure": load_errors[spec["name"]]})
            else:
                runs.append(_run_one(spec, work, tracer))
        result["runs"] = runs
        if tracer is not None:
            tracer.uninstall()
            result["layers"] = tracer.layer_metrics()
            result["counts"] = tracer.work_counts()
            result["inconsistent"] = tracer.consistency()
            result["layers"].update(_probes(tracer, payload["workload"]))
    result_path.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
