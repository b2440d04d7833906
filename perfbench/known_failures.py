"""Run the configs that fail at the benchmark's base commit.

    python3 perfbench/known_failures.py

Run from the root of a source checkout. Each config in
workloads.json["known_failures"] goes through the same worker and census
oracle as the timed workloads, and its failure record (exception class and
first message line, or the oracle's mismatch) is compared with the one
recorded in workloads.json. Exit status 0 when every record is unchanged,
1 when a failure went away or turned into another one: then update the
records, and move a config that now passes into its timed workload.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from generate import WORKLOADS, write_configs
from run import Bench, work_dir


def main() -> int:
    root = Path.cwd()
    if not (root / "src" / "filippov2d" / "cli.py").is_file():
        print("error: run from the root of a filippov2d checkout",
              file=sys.stderr)
        return 2
    known = WORKLOADS["known_failures"]
    with work_dir(root) as work:
        specs = write_configs(known["configs"], work / "configs")
        (work / "specs.json").write_text(json.dumps(
            {"workload": known, "specs": specs}))
        runs = Bench(root, work).spawn()["runs"]
    changed = 0
    for r in runs:
        want = known["records"].get(r["name"])
        same = r["failure"] == want
        changed += not same
        print(f"{'same' if same else 'CHANGED':<8}{r['name']:<22}"
              f"{r['seconds']:7.2f} s  {r['failure']}")
        if not same:
            print(f"{'':<30}recorded: {want}")
    return 1 if changed else 0


if __name__ == "__main__":
    raise SystemExit(main())
