"""The seeded config generator: determinism and load_config round trip."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import pytest  # noqa: E402

from filippov2d.cli import load_config  # noqa: E402
from generate import (TIMED, WORKLOADS, config_text, round_trip_error,  # noqa: E402
                      workload_specs, write_configs)


@pytest.mark.parametrize("name", TIMED)
def test_same_seed_same_configs(name):
    a, b = workload_specs(name, 7), workload_specs(name, 7)
    assert a == b
    assert [config_text(s) for s in a if "check_seed" not in s] == \
        [config_text(s) for s in b if "check_seed" not in s]


def test_seed_moves_classify_systems_but_not_their_pattern():
    a = {s["name"]: s for s in workload_specs("classify", 1)}
    b = {s["name"]: s for s in workload_specs("classify", 2)}
    assert a.keys() == b.keys()
    assert a["simple_5_3"]["lambda_plus"] != b["simple_5_3"]["lambda_plus"]
    for name in a:
        if name != "check":
            mults = [p[1:] for p in a[name]["multiplicities"]]
            assert mults == [p[1:] for p in b[name]["multiplicities"]]


def test_seed_orders_the_pass():
    orders = {tuple(s["name"] for s in workload_specs("graze", seed))
              for seed in range(5)}
    assert len(orders) > 1


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", TIMED + ("known_failures",))
def test_every_config_round_trips_through_load_config(name, seed, tmp_path):
    specs = (WORKLOADS[name]["configs"] if name == "known_failures"
             else workload_specs(name, seed))
    for spec in write_configs(specs, tmp_path):
        if "path" in spec:
            assert round_trip_error(spec, load_config(spec["path"])) is None


def test_round_trip_catches_a_changed_value(tmp_path):
    spec = write_configs([WORKLOADS["graze"]["configs"][0]], tmp_path)[0]
    doctored = dict(spec, ell=spec["ell"] + 1)
    assert "ell" in round_trip_error(doctored, load_config(spec["path"]))
