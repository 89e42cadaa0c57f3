"""BENCHMARK.json agrees with run.py, and every name and unit is well formed."""

import json
import os
import re

import run

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def load():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_metric_and_workload_names_are_well_formed_and_unique():
    doc = load()
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    names += [w["name"] for w in doc["workloads"]]
    assert all(NAME.fullmatch(name) for name in names), names
    assert len(names) == len(set(names))
    for metric in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric


def test_benchmark_json_matches_what_run_py_prints():
    doc = load()
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
    assert tuple(w["name"] for w in doc["workloads"]) == run.WORKLOADS
    assert doc["command"] == ["python3", "perfbench/run.py"]


def test_bounds_and_setup_metric_follow_the_contract():
    doc = load()
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert len(json.dumps(doc)) < 64 * 1024
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in doc["workloads"])
