"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import run
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
COUNT_UNITS = ("count", "B")

_results: dict = {}


def _run(workload: str, trace: int = 0, pinned=None, script=HERE / "run.py"):
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    if pinned is not None:
        cmd += ["--pinned", str(pinned)]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=170)


def _result(workload: str, trace: int) -> tuple[int, dict]:
    if (workload, trace) not in _results:
        proc = _run(workload, trace)
        _results[workload, trace] = proc.returncode, json.loads(proc.stdout.splitlines()[-1])
    return _results[workload, trace]


def test_benchmark_json_matches_the_benchmark():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.NAMES)
    for w in BENCHMARK["workloads"]:
        assert w["why"] == workloads.METADATA["workloads"][w["name"]]["why"]


def test_inputs_depend_only_on_the_seed():
    for name in workloads.NAMES:
        assert workloads.build(name, 5) == workloads.build(name, 5)
        assert replace(workloads.build(name, 5), seed=0) != replace(workloads.build(name, 6), seed=0)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_every_metric_is_reported_with_its_unit(workload, trace):
    code, result = _result(workload, trace)
    assert code == 0
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    values = [m["value"] for m in result["metrics"].values()]
    assert all(isinstance(v, (int, float)) for v in values)
    if not trace:
        assert all(v > 0 for v in values)


def test_end_to_end_times_are_scaled_by_the_calibration():
    assert "andersonstats" not in run.CALIBRATION
    assert _run("mc-d1").returncode == 0
    record = json.loads((run.WORK / "mc-d1-seed3-trace0.json").read_text(encoding="utf-8"))
    extra, metrics = record["extra"], record["metrics"]
    scale = run.CALIBRATION_REF_S / statistics.median(extra["calibration_s"])
    assert extra["scale"] == pytest.approx(scale)
    assert metrics["pass_s.p50"]["value"] == pytest.approx(extra["wall.pass_s.p50"] * scale)
    assert metrics["setup_s"]["value"] == pytest.approx(extra["wall.setup_s"] * scale)
    assert sum(extra["calibration_s"]) >= run.CALIBRATION_SHARE * sum(record["pass_walls"])


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_counts_repeat_exactly(workload):
    _, first = _result(workload, 1)
    second = json.loads(_run(workload, 1).stdout.splitlines()[-1])
    counts = [name for name, unit in run.PER_LAYER.items() if unit in COUNT_UNITS]
    assert {n: first["metrics"][n] for n in counts} == {n: second["metrics"][n] for n in counts}


@pytest.mark.parametrize("workload, section", [("exact-cli", "mean_trace"),
                                               ("mc-d1", "exact_means")])
def test_a_wrong_pinned_value_fails_the_run(tmp_path, workload, section):
    pinned = json.loads((HERE / "pinned.json").read_text(encoding="utf-8"))
    for key, value in pinned[section].items():
        if isinstance(value, list):
            pinned[section][key] = [str(Fraction(v) + 1) for v in value]
        else:
            pinned[section][key] = str(Fraction(value) + 1)
    path = tmp_path / "pinned.json"
    path.write_text(json.dumps(pinned), encoding="utf-8")
    proc = _run(workload, pinned=path)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert proc.returncode == 1
    assert result["correct"] is False and 0 < result["failed"] <= result["attempted"]
    assert "FAILED CHECK" in proc.stdout


def test_without_the_package_it_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("exact-cli", script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""
