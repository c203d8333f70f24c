from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import andersonstats
from andersonstats import (
    BudgetExceededError,
    MomentModel,
    Poly,
    degenerate_basis,
    mean_trace_exact,
    path_counts,
    run_experiment,
    sigma_squared,
    verify_reference_table,
    BoxSpec,
)
from andersonstats.cli import main
from andersonstats.hamiltonian import half_power_cells


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    out = json.loads(captured.out) if captured.out.strip() else None
    err = json.loads(captured.err) if captured.err.strip() else None
    return code, out, err


def test_pathcount_table_matches_library(capsys):
    code, out, err = run_cli(capsys, "pathcount", "--k", "3", "--d", "1")
    assert code == 0 and err is None
    assert out["schema_version"] == 1
    expected = path_counts(3, 1).to_json_dict()
    assert {(e["beta"], e["p"]) for e in out["counts"]} == {
        (e["beta"], e["p"]) for e in expected["counts"]
    }
    assert out["counts"] == [{"beta": "0:1", "p": 6}, {"beta": "0:3", "p": 1}]


def test_pathcount_single_class(capsys):
    code, out, _ = run_cli(capsys, "pathcount", "--k", "4", "--d", "1", "--beta", "0:1;1:1")
    assert code == 0 and out["p"] == 4

    # canonicalized before lookup
    code, out, _ = run_cli(capsys, "pathcount", "--k", "4", "--d", "1", "--beta", "3:1;4:1")
    assert code == 0 and out["p"] == 4 and out["beta"] == "0:1;1:1"

    code, out, _ = run_cli(capsys, "pathcount", "--k", "2", "--d", "3", "--beta", "0,0,0:1")
    assert code == 0 and out["p"] == 0


@pytest.mark.parametrize("d", [1, 2, 3])
def test_verify_table_passes(capsys, d):
    code, out, _ = run_cli(capsys, "verify-table", "--d", str(d))
    assert code == 0
    assert out["match"] is True
    assert out == {"schema_version": 1, **verify_reference_table(d).to_json_dict()}


def test_variance_command(capsys):
    code, out, _ = run_cli(
        capsys, "variance", "--poly", "0,0,0,1", "--dist", "uniform:1", "--d", "1"
    )
    assert code == 0
    assert out["sigma_squared"] == "509/35"
    assert out["sigma_squared_float"] == float(Fraction(509, 35))


def test_degenerate_command(capsys):
    code, out, _ = run_cli(capsys, "degenerate", "--dist", "discrete:1@1/2,-1@1/2", "--d", "1")
    assert code == 0
    assert out["support_class"] == "two_point"
    model = MomentModel.discrete([(1, Fraction(1, 2)), (-1, Fraction(1, 2))])
    assert [b["poly"] for b in out["basis"]] == [
        q.format() for q in degenerate_basis(model, 1)
    ]


def test_classify_command(capsys):
    code, out, _ = run_cli(
        capsys, "classify", "--poly", "0,-7,0,1", "--dist", "discrete:1@1/2,-1@1/2", "--d", "1"
    )
    assert code == 0
    assert out["classification"] == "degenerate" and out["sigma_squared"] == "0"


def test_mean_trace_command(capsys):
    code, out, _ = run_cli(
        capsys, "mean-trace", "--k", "2", "--d", "1", "--L", "1", "--dist", "uniform:1"
    )
    assert code == 0
    assert out["mean_trace"] == "5"
    assert out["mean_trace_float"] == float(
        mean_trace_exact(2, BoxSpec(1, 1), MomentModel.uniform_symmetric(1))
    )


def test_simulate_command_matches_library(capsys, tmp_path):
    out_file = tmp_path / "samples.csv"
    code, out, _ = run_cli(
        capsys,
        "simulate",
        "--poly", "0,0,1",
        "--dist", "uniform:1",
        "--d", "1",
        "--L", "20",
        "--samples", "60",
        "--seed", "7",
        "--out", str(out_file),
    )
    assert code == 0
    report = run_experiment(
        Poly.parse("0,0,1"), MomentModel.uniform_symmetric(1), 1, 20, 60, 7
    )
    assert out == {"schema_version": 1, **report.to_json_dict()}
    lines = out_file.read_text().splitlines()
    assert lines[0] == "index,value" and len(lines) == 61


def test_simulate_requires_dist(capsys):
    code, out, err = run_cli(
        capsys, "simulate", "--poly", "0,1", "--d", "1", "--L", "5", "--samples", "10"
    )
    assert code == 2 and out is None
    assert err["error"]["type"] == "usage"
    assert "--dist" in err["error"]["message"]


def test_threads_flag_is_usage_error(capsys):
    # samples are drawn serially; there is no thread count to choose
    code, out, err = run_cli(
        capsys,
        "simulate",
        "--poly", "0,0,1",
        "--dist", "uniform:1",
        "--d", "1",
        "--L", "5",
        "--samples", "50",
        "--threads", "2",
    )
    assert code == 2 and out is None
    assert err["error"]["type"] == "usage"
    assert "--threads" in err["error"]["message"]


def test_malformed_poly_is_usage_error(capsys):
    code, _, err = run_cli(
        capsys, "variance", "--poly", "woof", "--dist", "uniform:1", "--d", "1"
    )
    assert code == 2 and err["error"]["type"] == "usage"


# each command's first enumeration beyond a budget of 10 and its string count
@pytest.mark.parametrize(
    "argv,required",
    [
        (("pathcount", "--k", "5", "--d", "1"), 3**5),
        (("variance", "--poly", "0,0,0,1", "--dist", "uniform:1", "--d", "1"), 3**3),
        (("classify", "--poly", "0,0,0,1", "--dist", "uniform:1", "--d", "1"), 3**3),
        (("mean-trace", "--k", "3", "--d", "1", "--L", "2", "--dist", "uniform:1"), 3**3),
        (("verify-table", "--d", "1"), 3**3),
    ],
    ids=lambda value: value[0] if isinstance(value, tuple) else None,
)
def test_budget_env_var_gives_resource_exit(capsys, monkeypatch, argv, required):
    monkeypatch.setenv("ANDERSON_BUDGET", "10")
    code, out, err = run_cli(capsys, *argv)
    assert code == 3 and out is None
    assert err["error"]["type"] == "resource"
    assert f"requires {required} units" in err["error"]["message"]


def test_simulate_budget_is_one_samples_half_power_cells(capsys, monkeypatch):
    # chunks shrink to one sample under a tight budget, so a budget of one
    # sample's half-power cells runs and one cell less is a resource error
    poly, L = "0,1,0,1,0,1", 20
    p, model = Poly.parse(poly), MomentModel.uniform_symmetric(1)
    cells = half_power_cells(1, 2 * L + 1, p.degree)
    monkeypatch.setenv("ANDERSON_BUDGET", str(cells))
    assert len(run_experiment(p, model, 1, L, 5, 0).samples) == 5
    monkeypatch.setenv("ANDERSON_BUDGET", str(cells - 1))
    with pytest.raises(BudgetExceededError) as info:
        run_experiment(p, model, 1, L, 5, 0)
    assert info.value.required == cells
    code, out, err = run_cli(
        capsys, "simulate", "--poly", poly, "--dist", "uniform:1", "--d", "1",
        "--L", str(L), "--samples", "5",
    )
    assert code == 3 and out is None
    assert err["error"]["type"] == "resource"
    assert f"requires {cells} units" in err["error"]["message"]


@pytest.mark.parametrize("value", ["abc", "0", "-5"])
def test_malformed_budget_env_var_names_the_variable(capsys, monkeypatch, value):
    monkeypatch.setenv("ANDERSON_BUDGET", value)
    code, out, err = run_cli(capsys, "pathcount", "--k", "3", "--d", "1")
    assert code == 2 and out is None
    assert err["error"]["type"] == "usage"
    assert "ANDERSON_BUDGET" in err["error"]["message"]
    assert f"'{value}'" in err["error"]["message"]


def test_report_command_bundles_everything(capsys):
    code, out, _ = run_cli(
        capsys,
        "report",
        "--poly", "0,0,1",
        "--dist", "discrete:1@1/2,-1@1/2",
        "--d", "1",
        "--L", "10",
        "--samples", "50",
        "--seed", "3",
    )
    assert code == 0
    assert out["table_verification"]["match"] is True
    certificates = out["degenerate_certificates"]
    assert [c["degree"] for c in certificates] == [2, 3, 5]
    assert all(c["sigma_squared"] == "0" for c in certificates)
    assert all(c["classification"] == "degenerate" for c in certificates)
    assert out["simulation"]["config"]["samples"] == 50


def test_report_with_rich_support_has_no_certificates(capsys):
    code, out, _ = run_cli(
        capsys,
        "report",
        "--poly", "0,1",
        "--dist", "gaussian:1",
        "--d", "1",
        "--L", "10",
        "--samples", "50",
    )
    assert code == 0
    assert out["degenerate_certificates"] == []


def test_verification_mismatch_exits_one(capsys, monkeypatch):
    import andersonstats.cli as cli_module
    from andersonstats.table import TableVerification

    broken = TableVerification(1, False, rows=[], diffs=["k=3: class delta missing"])
    monkeypatch.setattr(cli_module, "verify_reference_table", lambda d: broken)
    code, out, _ = run_cli(capsys, "verify-table", "--d", "1")
    assert code == 1
    assert out["match"] is False and out["diffs"]


def test_unknown_command_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "frobnicate")
    assert code == 2 and err["error"]["type"] == "usage"


def test_entry_point_raises_system_exit():
    from andersonstats.cli import run

    with pytest.raises(SystemExit):
        run()


def test_importing_the_cli_does_not_import_scipy():
    # exact commands never run a KS test, so they must not pay for scipy
    source = str(Path(andersonstats.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [source, env.get("PYTHONPATH")]))
    probe = "import sys, andersonstats.cli; print('scipy' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


EXACT_COMMANDS = [
    ["pathcount", "--k", "4", "--d", "2"],
    ["verify-table", "--d", "1"],
    ["variance", "--poly", "0,0,0,1", "--dist", "uniform:1", "--d", "1"],
    ["classify", "--poly", "0,-7,0,1", "--dist", "discrete:1@1/2,-1@1/2", "--d", "1"],
    ["degenerate", "--dist", "discrete:1@1/2,-1@1/2", "--d", "1"],
    ["mean-trace", "--k", "4", "--d", "2", "--L", "2", "--dist", "uniform:1"],
]


def test_exact_commands_load_neither_numpy_nor_scipy():
    # the exact layer is integer and Fraction code; a fresh interpreter that
    # runs every exact command must never import the sampling libraries
    probe = (
        "import contextlib, io, sys, andersonstats, andersonstats.cli\n"
        f"for argv in {EXACT_COMMANDS!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert andersonstats.cli.main(argv) == 0, argv\n"
        "print(sorted({'numpy', 'scipy'} & set(sys.modules)))\n"
    )
    source = str(Path(andersonstats.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [source, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
