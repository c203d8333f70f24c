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


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_verify_table_passes(capsys, d):
    code, out, _ = run_cli(capsys, "verify-table", "--d", str(d))
    assert code == 0
    assert out["match"] is True
    assert out == {"schema_version": 1, **verify_reference_table(d).to_json_dict()}


def test_verify_table_rejects_dimension_zero(capsys):
    code, out, err = run_cli(capsys, "verify-table", "--d", "0")
    assert code == 2 and out is None
    assert err["error"]["type"] == "usage"


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


@pytest.mark.parametrize(
    "poly,dist",
    [("0,1/0", "uniform:1"), ("0,0,1", "uniform:1/0"), ("0,0,1", "discrete:1@1/0")],
)
def test_zero_denominator_is_usage_error(capsys, poly, dist):
    code, out, err = run_cli(capsys, "variance", "--poly", poly, "--dist", dist, "--d", "1")
    assert code == 2 and out is None
    assert err["error"]["type"] == "usage"
    assert "zero denominator" in err["error"]["message"]


@pytest.mark.parametrize("command", ["simulate", "report"])
def test_unwritable_out_is_usage_error(capsys, tmp_path, command):
    out_file = tmp_path / "missing" / "samples.csv"
    code, out, err = run_cli(
        capsys,
        command,
        "--poly", "0,0,1",
        "--dist", "uniform:1",
        "--d", "1",
        "--L", "5",
        "--samples", "50",
        "--out", str(out_file),
    )
    assert code == 2 and out is None
    assert err["error"]["type"] == "usage"
    assert str(out_file) in err["error"]["message"]


@pytest.mark.parametrize("command", ["simulate", "report"])
def test_unwritable_out_is_refused_before_any_work(capsys, monkeypatch, tmp_path, command):
    import andersonstats.fluctuations as fluctuations_module

    def no_experiment(*args, **kwargs):
        raise AssertionError("the experiment ran before --out was opened")

    monkeypatch.setattr(fluctuations_module, "run_experiment", no_experiment)
    monkeypatch.chdir(tmp_path)
    argv = [command, "--poly", "0,0,1", "--dist", "uniform:1", "--d", "3", "--L", "10",
            "--samples", "200", "--out", "missing-dir/x.csv"]
    assert main(argv) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "usage" and "missing-dir/x.csv" in err["error"]["message"]


@pytest.mark.parametrize("command", ["simulate", "report"])
@pytest.mark.parametrize(
    "poly, dist",
    [("0,0,0,1", "gaussian:1e300"), ("0,1", "uniform:1e-200")],
    ids=["variance-overflows", "variance-underflows"],
)
def test_law_outside_the_float_range_is_refused_before_sampling(
    capsys, monkeypatch, command, poly, dist
):
    # sigma^2 is about 1e901 for the first law and 3e-401 for the second
    import andersonstats.fluctuations as fluctuations_module

    def no_sampling(*args, **kwargs):
        raise AssertionError("a sample was drawn before the float range was checked")

    monkeypatch.setattr(fluctuations_module, "sample", no_sampling)
    code, out, err = run_cli(capsys, command, "--poly", poly, "--dist", dist, "--d", "1",
                             "--L", "5", "--samples", "60")
    assert code == 2 and out is None
    assert err["error"]["type"] == "usage" and "float range" in err["error"]["message"]


def test_tiny_positive_variance_gives_finite_diagnostics(capsys):
    # sigma^2 = 3.6e-299 is a float, and so is the samples' second moment,
    # but that moment to the power 1.5 underflows to 0
    import numpy as np
    import scipy.stats

    code, out, err = run_cli(capsys, "simulate", "--poly", "0,0,0,1", "--dist", "gaussian:1e-300",
                             "--d", "1", "--L", "5", "--samples", "60")
    assert code == 0 and err is None
    samples = np.array(out["samples"])
    assert 0 < float(np.var(samples)) < 1e-290
    # scipy takes the same power of the raw samples and returns nan; skewness
    # and kurtosis do not change under scaling, and scaling by 2^500 is exact
    scaled = samples * 2.0**500
    assert out["skewness"] == pytest.approx(float(scipy.stats.skew(scaled)), rel=1e-12)
    assert out["excess_kurtosis"] == pytest.approx(float(scipy.stats.kurtosis(scaled)), rel=1e-12)


@pytest.mark.parametrize("command", ["simulate", "report"])
def test_out_is_truncated_before_any_work(capsys, monkeypatch, tmp_path, command):
    # like shell redirection: the file is emptied even when the run then fails
    out_file = tmp_path / "samples.csv"
    out_file.write_text("stale\n")
    monkeypatch.setenv("ANDERSON_BUDGET", "10")
    code, out, err = run_cli(
        capsys, command, "--poly", "0,0,1", "--dist", "uniform:1", "--d", "1",
        "--L", "5", "--samples", "50", "--out", str(out_file),
    )
    assert code == 3 and err["error"]["type"] == "resource"
    assert out_file.read_text() == ""


@pytest.mark.parametrize(
    "argv",
    [
        ("variance", "--poly", "0,0,1"),
        ("classify", "--poly", "0,0,1"),
        ("degenerate",),
    ],
    ids=lambda argv: argv[0],
)
def test_one_atom_law_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--dist", "discrete:0@1", "--d", "1")
    assert code == 2 and out is None
    assert err["error"]["type"] == "usage"
    assert "two atoms" in err["error"]["message"]


def test_integrity_error_is_json_with_exit_one(capsys, monkeypatch):
    # the asymmetric table of test_asymmetric_table_raises_integrity_error,
    # seen through the CLI: a JSON error on stderr, not a traceback
    import andersonstats.variance as variance_module
    from andersonstats import MultiIndex, PathCountTable

    counts = dict(path_counts(5, 2).counts)
    counts[MultiIndex.from_map(2, {(0, 0): 2, (1, 0): 1})] += 1
    monkeypatch.setattr(variance_module, "path_counts", lambda k, d: PathCountTable(k, d, counts))
    memos = (variance_module._orbits, variance_module._weights, variance_module._covariance)
    for memo in memos:
        memo.cache_clear()
    try:
        code, out, err = run_cli(
            capsys, "variance", "--poly", "0,0,0,0,0,1", "--dist", "uniform:1", "--d", "2"
        )
    finally:
        for memo in memos:
            memo.cache_clear()
    assert code == 1 and out is None
    assert err["error"]["type"] == "integrity"
    assert "k=5, d=2" in err["error"]["message"]


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
    import andersonstats.table as table_module
    from andersonstats.table import TableVerification

    broken = TableVerification(1, False, rows=[], diffs=["k=3: class delta missing"])
    monkeypatch.setattr(table_module, "verify_reference_table", lambda d: broken)
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


# per exact command: the andersonstats layers it must not load, on top of
# the Monte Carlo layer, which no exact command loads
NOT_LOADED = {
    "pathcount": ("variance", "hamiltonian"),
    "verify-table": ("variance", "hamiltonian"),
}


def _fresh_interpreter(probe: str) -> str:
    source = str(Path(andersonstats.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [source, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


def test_exact_commands_load_neither_numpy_nor_scipy():
    # the exact layer is integer and Fraction code; a fresh interpreter that
    # runs one exact command must never import the sampling libraries, nor
    # the package layers the command does not run, nor add dataclasses and
    # inspect (a fixed cost of every command) to what a bare interpreter
    # loads, which a .pth file may extend
    bare = set(_fresh_interpreter("import sys; print(' '.join(sys.modules))").split())
    for argv in EXACT_COMMANDS:
        probe = (
            "import contextlib, io, sys, andersonstats, andersonstats.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert andersonstats.cli.main({argv!r}) == 0\n"
            "print(' '.join(sorted(sys.modules)))\n"
        )
        loaded = set(_fresh_interpreter(probe).split())
        unwanted = {"numpy", "scipy", "andersonstats.fluctuations"} | {
            f"andersonstats.{layer}" for layer in NOT_LOADED.get(argv[0], ())
        }
        assert not unwanted & loaded, (argv, sorted(unwanted & loaded))
        assert not {"dataclasses", "inspect"} & (loaded - bare), (argv, sorted(loaded - bare))


def test_monte_carlo_commands_run_without_scipy():
    # scipy is a test oracle only: with it blocked, both sampling commands
    # still run, and a run that can import it leaves it unloaded
    tiny = ["--poly", "0,0,1", "--dist", "uniform:1", "--d", "1", "--L", "5", "--samples", "60"]
    commands = [["simulate", *tiny], ["report", *tiny]]
    probe = (
        "import contextlib, io, sys\n"
        "sys.modules['scipy'] = None\n"
        "import andersonstats.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [andersonstats.cli.main(argv) for argv in {commands!r}]\n"
        "print(codes)\n"
    )
    assert _fresh_interpreter(probe) == "[0, 0]"
    probe = (
        "import sys\n"
        "from andersonstats import MomentModel, Poly, run_experiment\n"
        "report = run_experiment(Poly.x_power(2), MomentModel.uniform_symmetric(1), 1, 5, 60, 0)\n"
        "assert report.ks_pvalue is not None\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    assert _fresh_interpreter(probe) == "[]"


def test_public_names_resolve_lazily():
    # importing the package loads no submodule; every public name resolves
    # on first use, and a star import brings in exactly the public names
    probe = (
        "import sys, andersonstats\n"
        "print(sorted(m for m in sys.modules if m.startswith('andersonstats.')))\n"
    )
    assert _fresh_interpreter(probe) == "[]"
    for name in andersonstats.__all__:
        assert getattr(andersonstats, name) is not None, name
    namespace: dict = {}
    exec("from andersonstats import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(andersonstats.__all__)
    assert set(andersonstats.__all__) <= set(dir(andersonstats))
    with pytest.raises(AttributeError):
        andersonstats.no_such_name
