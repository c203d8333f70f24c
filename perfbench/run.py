"""Benchmark of the andersonstats package: seeded workloads, checked outputs,
end-to-end metrics from an untraced run and per-layer metrics from a traced
run.

    python3 perfbench/run.py --workload exact-cli --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30

Run it from anywhere inside a checkout: it imports the package from the
checkout's ``src`` and writes only under the checkout's ``.perfbench``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print every
metric with its unit and the machine it ran on. A failed check makes the
exit code 1, a missing package 2.

Load is one closed-loop client: passes run one after another, and a Monte
Carlo pass uses the CLI's default thread count. A run repeats passes while
the next one is expected to end within ``--seconds``, and reports medians.
``setup_s`` is the median over several fresh interpreters that import
``andersonstats.cli`` and build the workload inputs.

The speed of a shared machine drifts by tens of per cent within minutes, so
an untraced run also times a fixed calibration job that runs no
andersonstats code, interleaved with the measured work, and reports its
end-to-end times in reference seconds: the measured time scaled by
``CALIBRATION_REF_S`` over the median calibration time of the run. The
measured wall times are printed as well.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import nullcontext
from functools import lru_cache
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

SETUP_RUNS = 5
IMPORTTIME_RUNS = 3
CHILD_TIMEOUT_S = 60

# The calibration job: a fresh interpreter imports numpy, does exact
# Fraction and dict work in Python, then streams a 24 MB array, the same
# kinds of work as the workloads, with no andersonstats code.
CALIBRATION = r"""
import fractions, numpy
F = fractions.Fraction
total, table = F(0), {}
for i in range(1, 15000):
    total += F(i % 97 + 1, i % 89 + 1)
    key = (i % 101, i % 103)
    table[key] = table.get(key, 0) + i
a = numpy.arange(3_000_000, dtype=float)
for _ in range(3):
    a = a * 1.0000001 + 1.0
"""
# Reference speed: a calibration job that takes this long leaves measured
# times unscaled (about its median on the machine in perfbench/README.md).
CALIBRATION_REF_S = 0.35
# Calibration jobs take about this share of the measured time; they run
# before each command (exact-cli) or pass (Monte Carlo) that is due one.
CALIBRATION_SHARE = 0.2

END_TO_END = {"setup_s": "s", "pass_s.p50": "s", "peak_rss_mb": "MiB"}
PER_LAYER = {
    "cli.import_s": "s",
    "cli.import.scipy_special_s": "s",
    **{f"cli.{label}_s": "s" for label in workloads.CLI_LABELS},
    "walks.path_counts.self_s": "s",
    "walks.path_counts.calls": "count",
    "walks.path_counts.hits": "count",
    "walks.strings": "count",
    "variance.sigma_squared.self_s": "s",
    "variance.limiting_covariance.self_s": "s",
    "variance.limiting_covariance.calls": "count",
    "variance.limiting_covariance.repeats": "count",
    "variance.class_pairs": "count",
    "variance.classify.self_s": "s",
    "table.verify_reference_table.self_s": "s",
    "hamiltonian.mean_trace_exact.self_s": "s",
    "hamiltonian.trace_powers_numeric.self_s": "s",
    "hamiltonian.trace_powers_numeric.calls": "count",
    "hamiltonian.sample_hamiltonian.self_s": "s",
    "hamiltonian.window_cells": "count",
    "hamiltonian.window_bytes": "B",
    "moments.sample.self_s": "s",
    "moments.sample.draws": "count",
    "fluctuations.run_experiment.self_s": "s",
    "fluctuations.parallel_efficiency": "ratio",
    "fluctuations.serial_pass_s": "s",
    "fluctuations.ks_test.self_s": "s",
    "fluctuations.moment_diagnostics.self_s": "s",
    "trace.overhead_s": "s",
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(cmd: list[str]) -> tuple[subprocess.CompletedProcess, float]:
    """Run a child to completion and return it with its own peak resident
    set in MiB; a hung child is killed and reported as exit code -9."""
    with tempfile.TemporaryFile(dir=WORK) as out, tempfile.TemporaryFile(dir=WORK) as err:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        killer = threading.Timer(CHILD_TIMEOUT_S, os.kill, (proc.pid, signal.SIGKILL))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read().decode(), err.read().decode()
    return subprocess.CompletedProcess(cmd, proc.returncode, stdout, stderr), usage.ru_maxrss / 1024


class Calibration:
    """Calibration jobs interleaved with the measured work: ``top_up`` runs
    jobs until they have taken ``CALIBRATION_SHARE`` of the time measured so
    far, and at least one."""

    def __init__(self) -> None:
        self.walls: list[float] = []
        self.measured = 0.0

    def top_up(self) -> None:
        while sum(self.walls) <= CALIBRATION_SHARE * self.measured:
            start = time.perf_counter()
            proc, _ = run_child([sys.executable, "-c", CALIBRATION])
            self.walls.append(time.perf_counter() - start)
            if proc.returncode != 0:
                raise RuntimeError(f"calibration job failed with exit code {proc.returncode}")

    def scale(self) -> float:
        """Factor from measured to reference seconds."""
        return CALIBRATION_REF_S / statistics.median(self.walls)


def setup_probe(args) -> tuple[float, float]:
    """Wall time from starting a fresh interpreter until it has imported
    ``andersonstats.cli`` and built the inputs, and the import time it saw."""
    cmd = [sys.executable, str(HERE / "child.py"), "setup", args.workload, str(args.seed), args.size]
    start = time.perf_counter()
    with subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True
    ) as proc:
        line = proc.stdout.readline()
        wall = time.perf_counter() - start
        proc.stdout.read()
        if proc.wait(timeout=CHILD_TIMEOUT_S) != 0 or not line:
            raise RuntimeError(f"set-up child failed with exit code {proc.returncode}")
    return wall, json.loads(line)["import_s"]


def scipy_special_import_s() -> float:
    """Cumulative import time of ``scipy.special`` under ``-X importtime``;
    0 when importing ``andersonstats.cli`` does not import it."""
    proc, _ = run_child([sys.executable, "-X", "importtime", "-c", "import andersonstats.cli"])
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == "scipy.special":
            return int(parts[1].strip()) / 1e6
    return 0.0


class Pass:
    """One workload pass: its wall time, per-operation walls, the outputs
    still to check, their problems once checked, and the spans of each
    process it traced."""

    def __init__(self) -> None:
        self.wall = 0.0
        self.peak_rss_mb = 0.0
        self.op_walls: dict[str, float] = {}
        self.outputs: list = []
        self.problems: list[list[str]] = []
        self.spans: list[list] = []


class ExactCliBench:
    """Seven CLI commands, one fresh interpreter each, run serially.

    Outputs are checked only after the last pass: the checks import numpy
    and scipy, and a child started from a large parent reports the parent's
    resident set as its own peak."""

    def __init__(self, workload, pinned) -> None:
        self.workload = workload
        self.pinned = pinned
        self.threads = 1

    def run_pass(self, tracer=None, pass_id=0, threads=None, calibration=None) -> Pass:
        result = Pass()
        for command in self.workload.commands:
            spans_file = WORK / f"spans-{os.getpid()}-{pass_id}-{command.label}.json"
            if tracer is None:
                cmd = [sys.executable, "-m", "andersonstats.cli", *command.argv]
            else:
                cmd = [sys.executable, str(HERE / "child.py"), "cli", str(spans_file), *command.argv]
            if calibration:
                calibration.top_up()
            op_start = time.perf_counter()
            proc, peak = run_child(cmd)
            result.op_walls[command.label] = time.perf_counter() - op_start
            result.peak_rss_mb = max(result.peak_rss_mb, peak)
            result.outputs.append((command, proc, spans_file))
            if calibration:
                calibration.measured += result.op_walls[command.label]
        result.wall = sum(result.op_walls.values())
        for _, _, spans_file in result.outputs:
            if tracer is not None and spans_file.exists():
                spans = json.loads(spans_file.read_text(encoding="utf-8"))
                spans_file.unlink()
                result.spans.append([span[:6] + [pass_id] + span[7:] for span in spans])
        return result

    def check(self, result: Pass) -> None:
        import checks

        result.problems = [
            checks.check_cli(command, proc.returncode, proc.stdout, self.pinned)
            for command, proc, _ in result.outputs
        ]


class MonteCarloBench:
    """One ``run_experiment`` call per pass, called in this process."""

    def __init__(self, workload, pinned) -> None:
        self.workload = workload
        self.pinned = pinned
        self.threads = workload.threads
        self.poly, self.model = workloads.program_inputs(workload)

    def run_pass(self, tracer=None, pass_id=0, threads=None, calibration=None) -> Pass:
        import andersonstats.fluctuations as fluctuations

        if calibration:
            calibration.top_up()
        w = self.workload
        result = Pass()
        first_span = len(tracer.spans) if tracer else 0
        with tracer.recording(pass_id) if tracer else nullcontext():
            start = time.perf_counter()
            try:
                output = fluctuations.run_experiment(
                    self.poly, self.model, w.d, w.L, w.n_samples, w.experiment_seed,
                    threads=threads or self.threads,
                )
            except Exception as exc:  # a failing operation is counted, not fatal
                output = exc
            result.wall = time.perf_counter() - start
        result.op_walls["run_experiment"] = result.wall
        if calibration:
            calibration.measured += result.wall
        result.outputs.append(output)
        if tracer:
            result.spans.append([list(span) for span in tracer.spans[first_span:]])
        return result

    def check(self, result: Pass) -> None:
        import checks

        result.problems = [
            [f"run_experiment raised {output!r}"] if isinstance(output, Exception)
            else checks.check_experiment(self.workload, output, self.pinned)
            for output in result.outputs
        ]


def measure(bench, budget_s: float) -> tuple[list[Pass], Calibration]:
    """Run untraced passes, with calibration jobs among them, until the
    next pass is expected to end after the budget."""
    clock, passes, calibration = time.perf_counter(), [], Calibration()
    while True:
        passes.append(bench.run_pass(calibration=calibration))
        expected = statistics.median(p.wall for p in passes) * (1 + CALIBRATION_SHARE)
        if time.perf_counter() - clock + expected > budget_s:
            calibration.top_up()
            return passes, calibration


def tail(walls: list[float]) -> tuple[float | None, float | None]:
    """The highest percentile of ``walls`` with at least ten values beyond it."""
    n = len(walls)
    if n < 11:
        return None, None
    return sorted(walls)[n - 11], 100.0 * (n - 10) / n


def peak_rss_mb(bench, passes: list[Pass]) -> float:
    """Peak resident set of the workload's own processes: the command
    children for exact-cli, this process for the Monte Carlo workloads."""
    if isinstance(bench, ExactCliBench):
        return max(p.peak_rss_mb for p in passes)
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def untraced_run(bench, args, setup) -> tuple[dict, dict]:
    passes, calibration = measure(bench, args.seconds)
    scale = calibration.scale()
    walls = [p.wall for p in passes]
    setup_wall = statistics.median(s[0] for s in setup)
    tail_value, tail_pct = tail(walls)
    metrics = {
        "setup_s": setup_wall * scale,
        "pass_s.p50": statistics.median(walls) * scale,
        "peak_rss_mb": peak_rss_mb(bench, passes),
    }
    extra = {
        "pass_s.tail": None if tail_value is None else tail_value * scale,
        "pass_s.tail.percentile": tail_pct,
        "passes": len(walls),
        "calibration_s": calibration.walls,
        "scale": scale,
        "wall.setup_s": setup_wall,
        "wall.pass_s.p50": statistics.median(walls),
    }
    if isinstance(bench, MonteCarloBench):
        extra["samples_per_s"] = statistics.median(
            bench.workload.n_samples / (w * scale) for w in walls
        )
    return metrics, {"passes": passes, "extra": extra}


@lru_cache(maxsize=None)
def _strings(k: int, d: int) -> int:
    from andersonstats.walks import balanced_census

    return balanced_census(k, d).total_balanced


@lru_cache(maxsize=None)
def _classes(k: int, d: int) -> int:
    from andersonstats.walks import path_counts

    return len(path_counts(k, d).counts)


def traced_run(bench, args, setup) -> tuple[dict, dict]:
    from tracer import Tracer, call_counts, parallel_efficiency, self_times

    # Traced and untraced passes alternate, so that both see the same
    # machine; the first pass of the process is a traced one.
    tracer = Tracer()
    clock = time.perf_counter()
    traced, untraced = [], []
    while True:
        traced.append(bench.run_pass(tracer, pass_id=len(traced)))
        untraced.append(bench.run_pass())
        expected = statistics.median(p.wall for p in traced) + statistics.median(
            p.wall for p in untraced
        )
        if time.perf_counter() - clock + expected > args.seconds:
            break
    serial = []
    if isinstance(bench, MonteCarloBench):
        serial = [bench.run_pass(tracer, pass_id=len(traced), threads=1)]

    metrics = dict.fromkeys(PER_LAYER, 0.0)
    metrics["cli.import_s"] = statistics.median(s[1] for s in setup)
    metrics["cli.import.scipy_special_s"] = statistics.median(
        scipy_special_import_s() for _ in range(IMPORTTIME_RUNS)
    )
    if isinstance(bench, ExactCliBench):
        for label in workloads.CLI_LABELS:
            metrics[f"cli.{label}_s"] = statistics.median(p.op_walls[label] for p in untraced)

    per_pass = []
    for p in traced:
        totals: dict[str, float] = {}
        for spans in p.spans:
            for name, value in self_times(spans).items():
                totals[name] = totals.get(name, 0.0) + value
        per_pass.append(totals)
    for metric in PER_LAYER:
        if metric.endswith(".self_s"):
            span = metric[: -len(".self_s")]
            metrics[metric] = statistics.median(t.get(span, 0.0) for t in per_pass)

    # Counts of the first traced pass, computed outside the timed passes.
    counts = [call_counts(spans) for spans in traced[0].spans]
    metrics["walks.path_counts.calls"] = sum(c["path_counts.calls"] for c in counts)
    metrics["walks.path_counts.hits"] = sum(c["path_counts.hits"] for c in counts)
    metrics["walks.strings"] = sum(_strings(k, d) for c in counts for k, d in c["path_counts.misses"])
    metrics["variance.limiting_covariance.calls"] = sum(c["limiting_covariance.calls"] for c in counts)
    metrics["variance.limiting_covariance.repeats"] = sum(
        c["limiting_covariance.repeats"] for c in counts
    )
    metrics["variance.class_pairs"] = sum(
        _classes(k, d) * _classes(l, d)
        for c in counts for (k, l), _, d in c["limiting_covariance.keys"]
    )
    windows = [key for c in counts for key in c["trace_powers_numeric.keys"]]
    metrics["hamiltonian.trace_powers_numeric.calls"] = len(windows)
    metrics["hamiltonian.window_cells"] = sum(v * (2 * m + 1) ** d for v, d, m in windows)
    metrics["hamiltonian.window_bytes"] = 8 * metrics["hamiltonian.window_cells"]
    metrics["moments.sample.draws"] = sum(c["sample.draws"] for c in counts)

    if serial:
        metrics["fluctuations.serial_pass_s"] = serial[0].wall
        metrics["fluctuations.parallel_efficiency"] = statistics.median(
            e for p in traced for e in parallel_efficiency(p.spans[0], bench.threads)
        )
    metrics["trace.overhead_s"] = statistics.median(p.wall for p in traced) - statistics.median(
        p.wall for p in untraced
    )
    return metrics, {
        "passes": traced + serial + untraced,
        "extra": {"traced_passes": len(traced), "untraced_passes": len(untraced)},
        "spans": [spans for p in traced + serial for spans in p.spans],
    }


def provenance(args, threads: int) -> dict:
    import numpy
    import scipy

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "threads": threads,
    }


def _show(value) -> str:
    if value is None:
        return "n/a"
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def run_workload(args) -> int:
    sys.path.insert(0, str(SRC))
    workload = workloads.build(args.workload, args.seed, args.size)
    pinned = json.loads(Path(args.pinned or HERE / "pinned.json").read_text(encoding="utf-8"))
    WORK.mkdir(exist_ok=True)
    setup = [setup_probe(args) for _ in range(SETUP_RUNS)]
    bench = (ExactCliBench if isinstance(workload, workloads.ExactCli) else MonteCarloBench)(
        workload, pinned
    )
    metrics, info = (traced_run if args.trace else untraced_run)(bench, args, setup)
    units = PER_LAYER if args.trace else END_TO_END
    for p in info["passes"]:
        bench.check(p)

    ops = [problems for p in info["passes"] for problems in p.problems]
    failed = sum(1 for problems in ops if problems)
    record = {
        "provenance": provenance(args, bench.threads),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        "extra": info["extra"],
        "attempted": len(ops),
        "failed": failed,
        "problems": sorted({msg for problems in ops for msg in problems}),
        "pass_walls": [p.wall for p in info["passes"]],
        "op_walls": [p.op_walls for p in info["passes"]],
    }
    if args.trace:
        record["spans"] = info["spans"]
    out = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record), encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  size {args.size}  "
          f"trace {args.trace}  threads {bench.threads}")
    for name, unit in units.items():
        print(f"  {name:<42} {_show(metrics[name]):>12} {unit}")
    extra = info["extra"]
    if not args.trace:
        if extra["pass_s.tail"] is None:
            print(f"  {'pass_s.tail':<42} {'n/a':>12} s  (needs >= 11 passes, ran {extra['passes']})")
        else:
            print(f"  {'pass_s.tail':<42} {_show(extra['pass_s.tail']):>12} s  "
                  f"(p{extra['pass_s.tail.percentile']:.0f} of {extra['passes']} passes)")
        if "samples_per_s" in extra:
            print(f"  {'samples_per_s':<42} {_show(extra['samples_per_s']):>12} 1/s")
        print(f"  times above are in reference seconds: measured x {_show(extra['scale'])} = "
              f"{CALIBRATION_REF_S} s / median of {len(extra['calibration_s'])} calibration jobs")
        for name in ("wall.setup_s", "wall.pass_s.p50"):
            print(f"  {name:<42} {_show(extra[name]):>12} s  (measured)")
        print(f"  {'failed_ratio':<42} {failed / len(ops):>12.6g} ratio  "
              f"({failed} failed / {len(ops)} attempted)")
    for message in record["problems"]:
        print(f"  FAILED CHECK: {message}")
    print("provenance " + json.dumps(record["provenance"]))
    print(f"details {out.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": record["metrics"]}))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload in turn, each in its own process: each one's report,
    then one JSON line over all of them with metrics named workload/metric."""
    code, summary = 0, {}
    for name in workloads.NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        code = max(code, proc.returncode)
        lines = proc.stdout.strip().splitlines()
        if lines and lines[-1].startswith("{"):
            summary[name] = json.loads(lines[-1])
    correct = len(summary) == len(workloads.NAMES) and all(r["correct"] for r in summary.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in summary.values()),
        "failed": sum(r["failed"] for r in summary.values()),
        "metrics": {f"{name}/{metric}": value for name, r in summary.items()
                    for metric, value in r["metrics"].items()},
    }))
    return code or (0 if correct else 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.NAMES, "all"))
    parser.add_argument("--seed", type=int, default=workloads.METADATA["default_seed"])
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="full",
                        help="tiny scales every workload down for the self-test")
    parser.add_argument("--pinned", help="pinned reference values (default: perfbench/pinned.json)")
    args = parser.parse_args(argv)
    if not (SRC / "andersonstats" / "__init__.py").is_file():
        print(f"error: no andersonstats package under {SRC}; run inside a checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
