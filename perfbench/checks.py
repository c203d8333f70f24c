"""Correctness checks: every workload output against an independent route
or a value pinned in ``pinned.json``.

Each check returns a list of problems; an empty list means the operation
is correct. Nothing here is filtered or tolerated beyond the stated float
tolerances, so a known defect in the program stays visible as a failure.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
import scipy.sparse
import scipy.stats

from andersonstats.hamiltonian import BoxSpec, sample_hamiltonian
from andersonstats.moments import parse_distribution
from andersonstats.variance import Poly, sigma_squared_local_oracle

# Sampled traces must match the independent route to this share of the
# trace's magnitude; KS results must match scipy to these absolute errors.
TRACE_RTOL = 1e-9
KS_STATISTIC_ATOL = 1e-12
KS_PVALUE_ATOL = 1e-9

_MASK64 = (1 << 64) - 1


def counts_digest(counts: list[dict]) -> str:
    """Order-independent digest of a path-count table as the CLI prints it."""
    rows = sorted([row["beta"], row["p"]] for row in counts)
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


@lru_cache(maxsize=None)
def local_oracle(coeffs: tuple[Fraction, ...], dist: str, d: int) -> Fraction:
    return sigma_squared_local_oracle(Poly.from_coeffs(coeffs), parse_distribution(dist), d)


def _options(argv) -> dict[str, str]:
    """``--name value`` and ``--name=value`` pairs of a command line."""
    options, tokens = {}, iter(argv)
    for token in tokens:
        name, sep, value = token.partition("=")
        options[name] = value if sep else next(tokens)
    return options


def check_cli(command, returncode: int, stdout: str, pinned: dict) -> list[str]:
    """Check one exact-cli command's exit code and JSON output."""
    label = command.label
    if returncode != 0:
        return [f"{label}: exit code {returncode}"]
    try:
        out = json.loads(stdout)
    except ValueError:
        return [f"{label}: output is not JSON"]
    kind, args = command.argv[0], _options(command.argv[1:])
    problems = []
    if kind == "pathcount":
        ref = pinned["path_counts"][f"{args['--k']},{args['--d']}"]
        counts = out["counts"]
        if (
            len(counts) != ref["classes"]
            or sum(row["p"] for row in counts) != ref["with_pot"]
            or counts_digest(counts) != ref["sha256"]
        ):
            problems.append(f"{label}: table differs from the pinned table")
    elif kind == "variance":
        table = pinned["limiting_covariance"][f"{args['--dist']},{args['--d']}"]
        a = command.poly
        expected = sum(
            a[k] * a[l] * Fraction(table[f"{min(k, l)},{max(k, l)}"])
            for k in range(1, len(a))
            for l in range(1, len(a))
        )
        if Fraction(out["sigma_squared"]) != expected:
            problems.append(
                f"{label}: sigma^2 {out['sigma_squared']} != sum a_k a_l C_kl = {expected}"
            )
    elif kind == "classify":
        oracle = local_oracle(command.poly, args["--dist"], int(args["--d"]))
        if out["classification"] != "degenerate" or oracle != 0:
            problems.append(f"{label}: {out['classification']}, local oracle {oracle}")
        if Fraction(out["sigma_squared"]) != oracle:
            problems.append(f"{label}: sigma^2 {out['sigma_squared']} != oracle {oracle}")
    elif kind == "degenerate":
        basis = [row["poly"] for row in out["basis"]]
        if basis != pinned["degenerate_basis"][f"{args['--dist']},{args['--d']}"]:
            problems.append(f"{label}: basis {basis} differs from the pinned basis")
        for text in basis:
            coeffs = tuple(Fraction(c) for c in text.split(","))
            if local_oracle(coeffs, args["--dist"], int(args["--d"])) != 0:
                problems.append(f"{label}: {text} has nonzero oracle variance")
    elif kind == "mean-trace":
        key = f"{args['--k']},{args['--d']},{args['--L']},{args['--dist']}"
        if out["mean_trace"] != pinned["mean_trace"][key]:
            problems.append(f"{label}: {out['mean_trace']} != pinned {pinned['mean_trace'][key]}")
    elif kind == "verify-table":
        if out["match"] is not True or out["diffs"]:
            problems.append(f"{label}: match={out['match']} diffs={out['diffs'][:3]}")
    else:
        problems.append(f"{label}: no check for command {kind!r}")
    return problems


def independent_trace(potential: np.ndarray, coeffs, d: int) -> tuple[float, float]:
    """Tr p(H) by a route that shares no code with the window method, and
    the magnitude the comparison is relative to.

    d=1 diagonalizes the dense tridiagonal operator; higher d multiplies the
    sparse operator out. The magnitude bounds the trace term by term.
    """
    v = potential.ravel()
    n, volume = potential.shape[0], v.size
    degree = len(coeffs) - 1
    if d == 1:
        dense = np.diag(v) + np.eye(n, k=1) + np.eye(n, k=-1)
        eigenvalues = np.linalg.eigvalsh(dense)
        traces = [float(np.sum(eigenvalues**k)) for k in range(1, degree + 1)]
        bounds = [float(np.sum(np.abs(eigenvalues) ** k)) for k in range(1, degree + 1)]
    else:
        path = scipy.sparse.diags([np.ones(n - 1), np.ones(n - 1)], [-1, 1])
        hop = sum(
            scipy.sparse.kron(
                scipy.sparse.kron(scipy.sparse.identity(n**axis), path),
                scipy.sparse.identity(n ** (d - 1 - axis)),
            )
            for axis in range(d)
        )
        h = (hop + scipy.sparse.diags(v)).tocsr()
        power, traces = h, []
        for _ in range(degree):
            traces.append(float(power.diagonal().sum()))
            power = power @ h
        radius = 2 * d + float(np.max(np.abs(v)))
        bounds = [volume * radius**k for k in range(1, degree + 1)]
    a = [float(c) for c in coeffs]
    trace = a[0] * volume + sum(a[k] * traces[k - 1] for k in range(1, degree + 1))
    scale = abs(a[0]) * volume + sum(abs(a[k]) * bounds[k - 1] for k in range(1, degree + 1))
    return trace, scale


def sample_indices(n_samples: int) -> tuple[int, ...]:
    """The sample indices each pass recomputes independently."""
    return tuple(sorted({0, n_samples // 2, n_samples - 1}))


def check_experiment(workload, report, pinned: dict) -> list[str]:
    """Check one ``run_experiment`` report of a Monte Carlo workload."""
    samples = np.asarray(report.samples, dtype=float)
    n = workload.n_samples
    if samples.shape != (n,) or not np.all(np.isfinite(samples)):
        return [f"samples: shape {samples.shape}, expected {n} finite values"]
    problems = []
    oracle = local_oracle(workload.poly, workload.dist, workload.d)
    if report.predicted_sigma2 != oracle:
        problems.append(f"predicted sigma^2 {report.predicted_sigma2} != oracle {oracle}")

    box = BoxSpec(workload.d, workload.L)
    model = parse_distribution(workload.dist)
    means = pinned["exact_means"][f"{workload.dist},{workload.d},{workload.L}"]
    a = workload.poly
    center = a[0] * box.volume + sum(a[k] * Fraction(means[k - 1]) for k in range(1, len(a)))
    for index in sample_indices(n):
        h = sample_hamiltonian(box, model, (workload.experiment_seed ^ index) & _MASK64)
        trace, scale = independent_trace(h.potential, a, workload.d)
        got = samples[index] * math.sqrt(box.volume) + float(center)
        if abs(got - trace) > TRACE_RTOL * scale:
            problems.append(f"sample {index}: trace {got!r} != independent {trace!r}")

    if not math.isclose(report.empirical_mean, float(np.mean(samples)), rel_tol=1e-12, abs_tol=1e-12):
        problems.append(f"empirical mean {report.empirical_mean} != {np.mean(samples)}")
    if not math.isclose(report.empirical_var, float(np.var(samples, ddof=1)), rel_tol=1e-12):
        problems.append(f"empirical variance {report.empirical_var} != {np.var(samples, ddof=1)}")
    if n >= 50:
        skew = float(scipy.stats.skew(samples))
        kurt = float(scipy.stats.kurtosis(samples))
        if not (math.isclose(report.skewness, skew, rel_tol=1e-9, abs_tol=1e-12)
                and math.isclose(report.excess_kurtosis, kurt, rel_tol=1e-9, abs_tol=1e-12)):
            problems.append(
                f"skewness/kurtosis {report.skewness}/{report.excess_kurtosis} "
                f"!= scipy {skew}/{kurt}"
            )
    if oracle > 0 and n >= 50:
        ref = scipy.stats.kstest(
            samples, "norm", args=(0.0, math.sqrt(float(oracle))), method="asymp"
        )
        if (
            report.ks_statistic is None
            or abs(report.ks_statistic - ref.statistic) > KS_STATISTIC_ATOL
            or abs(report.ks_pvalue - ref.pvalue) > KS_PVALUE_ATOL
        ):
            problems.append(
                f"KS {report.ks_statistic}/{report.ks_pvalue} != scipy "
                f"{ref.statistic}/{ref.pvalue}"
            )
    return problems
