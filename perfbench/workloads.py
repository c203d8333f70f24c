"""Workload inputs, derived from the workload seed alone.

Every polynomial coefficient and experiment seed comes from a
``random.Random`` keyed by the workload name and the seed, so the same seed
gives the same inputs on every machine. Coefficients are drawn nonzero so
that the amount of work (which powers are computed) does not depend on the
seed; only the values do.

``size="tiny"`` scales every workload down for the benchmark's self-test;
the metric names stay those of the full size.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
METADATA = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))
NAMES = tuple(METADATA["workloads"])

UNIFORM = "uniform:1"
TWO_POINT = "discrete:1@1/2,-1@1/2"
THREE_POINT = "discrete:-1@1/4,0@1/2,1@1/4"

# The degenerate quintic of the two-point law {-1, 1} in d=2: x^5 - 221 x
# (the paper's closed form with a + b = 0). Any multiple of it plus a
# constant has limiting variance exactly zero.
TWO_POINT_QUINTIC_D2 = (0, -221, 0, 0, 0, 1)

SIZES = {
    "full": {
        "pathcount": ((10, 2), (8, 3)),
        "variance_degree": 8,
        "mean_trace": (8, 2, 5),
        "verify_d": 3,
        "mc-d1": (200, 2000),
        "mc-d3": (10, 50),
    },
    "tiny": {
        "pathcount": ((6, 2), (4, 3)),
        "variance_degree": 4,
        "mean_trace": (4, 2, 2),
        "verify_d": 1,
        "mc-d1": (20, 60),
        "mc-d3": (3, 50),
    },
}

# Labels of the exact-cli commands; they name the cli.<label>_s metrics.
CLI_LABELS = (
    "pathcount.k10d2",
    "pathcount.k8d3",
    "variance",
    "classify",
    "degenerate",
    "mean-trace",
    "verify-table",
)


@dataclass(frozen=True)
class CliCommand:
    label: str
    argv: tuple[str, ...]
    poly: tuple[Fraction, ...] = ()


@dataclass(frozen=True)
class ExactCli:
    name: str
    seed: int
    commands: tuple[CliCommand, ...]


@dataclass(frozen=True)
class MonteCarlo:
    name: str
    seed: int
    poly: tuple[Fraction, ...]
    dist: str
    d: int
    L: int
    n_samples: int
    experiment_seed: int
    threads: int


def thread_count() -> int:
    """The CLI's default thread count, capped at the CPUs this process may use."""
    return min(os.cpu_count() or 1, len(os.sched_getaffinity(0)))


def _coefficient(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))


def _format(coeffs) -> str:
    return ",".join(str(c) for c in coeffs)


def build(name: str, seed: int, size: str = "full"):
    """The inputs of workload ``name`` for ``seed``."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; expected one of {NAMES}")
    rng = random.Random(f"{name}/{seed}")
    sizes = SIZES[size]
    if name == "exact-cli":
        (k1, d1), (k2, d2) = sizes["pathcount"]
        variance_poly = tuple(_coefficient(rng) for _ in range(sizes["variance_degree"] + 1))
        scale, constant = _coefficient(rng), _coefficient(rng)
        classify_poly = tuple(
            constant * (k == 0) + scale * c for k, c in enumerate(TWO_POINT_QUINTIC_D2)
        )
        k, d, L = sizes["mean_trace"]
        argvs = (
            (("pathcount", "--k", str(k1), "--d", str(d1)), ()),
            (("pathcount", "--k", str(k2), "--d", str(d2)), ()),
            (("variance", f"--poly={_format(variance_poly)}", "--dist", UNIFORM, "--d", "2"),
             variance_poly),
            (("classify", f"--poly={_format(classify_poly)}", "--dist", TWO_POINT, "--d", "2"),
             classify_poly),
            (("degenerate", "--dist", THREE_POINT, "--d", "3"), ()),
            (("mean-trace", "--k", str(k), "--d", str(d), "--L", str(L), "--dist", "gaussian:1"),
             ()),
            (("verify-table", "--d", str(sizes["verify_d"])), ()),
        )
        commands = tuple(
            CliCommand(label, argv, poly) for label, (argv, poly) in zip(CLI_LABELS, argvs)
        )
        return ExactCli(name, seed, commands)
    L, n_samples = sizes[name]
    if name == "mc-d1":
        poly, dist, d = tuple(_coefficient(rng) for _ in range(6)), UNIFORM, 1
    else:
        poly, dist, d = tuple(_coefficient(rng) for _ in range(4)), THREE_POINT, 3
    return MonteCarlo(
        name, seed, poly, dist, d, L, n_samples, rng.getrandbits(63), thread_count()
    )


def program_inputs(workload):
    """The library objects a Monte Carlo workload hands to ``run_experiment``."""
    from andersonstats import Poly, parse_distribution

    return Poly.from_coeffs(workload.poly), parse_distribution(workload.dist)
