"""Monte Carlo experiments on normalized trace fluctuations.

Samples are drawn serially. Each one draws an independent potential
(stream seed = seed XOR sample index, so sample s depends only on seed XOR s
and enlarging the run never re-randomizes earlier samples), evaluates the
trace of the polynomial numerically, and centers it with the exact rational
expectation converted to float once. Exact centering removes the
mean-estimation noise that would otherwise dominate variance checks at
moderate sample counts.

The gaussian limit is checked by a one-sample Kolmogorov-Smirnov test with
the asymptotic Kolmogorov p-value plus skewness and kurtosis diagnostics.
Degenerate limits (zero predicted variance) are never KS-tested against a
point mass. For a two-point law the degenerate quadratic is constant on the
support, so its trace is deterministic and the empirical variance is exactly
0 at every box radius; the degenerate cubics and quintic show a normalized
empirical variance that decays with the radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from .hamiltonian import BoxSpec, mean_trace_exact, sample_hamiltonian, trace_poly_numeric
from .moments import MomentModel, format_distribution
from .poly import Poly
from .variance import sigma_squared


class KsResult(NamedTuple):
    statistic: float
    pvalue: float


class MomentDiagnostics(NamedTuple):
    skewness: float
    excess_kurtosis: float
    se_skew: float
    se_kurt: float
    degenerate: bool


@dataclass
class FluctuationReport:
    """Samples of the normalized centered trace statistic plus test results.

    ``ks_statistic``/``ks_pvalue`` are None when the predicted variance is
    zero (degenerate limit).
    """

    poly: Poly
    model: MomentModel
    d: int
    L: int
    n_samples: int
    seed: int
    samples: np.ndarray
    predicted_sigma2: Fraction
    empirical_mean: float
    empirical_var: float
    skewness: float
    excess_kurtosis: float
    ks_statistic: float | None
    ks_pvalue: float | None

    def to_json_dict(self) -> dict:
        return {
            "config": {
                "poly": self.poly.format(),
                "dist": format_distribution(self.model),
                "d": self.d,
                "L": self.L,
                "samples": self.n_samples,
                "seed": self.seed,
            },
            "predicted_sigma2": str(self.predicted_sigma2),
            "predicted_sigma2_float": float(self.predicted_sigma2),
            "empirical_mean": self.empirical_mean,
            "empirical_var": self.empirical_var,
            "skewness": self.skewness,
            "excess_kurtosis": self.excess_kurtosis,
            "ks_statistic": self.ks_statistic,
            "ks_pvalue": self.ks_pvalue,
            "samples": [float(x) for x in self.samples],
        }

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("index,value\n")
            for i, value in enumerate(self.samples):
                handle.write(f"{i},{float(value)!r}\n")


def ks_test(samples: Sequence[float], sigma2: float) -> KsResult:
    """One-sample Kolmogorov-Smirnov against the centered normal law.

    The p-value is the asymptotic Kolmogorov survival function at
    sqrt(n) times the statistic. Needs at least 50 samples and a positive
    variance.
    """
    # imported here so that exact commands, which never test, skip scipy
    from scipy.special import kolmogorov, ndtr

    data = np.sort(np.asarray(samples, dtype=float))
    n = len(data)
    if n < 50:
        raise ValueError(f"KS test needs at least 50 samples, got {n}")
    if sigma2 <= 0:
        raise ValueError("KS test needs a positive variance; degenerate limits are "
                         "checked through variance decay instead")
    cdf = ndtr(data / math.sqrt(sigma2))
    grid = np.arange(1, n + 1) / n
    statistic = float(max((grid - cdf).max(), (cdf - (grid - 1 / n)).max()))
    return KsResult(statistic, float(kolmogorov(math.sqrt(n) * statistic)))


def moment_diagnostics(samples: Sequence[float]) -> MomentDiagnostics:
    """Sample skewness and excess kurtosis with their asymptotic errors.

    Zero-variance samples are flagged degenerate and report zero by
    convention.
    """
    data = np.asarray(samples, dtype=float)
    n = len(data)
    if n < 50:
        raise ValueError(f"moment diagnostics need at least 50 samples, got {n}")
    se_skew = math.sqrt(6.0 / n)
    se_kurt = math.sqrt(24.0 / n)
    centered = data - data.mean()
    m2 = float(np.mean(centered**2))
    if m2 == 0.0:
        return MomentDiagnostics(0.0, 0.0, se_skew, se_kurt, True)
    m3 = float(np.mean(centered**3))
    m4 = float(np.mean(centered**4))
    return MomentDiagnostics(m3 / m2**1.5, m4 / m2**2 - 3.0, se_skew, se_kurt, False)


def run_experiment(
    p: Poly,
    model: MomentModel,
    d: int,
    L: int,
    n_samples: int,
    seed: int,
    threads: int = 1,
    budget: int | None = None,
) -> FluctuationReport:
    """Draw normalized centered trace samples and test them.

    Deterministic given the configuration and seed: sample s is a pure
    function of (seed XOR s). Samples are drawn serially, which measured
    faster than a thread pool in every case tried. ``threads`` is accepted
    and ignored, for callers that still pass it (``perfbench/run.py``).
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    box = BoxSpec(d, L)
    predicted = sigma_squared(p, model, d, budget)

    exact_mean = p.coefficient(0) * box.volume
    for k in range(1, p.degree + 1):
        if p.coefficient(k) != 0:
            exact_mean += p.coefficient(k) * mean_trace_exact(k, box, model, budget)
    center = float(exact_mean)
    norm = math.sqrt(box.volume)

    samples = np.empty(n_samples)
    for s in range(n_samples):
        h = sample_hamiltonian(box, model, seed ^ s, budget)
        samples[s] = (trace_poly_numeric(h, p, budget) - center) / norm

    diagnostics = moment_diagnostics(samples) if n_samples >= 50 else None
    ks: KsResult | None = None
    if predicted > 0 and n_samples >= 50:
        ks = ks_test(samples, float(predicted))

    return FluctuationReport(
        poly=p,
        model=model,
        d=d,
        L=L,
        n_samples=n_samples,
        seed=seed,
        samples=samples,
        predicted_sigma2=predicted,
        empirical_mean=float(samples.mean()),
        empirical_var=float(samples.var(ddof=1)) if n_samples > 1 else 0.0,
        skewness=diagnostics.skewness if diagnostics else 0.0,
        excess_kurtosis=diagnostics.excess_kurtosis if diagnostics else 0.0,
        ks_statistic=ks.statistic if ks else None,
        ks_pvalue=ks.pvalue if ks else None,
    )
