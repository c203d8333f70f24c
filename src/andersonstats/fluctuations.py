"""Monte Carlo experiments on normalized trace fluctuations.

Samples are drawn and traced in chunks. Each sample draws an independent
potential (stream seed = seed XOR sample index) into its row of the chunk,
one batched half-power kernel evaluates the trace of the polynomial for the
whole chunk, and each trace is centered with the exact rational expectation
converted to float once. A chunk holds as many samples as fit in
``CHUNK_CELLS`` half-power cells (fewer if the budget is smaller), at least
one, so small boxes are traced many at a time and large ones alone. The
chunk a sample lands in does not change its value: sample s depends only on
seed XOR s, and enlarging the run never re-randomizes earlier samples.
Exact centering removes the mean-estimation noise that would otherwise
dominate variance checks at moderate sample counts.

The gaussian limit is checked by a one-sample Kolmogorov-Smirnov test with
the asymptotic Kolmogorov p-value plus skewness and kurtosis diagnostics.
Degenerate limits (zero predicted variance) are never KS-tested against a
point mass. For a two-point law the degenerate quadratic is constant on the
support, so its trace is deterministic and the empirical variance is exactly
0 at every box radius; the degenerate cubics and quintic show a normalized
empirical variance that decays with the radius.

numpy and scipy are imported only inside the functions that sample and test
(:func:`run_experiment`, :func:`ks_test`, :func:`moment_diagnostics`), so
importing this module, as the CLI does for every command, loads neither.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .budget import check_budget, resolve_budget
from .hamiltonian import BoxSpec, half_power_cells, mean_trace_exact, trace_poly_batch
from .moments import MomentModel, format_distribution, sample
from .poly import Poly
from .variance import sigma_squared

if TYPE_CHECKING:
    import numpy as np

# Half-power cells a chunk of samples may allocate at once (2^19 float64
# cells, 4 MiB); a sample that needs more is traced alone.
CHUNK_CELLS = 1 << 19


class KsResult(NamedTuple):
    statistic: float
    pvalue: float


class MomentDiagnostics(NamedTuple):
    skewness: float
    excess_kurtosis: float
    se_skew: float
    se_kurt: float
    degenerate: bool


class FluctuationReport(NamedTuple):
    """Samples of the normalized centered trace statistic plus test results.

    ``ks_statistic``/``ks_pvalue`` are None when the predicted variance is
    zero (degenerate limit). Statistics that were not computed are None:
    ``empirical_var`` below 2 samples, and ``skewness``/``excess_kurtosis``
    and the KS fields below 50.
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
    empirical_var: float | None
    skewness: float | None
    excess_kurtosis: float | None
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

    def write_csv(self, out) -> None:
        """Write ``index,value`` rows to a path or to an open text file."""
        if not hasattr(out, "write"):
            with open(out, "w", encoding="utf-8") as handle:
                return self.write_csv(handle)
        out.write("index,value\n")
        for i, value in enumerate(self.samples):
            out.write(f"{i},{float(value)!r}\n")


def ks_test(samples: Sequence[float], sigma2: float) -> KsResult:
    """One-sample Kolmogorov-Smirnov against the centered normal law.

    The p-value is the asymptotic Kolmogorov survival function at
    sqrt(n) times the statistic. Needs at least 50 samples and a positive
    variance.
    """
    # imported here, not at module level, so that the exact commands, which
    # never sample or test, load neither numpy nor scipy
    import numpy as np
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
    import numpy as np

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
) -> FluctuationReport:
    """Draw normalized centered trace samples and test them.

    Deterministic given the configuration and seed: sample s is a pure
    function of (seed XOR s), equal bit for bit to
    ``(trace_poly_numeric(sample_hamiltonian(box, model, seed ^ s), p) -
    center) / sqrt(volume)``. Samples are drawn and traced in chunks of
    max(1, min(CHUNK_CELLS, budget) // cells) samples, where cells =
    2 volume |B_1(ceil(degree / 2))| are the half-power cells one sample
    needs; each chunk charges the budget for its potentials and its
    half-power cells. ``threads`` is accepted and ignored, for callers that
    still pass it (``perfbench/run.py``).
    """
    import numpy as np

    if n_samples < 1:
        raise ValueError("need at least one sample")
    box = BoxSpec(d, L)
    predicted = sigma_squared(p, model, d)

    exact_mean = p.coefficient(0) * box.volume
    for k in range(1, p.degree + 1):
        if p.coefficient(k) != 0:
            exact_mean += p.coefficient(k) * mean_trace_exact(k, box, model)
    center = float(exact_mean)
    norm = math.sqrt(box.volume)

    cells = half_power_cells(d, box.volume, p.degree)
    chunk = max(1, min(CHUNK_CELLS, resolve_budget()) // cells)
    samples = np.empty(n_samples)
    for start in range(0, n_samples, chunk):
        size = min(chunk, n_samples - start)
        check_budget(size * box.volume, f"potentials of {size} samples")
        potentials = np.empty((size, box.volume))
        for row in range(size):
            potentials[row] = sample(model, seed ^ (start + row), box.volume)
        traces = trace_poly_batch(potentials.reshape((size,) + (box.n_side,) * d), p)
        samples[start : start + size] = (traces - center) / norm

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
        empirical_var=float(samples.var(ddof=1)) if n_samples > 1 else None,
        skewness=diagnostics.skewness if diagnostics else None,
        excess_kurtosis=diagnostics.excess_kurtosis if diagnostics else None,
        ks_statistic=ks.statistic if ks else None,
        ks_pvalue=ks.pvalue if ks else None,
    )
