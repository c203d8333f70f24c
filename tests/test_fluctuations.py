from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.special
import scipy.stats

from andersonstats import (
    BoxSpec,
    MomentModel,
    Poly,
    degenerate_basis,
    ks_test,
    mean_trace_exact,
    moment_diagnostics,
    run_experiment,
    sample_hamiltonian,
    sigma_squared,
    trace_poly_numeric,
)
from andersonstats.fluctuations import CHUNK_CELLS, _kolmogorov_sf, _normal_cdf
from andersonstats.hamiltonian import half_power_cells

UNIFORM = MomentModel.uniform_symmetric(1)
GAUSSIAN = MomentModel.gaussian(1)
TWO_POINT = MomentModel.discrete([(1, Fraction(1, 2)), (-1, Fraction(1, 2))])

X = Poly.x_power

# base seeds for multi-seed averages must be far apart: XOR-ing sample
# indices into nearby small seeds permutes the same stream-seed set and
# reproduces identical sample multisets
SEEDS = (1 << 32, 2 << 32, 3 << 32)


def _normal_draws(n, seed=1):
    return np.random.Generator(np.random.Philox(key=seed)).standard_normal(n)


class TestKsTest:
    def test_calibration_on_true_null(self):
        result = ks_test(_normal_draws(5000), 1.0)
        assert result.pvalue > 0.001

    def test_point_mass_is_rejected(self):
        result = ks_test(np.zeros(500), 1.0)
        assert result.statistic == pytest.approx(0.5)
        assert result.pvalue < 1e-12

    def test_degenerate_variance_is_an_error(self):
        with pytest.raises(ValueError):
            ks_test(_normal_draws(100), 0.0)

    def test_small_samples_are_an_error(self):
        with pytest.raises(ValueError):
            ks_test(_normal_draws(49), 1.0)

    @pytest.mark.parametrize("n", [60, 500, 3000])
    def test_against_scipy(self, n):
        draws = 1.7 * _normal_draws(n, seed=n)
        sigma2 = 2.0
        mine = ks_test(draws, sigma2)
        reference = scipy.stats.kstest(
            draws, lambda x: scipy.stats.norm.cdf(x, scale=math.sqrt(sigma2)),
            method="asymp",
        )
        assert mine.statistic == pytest.approx(reference.statistic, rel=1e-12)
        assert mine.pvalue == pytest.approx(reference.pvalue, rel=1e-6, abs=1e-12)


    def test_pvalue_of_exact_quantiles_is_one(self):
        # lambda = sqrt(n) * D = 0.005, where a truncated alternating series
        # for the Kolmogorov survival function is far from its limit 1
        n = 10_000
        quantiles = scipy.stats.norm.ppf((np.arange(1, n + 1) - 0.5) / n)
        mine = ks_test(quantiles, 1.0)
        reference = scipy.stats.kstest(quantiles, "norm", method="asymp")
        assert mine.statistic == pytest.approx(5e-5, rel=1e-6)
        assert reference.pvalue == 1.0
        assert mine.pvalue == pytest.approx(reference.pvalue, abs=1e-12)


class TestPValueFunctions:
    # scipy is the oracle here only: the package computes both functions with math
    def test_kolmogorov_survival_matches_scipy(self):
        # dense around the switch of series at x = 1, where each kept term counts
        grid = np.unique(np.concatenate([
            np.geomspace(1e-4, 40, 4001),
            np.linspace(0.3, 1.5, 2401),
            [1 - 1e-12, 1.0, 1 + 1e-12],
        ]))
        mine = np.array([_kolmogorov_sf(float(x)) for x in grid])
        assert np.abs(mine - scipy.special.kolmogorov(grid)).max() <= 1e-14
        assert mine.min() >= 0 and mine.max() <= 1
        assert np.all(np.diff(mine) <= 0)

    def test_kolmogorov_survival_is_one_at_and_below_zero(self):
        assert _kolmogorov_sf(0.0) == _kolmogorov_sf(-3.0) == 1.0

    def test_normal_cdf_matches_scipy(self):
        z = np.linspace(-40, 40, 80_001)
        assert np.abs(_normal_cdf(z) - scipy.special.ndtr(z)).max() <= 4e-16


class TestMomentDiagnostics:
    def test_constant_samples_are_flagged(self):
        result = moment_diagnostics(np.full(100, 2.5))
        assert result.degenerate
        assert result.skewness == 0.0 and result.excess_kurtosis == 0.0

    def test_calibration(self):
        n = 10_000
        result = moment_diagnostics(_normal_draws(n))
        assert not result.degenerate
        assert result.se_skew == pytest.approx(math.sqrt(6 / n))
        assert result.se_kurt == pytest.approx(math.sqrt(24 / n))
        assert abs(result.skewness) < 5 * result.se_skew
        assert abs(result.excess_kurtosis) < 5 * result.se_kurt

    def test_small_samples_are_an_error(self):
        with pytest.raises(ValueError):
            moment_diagnostics(np.zeros(10))


def test_reports_are_deterministic():
    first = run_experiment(X(2), UNIFORM, 1, 20, 80, 42)
    second = run_experiment(X(2), UNIFORM, 1, 20, 80, 42)
    assert np.array_equal(first.samples, second.samples)
    assert first.empirical_var == second.empirical_var
    assert first.ks_pvalue == second.ks_pvalue


def test_thread_count_does_not_change_results():
    single = run_experiment(X(2), UNIFORM, 1, 20, 60, 7, threads=1)
    pooled = run_experiment(X(2), UNIFORM, 1, 20, 60, 7, threads=4)
    assert np.array_equal(single.samples, pooled.samples)


# d=1, L=200 at degree 5 takes 2 * 401 * 7 = 5614 half-power cells per
# sample, so 2^18 // 5614 = 46 samples share a chunk and the runs below
# cross chunk boundaries; d=3, L=10 at degree 3 takes 463050 cells and is
# traced alone
@pytest.mark.parametrize(
    "d,L,p,n,chunk",
    [
        (1, 200, Poly.from_coeffs([1, 2, 0, -1, 0, 1]), 200, 46),
        (3, 10, Poly.from_coeffs([0, 0, 1, 1]), 3, 1),
    ],
    ids=["d1-chunks", "d3-one-per-chunk"],
)
def test_chunking_is_invisible(monkeypatch, d, L, p, n, chunk):
    box, seed = BoxSpec(d, L), 5
    cells = half_power_cells(d, box.volume, p.degree)
    assert max(1, CHUNK_CELLS // cells) == chunk < n
    samples = run_experiment(p, UNIFORM, d, L, n, seed).samples
    # a prefix of a longer run, whose chunks split the samples differently
    assert np.array_equal(run_experiment(p, UNIFORM, d, L, n + 57, seed).samples[:n], samples)
    # each sample is its own potential's trace, traced alone
    exact = p.coefficient(0) * box.volume + sum(
        p.coefficient(k) * mean_trace_exact(k, box, UNIFORM) for k in range(1, p.degree + 1)
    )
    center, norm = float(exact), math.sqrt(box.volume)
    for s in range(n):
        h = sample_hamiltonian(box, UNIFORM, seed ^ s)
        assert samples[s] == (trace_poly_numeric(h, p) - center) / norm
    # chunks of one and of three samples, capped by the budget
    for per_chunk in (1, 3):
        monkeypatch.setenv("ANDERSON_BUDGET", str(per_chunk * cells))
        assert np.array_equal(run_experiment(p, UNIFORM, d, L, n, seed).samples, samples)


def test_first_power_samples_are_normalized_potential_sums():
    L, n = 10, 40
    report = run_experiment(X(1), UNIFORM, 1, L, n, 9)
    norm = math.sqrt(2 * L + 1)
    for s in range(n):
        h = sample_hamiltonian(BoxSpec(1, L), UNIFORM, 9 ^ s)
        assert report.samples[s] == pytest.approx(
            float(h.potential.sum()) / norm, rel=1e-12
        )


def test_first_power_variance_matches_prediction():
    n = 2000
    report = run_experiment(X(1), UNIFORM, 1, 50, n, 3)
    m2 = 1 / 3
    assert report.predicted_sigma2 == Fraction(1, 3)
    assert abs(report.empirical_var - m2) < 5 * math.sqrt(2 / n) * m2


def test_exact_centering_leaves_no_mean_bias():
    for seed in SEEDS:
        report = run_experiment(X(2), UNIFORM, 1, 40, 500, seed)
        standardized = (
            report.empirical_mean
            * math.sqrt(report.n_samples)
            / math.sqrt(report.empirical_var)
        )
        assert abs(standardized) < 5


def test_symmetric_odd_statistic_has_small_skewness():
    report = run_experiment(X(3), UNIFORM, 1, 30, 2000, 13)
    assert abs(report.skewness) < 5 * math.sqrt(6 / report.n_samples)


def test_degenerate_reports_have_no_ks_fields():
    quad = degenerate_basis(TWO_POINT, 1)[0]
    report = run_experiment(quad, TWO_POINT, 1, 30, 100, 1)
    assert report.predicted_sigma2 == 0
    assert report.ks_statistic is None and report.ks_pvalue is None
    # this statistic is in fact deterministic: squares of a +-1 potential
    # are constant, so exact centering leaves exactly zero
    assert np.all(report.samples == 0.0)


def _variance_ratio_under_doubling(p, model, n):
    ratios = []
    for seed in SEEDS:
        small = run_experiment(p, model, 1, 40, n, seed).empirical_var
        large = run_experiment(p, model, 1, 80, n, seed ^ (99 << 32)).empirical_var
        if small == large == 0.0:
            ratios.append(0.0)  # already collapsed; treat as decayed
        else:
            ratios.append(large / small)
    return float(np.mean(ratios))


def test_degenerate_vs_nondegenerate_dichotomy():
    quad, cubic, quintic = degenerate_basis(TWO_POINT, 1)
    assert _variance_ratio_under_doubling(cubic, TWO_POINT, 600) < 0.75
    assert _variance_ratio_under_doubling(quintic, TWO_POINT, 600) < 0.75
    assert _variance_ratio_under_doubling(quad, TWO_POINT, 600) < 0.75
    stable = _variance_ratio_under_doubling(X(3), TWO_POINT, 800)
    assert 0.8 < stable < 1.2


def test_report_round_trip_to_json():
    report = run_experiment(X(2), UNIFORM, 1, 20, 60, 5)
    payload = report.to_json_dict()
    assert payload["predicted_sigma2"] == "4/45"
    assert payload["config"]["dist"] == "uniform:1"
    assert len(payload["samples"]) == 60
    assert payload["empirical_var"] == report.empirical_var


def test_statistics_that_were_not_computed_are_null():
    few = run_experiment(X(2), UNIFORM, 1, 5, 49, 3).to_json_dict()
    assert isinstance(few["empirical_var"], float)
    for field in ("skewness", "excess_kurtosis", "ks_statistic", "ks_pvalue"):
        assert few[field] is None
    enough = run_experiment(X(2), UNIFORM, 1, 5, 50, 3).to_json_dict()
    for field in ("empirical_var", "skewness", "excess_kurtosis", "ks_statistic", "ks_pvalue"):
        assert isinstance(enough[field], float)
    assert run_experiment(X(2), UNIFORM, 1, 5, 1, 3).empirical_var is None


def test_report_csv_dump(tmp_path):
    report = run_experiment(X(1), UNIFORM, 1, 5, 10, 5)
    path = tmp_path / "samples.csv"
    report.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "index,value"
    assert len(lines) == 11
    assert float(lines[1].split(",")[1]) == report.samples[0]


def test_predictions_come_from_the_variance_module():
    report = run_experiment(X(2), UNIFORM, 1, 20, 60, 5)
    assert report.predicted_sigma2 == sigma_squared(X(2), UNIFORM, 1)
