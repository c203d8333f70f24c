"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from fractions import Fraction
from random import Random

from andersonstats import (
    BoxSpec,
    MomentModel,
    Poly,
    degenerate_basis,
    mean_trace_exact,
    path_counts,
    run_experiment,
    shift,
    sigma_squared,
    sigma_squared_local_oracle,
    truncated_coefficient,
    verify_reference_table,
)

from helpers import random_discrete_model, random_poly, symbolic_trace

UNIFORM = MomentModel.uniform_symmetric(1)
GAUSSIAN = MomentModel.gaussian(1)
TWO_POINT = MomentModel.discrete([(1, Fraction(1, 2)), (-1, Fraction(1, 2))])

X = Poly.x_power


@contextmanager
def criterion(number: int, description: str):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL ({time.monotonic() - started:.1f}s) {description}")
        raise
    print(f"[criterion {number}] PASS ({time.monotonic() - started:.1f}s) {description}")


def test_criterion_1_table_reproduction():
    with criterion(1, "path-count table reproduced exactly for d = 1, 2, 3"):
        started = time.monotonic()
        for d in (1, 2, 3):
            verification = verify_reference_table(d)
            assert verification.match, verification.diffs
        assert time.monotonic() - started < 10.0


def test_criterion_2_zero_variance_certificates():
    with criterion(2, "zero-variance certificates are exact rational zeros"):
        started = time.monotonic()
        for d in (1, 2, 3):
            three_point = random_discrete_model(Random(300 + d), 3)
            basis = degenerate_basis(three_point, d)
            assert len(basis) == 1 and basis[0].degree == 3
            assert sigma_squared(basis[0], three_point, d) == 0

            two_point = random_discrete_model(Random(200 + d), 2)
            basis = degenerate_basis(two_point, d)
            assert [q.degree for q in basis] == [2, 3, 5]
            for q in basis:
                assert sigma_squared(q, two_point, d) == 0
        assert time.monotonic() - started < 30.0


def test_criterion_3_local_oracle_equivalence():
    with criterion(3, "local-witness oracle equals the direct variance on 20 "
                      "random polynomials per model kind and dimension"):
        started = time.monotonic()
        rng = Random(33)
        kinds = [TWO_POINT, random_discrete_model(rng, 3), UNIFORM, GAUSSIAN]
        for model in kinds:
            for d in (1, 2):
                for _ in range(20):
                    p = random_poly(rng, rng.randint(1, 5))
                    assert sigma_squared_local_oracle(p, model, d) == sigma_squared(
                        p, model, d
                    )
        assert time.monotonic() - started < 120.0


def test_criterion_4_symbolic_trace_oracle():
    with criterion(4, "symbolic trace coefficients match the boundary-corrected "
                      "counts, the bulk counts inside, and vanish outside"):
        started = time.monotonic()
        for L in (2, 3, 4):
            box = BoxSpec(1, L)
            for k in (1, 2, 3, 4):
                expansion = symbolic_trace(k, box)
                table = path_counts(k, 1)
                # every anchored class in a window wider than the box
                for index in table.counts:
                    for anchor in range(-L - k - 1, L + k + 2):
                        moved = shift(index, (anchor,))
                        coefficient = expansion.terms.get(moved, 0)
                        assert coefficient == truncated_coefficient(moved, k, L)
                        support = moved.support()
                        if all(-(L - k) <= pt[0] <= L - k for pt in support):
                            assert coefficient == table.counts[index]
                        if any(not (-L <= pt[0] <= L) for pt in support):
                            assert coefficient == 0
                # and nothing else appears in the expansion
                for index, coefficient in expansion.terms.items():
                    assert coefficient == truncated_coefficient(index, k, L)
        assert time.monotonic() - started < 60.0


def test_criterion_5_exact_mean():
    with criterion(5, "exact expected traces: hand value, odd-power vanishing, "
                      "agreement with the symbolic expansion"):
        assert mean_trace_exact(2, BoxSpec(1, 1), UNIFORM) == 5
        for model in (UNIFORM, GAUSSIAN, TWO_POINT):
            for k in (1, 3, 5):
                for L in (1, 2, 3):
                    assert mean_trace_exact(k, BoxSpec(1, L), model) == 0
        for L in (2, 3, 4):
            box = BoxSpec(1, L)
            for k in (1, 2, 3, 4):
                expansion = symbolic_trace(k, box)
                for model in (UNIFORM, GAUSSIAN, TWO_POINT):
                    assert expansion.expected_value(model) == mean_trace_exact(
                        k, box, model
                    )


def test_criterion_6_clt_nondegenerate():
    with criterion(6, "nondegenerate CLT at L=200: empirical variance within "
                      "15% of the exact prediction, gaussian KS accepted"):
        started = time.monotonic()
        prediction = sigma_squared(X(2), UNIFORM, 1)
        assert prediction == Fraction(4, 45)
        report = run_experiment(X(2), UNIFORM, 1, 200, 4000, 1)
        assert report.predicted_sigma2 == prediction
        assert 0.85 * float(prediction) <= report.empirical_var <= 1.15 * float(prediction)
        assert report.ks_pvalue is not None and report.ks_pvalue > 0.001
        first_elapsed = time.monotonic() - started
        assert first_elapsed < 300.0

        started = time.monotonic()
        prediction = sigma_squared(X(3), UNIFORM, 1)
        assert prediction == Fraction(509, 35)
        report = run_experiment(X(3), UNIFORM, 1, 200, 4000, 2)
        assert report.predicted_sigma2 == prediction
        assert 0.85 * float(prediction) <= report.empirical_var <= 1.15 * float(prediction)
        assert time.monotonic() - started < 300.0


def test_criterion_7_degenerate_decay():
    with criterion(7, "degenerate two-point quadratic deterministic (empirical variance "
                      "exactly 0 at L=100,200,400); degenerate cubic's empirical variance "
                      "strictly decreasing and below 0.05 at L=400"):
        started = time.monotonic()
        radii = (100, 200, 400)
        quad, cubic = degenerate_basis(TWO_POINT, 1)[:2]
        # The support {1,-1} has a+b = 0, so the quadratic is x^2, which is the
        # constant 1 on the support: its trace has no randomness at any L.
        assert quad == X(2)
        quad_variances = [
            run_experiment(quad, TWO_POINT, 1, L, 2000, 5).empirical_var for L in radii
        ]
        assert quad_variances == [0.0, 0.0, 0.0]
        # The cubic's normalized variance is non-zero at finite L and decays
        # like 18/(2L+1).
        assert cubic.format() == "0,-7,0,1"
        variances = [
            run_experiment(cubic, TWO_POINT, 1, L, 2000, 5).empirical_var for L in radii
        ]
        assert variances[2] < 0.05
        assert time.monotonic() - started < 300.0
        assert variances[0] > variances[1] > variances[2], (
            f"variances {variances} are not strictly decreasing"
        )


def test_criterion_8_two_dimensional_sanity():
    with criterion(8, "d=2 iid-sum base case: unit variance within 20% and "
                      "gaussian KS accepted"):
        started = time.monotonic()
        prediction = sigma_squared(X(1), GAUSSIAN, 2)
        assert prediction == 1
        report = run_experiment(X(1), GAUSSIAN, 2, 30, 1000, 8)
        assert report.predicted_sigma2 == prediction
        assert 0.8 <= report.empirical_var <= 1.2
        assert report.ks_pvalue is not None and report.ks_pvalue > 0.001
        assert time.monotonic() - started < 180.0
