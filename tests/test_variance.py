from __future__ import annotations

from fractions import Fraction
from random import Random

import pytest

from andersonstats import (
    BudgetExceededError,
    MomentModel,
    MultiIndex,
    Poly,
    classify,
    covariance_entries,
    degenerate_basis,
    delta,
    limiting_covariance,
    moment,
    path_counts,
    sigma_squared,
    sigma_squared_local_oracle,
    support_class,
)

import andersonstats.variance as variance_module

from helpers import offset_covariance_sum, random_discrete_model, random_poly

UNIFORM = MomentModel.uniform_symmetric(1)
GAUSSIAN = MomentModel.gaussian(1)
TWO_POINT = MomentModel.discrete([(1, Fraction(1, 2)), (-1, Fraction(1, 2))])
SKEWED = MomentModel.discrete([(2, Fraction(1, 3)), (-1, Fraction(2, 3))])
SKEWED_TWO = SKEWED  # two atoms, asymmetric: a+b = 1
THREE_POINT = MomentModel.discrete(
    [(1, Fraction(1, 3)), (0, Fraction(1, 3)), (-1, Fraction(1, 3))]
)
ALL_KINDS = [TWO_POINT, THREE_POINT, UNIFORM, GAUSSIAN]

X = Poly.x_power


class TestPoly:
    def test_parse_format(self):
        p = Poly.parse("0,0,0,1")
        assert p == X(3) and p.degree == 3
        assert p.format() == "0,0,0,1"
        assert Poly.parse("1/2,-2").coeffs == (Fraction(1, 2), Fraction(-2))

    def test_trailing_zeros_stripped(self):
        assert Poly.from_coeffs([1, 2, 0, 0]).degree == 1
        assert Poly.from_coeffs([0, 0]).degree == -1
        with pytest.raises(ValueError):
            Poly((Fraction(1), Fraction(0)))

    def test_arithmetic_and_evaluation(self):
        p = X(2) + (-3) * X(1) + Poly.from_coeffs([2])
        assert p.coeffs == (Fraction(2), Fraction(-3), Fraction(1))
        assert p(2.0) == 0.0
        assert p(0.0) == 2.0


def test_offset_covariance_sum_single_site():
    d1 = delta(1, (0,))
    for model in ALL_KINDS:
        assert offset_covariance_sum(d1, d1, model) == moment(model, 2)
        assert offset_covariance_sum(d1, delta(1, (0,), 3), model) == moment(model, 4)


def test_offset_covariance_sum_adjacent_pair():
    # three overlapping offsets; the shifted ones leave a lone first-power
    # site, so only the aligned term survives
    pair = MultiIndex.from_map(1, {(0,): 1, (1,): 1})
    assert offset_covariance_sum(pair, pair, UNIFORM) == Fraction(1, 9)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_limiting_covariance_matches_offset_sums(d):
    # the exponent-histogram route over orbit representatives against the
    # direct per-pair, per-offset sums of offset_covariance_sum over every
    # class pair; d=3 (48 point symmetries) up to power 4
    powers = range(1, 5 if d == 3 else 7)
    for model in ALL_KINDS:
        for k in powers:
            for l in powers:
                left, right = path_counts(k, d), path_counts(l, d)
                expected = sum(
                    (
                        count_left * count_right * offset_covariance_sum(a, b, model)
                        for a, count_left in left.counts.items()
                        for b, count_right in right.counts.items()
                    ),
                    Fraction(0),
                )
                assert limiting_covariance((k, l), model, d) == expected


def test_limiting_covariance_memo_still_checks_budget(monkeypatch):
    value = limiting_covariance((3, 4), UNIFORM, 2)
    assert limiting_covariance((4, 3), UNIFORM, 2) == value
    monkeypatch.setenv("ANDERSON_BUDGET", "10")
    with pytest.raises(BudgetExceededError):
        limiting_covariance((3, 4), UNIFORM, 2)


def _clear_covariance_memos():
    for memo in (variance_module._orbits, variance_module._weights, variance_module._covariance):
        memo.cache_clear()


def test_asymmetric_table_raises_integrity_error(monkeypatch):
    # a table whose counts differ within one point-symmetry orbit cannot
    # be folded by orbit representatives; the loop must say so, not guess
    from andersonstats import IntegrityError, PathCountTable

    counts = dict(path_counts(5, 2).counts)
    counts[MultiIndex.from_map(2, {(0, 0): 2, (1, 0): 1})] += 1
    monkeypatch.setattr(variance_module, "path_counts", lambda k, d: PathCountTable(k, d, counts))
    _clear_covariance_memos()
    try:
        with pytest.raises(IntegrityError):
            limiting_covariance((5, 5), UNIFORM, 2)
    finally:
        _clear_covariance_memos()


@pytest.mark.parametrize("d,max_power", [(1, 7), (2, 6), (3, 4)])
def test_covariance_weights_do_not_depend_on_the_law(d, max_power):
    # the memoized weights that a first law leaves behind give a second law
    # exactly what a cold computation gives it, and the two laws differ
    cold = {}
    for model in (SKEWED, GAUSSIAN):
        _clear_covariance_memos()
        cold[model] = covariance_entries(max_power, model, d)
    assert cold[SKEWED] != cold[GAUSSIAN]
    _clear_covariance_memos()
    covariance_entries(max_power, SKEWED, d)
    assert covariance_entries(max_power, GAUSSIAN, d) == cold[GAUSSIAN]


def test_limiting_covariance_base_cases():
    for model in ALL_KINDS:
        for d in (1, 2):
            assert limiting_covariance((1, 1), model, d) == moment(model, 2)
            assert limiting_covariance((1, 2), model, d) == moment(model, 3)
    assert limiting_covariance((1, 2), SKEWED, 1) == 2
    assert limiting_covariance((2, 2), UNIFORM, 1) == Fraction(4, 45)


def test_limiting_covariance_symmetry():
    for k, l in [(1, 3), (2, 5), (3, 4)]:
        assert limiting_covariance((k, l), SKEWED, 1) == limiting_covariance(
            (l, k), SKEWED, 1
        )


def test_sigma_squared_examples():
    for model in ALL_KINDS:
        assert sigma_squared(X(1), model, 1) == moment(model, 2)
    quad = degenerate_basis(SKEWED_TWO, 1)[0]
    assert sigma_squared(quad, SKEWED_TWO, 1) == 0
    assert sigma_squared(X(3), UNIFORM, 1) == Fraction(509, 35)



def test_sigma_squared_rejects_constants():
    with pytest.raises(ValueError):
        sigma_squared(Poly.from_coeffs([3]), UNIFORM, 1)


def test_degenerate_basis_three_point():
    basis = degenerate_basis(THREE_POINT, 1)
    assert [q.format() for q in basis] == ["0,-7,0,1"]


def test_degenerate_basis_two_point_quadratic():
    basis = degenerate_basis(SKEWED_TWO, 1)
    assert basis[0].format() == "0,-1,1"  # x^2 - (a+b)x with a+b = 1


def test_degenerate_basis_two_point_quintic():
    # for support {1,-1} in one dimension the quintic is x^5 - 51x: the
    # bracket 3(a^4+b^4)+8(a^3 b+a^2 b^2+a b^3)+20d(a^2+b^2)+80dab-120d^2+60d
    # evaluates to 6-8+40-80-120+60 = -102, halved
    basis = degenerate_basis(TWO_POINT, 1)
    assert [q.degree for q in basis] == [2, 3, 5]
    assert basis[0].format() == "0,0,1"
    assert basis[1].format() == "0,-7,0,1"
    assert basis[2].format() == "0,-51,0,0,0,1"


def test_degenerate_basis_empty_for_rich_support():
    assert degenerate_basis(UNIFORM, 1) == []
    assert degenerate_basis(GAUSSIAN, 2) == []


@pytest.mark.parametrize("d", [1, 2, 3, 9, 12])
def test_zero_certificates_exact(d):
    rng = Random(100 + d)
    for n_atoms in (2, 3):
        model = random_discrete_model(rng, n_atoms)
        for q in degenerate_basis(model, d):
            assert sigma_squared(q, model, d) == 0


@pytest.mark.parametrize("d", [1, 2])
def test_quintic_linear_coefficient_is_the_unique_zero(d):
    # sigma^2 is a quadratic polynomial in the linear coefficient with a
    # double root; solving it exactly must land on the basis value
    rng = Random(7 * d)
    for _ in range(3):
        model = random_discrete_model(rng, 2)
        a, b = support_class(model).values
        quintic = degenerate_basis(model, d)[2]

        def s2(c):
            p = Poly.from_coeffs([0, c, 0, 0, Fraction(-5, 2) * (a + b), 1])
            return sigma_squared(p, model, d)

        y0, y1, y2 = s2(Fraction(0)), s2(Fraction(1)), s2(Fraction(2))
        curvature = (y2 - 2 * y1 + y0) / 2
        slope = y1 - y0 - curvature
        assert slope * slope - 4 * y0 * curvature == 0  # double root
        assert -slope / (2 * curvature) == quintic.coefficient(1)


def test_classify_examples():
    assert classify(X(1), GAUSSIAN, 1) == "nondegenerate"
    assert classify(X(4), TWO_POINT, 1) == "nondegenerate"
    quad, cubic, quintic = degenerate_basis(TWO_POINT, 2)
    combo = cubic + 5 * quad + Poly.from_coeffs([7])
    assert classify(combo, TWO_POINT, 2) == "degenerate"
    assert classify(quintic, TWO_POINT, 2) == "degenerate"


def test_classify_three_point_span():
    cubic = degenerate_basis(THREE_POINT, 1)[0]
    assert classify(cubic + Poly.from_coeffs([3]), THREE_POINT, 1) == "degenerate"
    assert classify(cubic + X(1), THREE_POINT, 1) == "nondegenerate"


def test_classify_rejects_constants():
    with pytest.raises(ValueError):
        classify(Poly.from_coeffs([1]), UNIFORM, 1)


def test_positivity_for_degrees_outside_235():
    for m in (1, 4, 6, 7):
        assert sigma_squared(X(m), TWO_POINT, 1) > 0
    for m in range(1, 8):
        assert sigma_squared(X(m), UNIFORM, 1) > 0
        assert sigma_squared(X(m), GAUSSIAN, 1) > 0


def test_local_oracle_examples():
    for model in ALL_KINDS:
        assert sigma_squared_local_oracle(X(1), model, 1) == moment(model, 2)
    quintic = degenerate_basis(TWO_POINT, 1)[2]
    assert sigma_squared_local_oracle(quintic, TWO_POINT, 1) == 0
    assert sigma_squared_local_oracle(X(2), UNIFORM, 2) == sigma_squared(
        X(2), UNIFORM, 2
    )


def test_local_oracle_rejects_high_degree():
    with pytest.raises(ValueError):
        sigma_squared_local_oracle(X(6), UNIFORM, 1)
    with pytest.raises(ValueError):
        sigma_squared_local_oracle(Poly.from_coeffs([2]), UNIFORM, 1)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("kind", range(4))
def test_local_oracle_agrees_with_direct_route(d, kind):
    rng = Random(17 + 10 * d + kind)
    model = ALL_KINDS[kind]
    for _ in range(5):
        p = random_poly(rng, rng.randint(1, 5))
        assert sigma_squared_local_oracle(p, model, d) == sigma_squared(p, model, d)


def test_local_oracle_agrees_in_three_dimensions():
    rng = Random(99)
    for model, degree in [(SKEWED, 5), (TWO_POINT, 5), (UNIFORM, 3), (GAUSSIAN, 3)]:
        p = random_poly(rng, degree)
        assert sigma_squared_local_oracle(p, model, 3) == sigma_squared(p, model, 3)


def test_route_disagreement_raises_integrity_error(monkeypatch):
    # force the variance route to lie; the span route must catch it loudly
    import andersonstats.variance as variance_module
    from andersonstats import IntegrityError

    quad = degenerate_basis(TWO_POINT, 1)[0]
    monkeypatch.setattr(
        variance_module, "sigma_squared", lambda p, model, d: Fraction(1)
    )
    with pytest.raises(IntegrityError):
        classify(quad, TWO_POINT, 1)


def test_variance_is_nonnegative_and_respects_affine_maps():
    rng = Random(5)
    for _ in range(8):
        model = random_discrete_model(rng, rng.randint(2, 4))
        p = random_poly(rng, rng.randint(1, 4))
        d = rng.randint(1, 2)
        value = sigma_squared(p, model, d)
        assert value >= 0
        shifted = p + Poly.from_coeffs([Fraction(rng.randint(-5, 5))])
        assert sigma_squared(shifted, model, d) == value
        scale = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        assert sigma_squared(scale * p, model, d) == scale**2 * value


def test_sigma_squared_is_the_covariance_quadratic_form():
    rng = Random(21)
    p = random_poly(rng, 5)
    for model in (SKEWED, UNIFORM):
        entries = {
            (e.k, e.l): e.value for e in covariance_entries(5, model, 1)
        }
        total = Fraction(0)
        for k in range(1, 6):
            for l in range(1, 6):
                value = entries[(k, l)] if k <= l else entries[(l, k)]
                total += p.coefficient(k) * p.coefficient(l) * value
        assert total == sigma_squared(p, model, 1)
