from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from andersonstats import (
    MomentModel,
    MultiIndex,
    delta,
    format_distribution,
    moment,
    monomial_expectation,
    parse_distribution,
    sample,
    support_class,
)

from conftest import multi_indices, points
from helpers import monomial_covariance

UNIFORM = MomentModel.uniform_symmetric(1)
GAUSSIAN = MomentModel.gaussian(1)
TWO_POINT = MomentModel.discrete([(1, Fraction(1, 2)), (-1, Fraction(1, 2))])
SKEWED = MomentModel.discrete([(2, Fraction(1, 3)), (-1, Fraction(2, 3))])
MODELS = [UNIFORM, GAUSSIAN, TWO_POINT, SKEWED]


def test_moment_examples():
    assert moment(UNIFORM, 2) == Fraction(1, 3)
    assert moment(SKEWED, 1) == 0
    assert moment(GAUSSIAN, 4) == 3


def test_moment_closed_forms():
    assert moment(UNIFORM, 0) == 1
    assert moment(UNIFORM, 3) == 0
    assert moment(UNIFORM, 6) == Fraction(1, 7)
    assert moment(MomentModel.uniform_symmetric(Fraction(3, 2)), 2) == Fraction(3, 4)
    assert moment(GAUSSIAN, 6) == 15
    assert moment(MomentModel.gaussian(Fraction(1, 4)), 2) == Fraction(1, 4)
    assert moment(SKEWED, 2) == 2
    assert moment(SKEWED, 3) == 2


def test_model_validation():
    with pytest.raises(ValueError):
        MomentModel.discrete([(1, Fraction(1, 2)), (2, Fraction(1, 2))])  # mean 3/2
    with pytest.raises(ValueError):
        MomentModel.discrete([(1, Fraction(1, 2)), (-1, Fraction(1, 3))])  # sum != 1
    with pytest.raises(ValueError):
        MomentModel.discrete([(1, Fraction(3, 2)), (-1, Fraction(-1, 2))])
    with pytest.raises(ValueError):
        MomentModel.discrete([(0, Fraction(1, 2)), (0, Fraction(1, 2))])
    with pytest.raises(ValueError, match="two atoms"):
        MomentModel.discrete([(0, 1)])  # the constant potential 0
    with pytest.raises(ValueError):
        MomentModel.uniform_symmetric(0)
    with pytest.raises(ValueError):
        MomentModel.gaussian(-1)


def test_support_class():
    assert support_class(TWO_POINT).kind == "two_point"
    assert support_class(TWO_POINT).values == (-1, 1)
    three = MomentModel.discrete(
        [(1, Fraction(1, 3)), (0, Fraction(1, 3)), (-1, Fraction(1, 3))]
    )
    assert support_class(three).kind == "three_point"
    assert support_class(UNIFORM).kind == "many"
    assert support_class(GAUSSIAN).kind == "many"


def test_monomial_expectation_examples():
    lone = MultiIndex.from_map(1, {(0,): 2, (3,): 1})
    for model in MODELS:
        assert monomial_expectation(model, lone) == 0
    pair = MultiIndex.from_map(1, {(0,): 2, (1,): 2})
    assert monomial_expectation(UNIFORM, pair) == Fraction(1, 9)
    assert monomial_expectation(UNIFORM, MultiIndex.zero(1)) == 1


def test_monomial_covariance_examples():
    d1 = delta(1, (0,))
    for model in MODELS:
        assert monomial_covariance(model, d1, d1, (0,)) == moment(model, 2)
        assert monomial_covariance(model, d1, d1, (1,)) == 0
    two = delta(1, (0,), 2)
    assert monomial_covariance(UNIFORM, two, two, (0,)) == Fraction(4, 45)


def test_covariance_vanishes_with_a_lone_site():
    # one side has exponent 1 at a site absent from the other side
    left = MultiIndex.from_map(1, {(0,): 1, (1,): 2})
    right = delta(1, (1,), 2)
    for model in MODELS:
        assert monomial_covariance(model, left, right, (0,)) == 0


@given(multi_indices(dims=st.integers(1, 2)), multi_indices(dims=st.integers(1, 2)), st.data())
@settings(max_examples=60, deadline=None)
def test_covariance_symmetry(left, right, data):
    if left.d != right.d:
        return
    offset = data.draw(points(left.d, span=3))
    inverse = tuple(-c for c in offset)
    for model in (UNIFORM, SKEWED):
        assert monomial_covariance(model, left, right, offset) == monomial_covariance(
            model, right, left, inverse
        )


def test_sampling_is_deterministic():
    for model in MODELS:
        first = sample(model, 123456789, 64)
        second = sample(model, 123456789, 64)
        assert np.array_equal(first, second)
        assert not np.array_equal(first, sample(model, 987654321, 64))


def _fresh_stream(model, seed, count):
    """Draws of a generator built for this call alone, keyed by the seed."""
    rng = np.random.Generator(np.random.Philox(key=seed & (2**64 - 1)))
    if model.kind == "uniform":
        return rng.uniform(-float(model.half_width), float(model.half_width), count)
    if model.kind == "gaussian":
        return rng.normal(0.0, np.sqrt(float(model.variance)), count)
    values = np.array([float(v) for v, _ in model.atoms])
    cumulative = np.cumsum([float(w) for _, w in model.atoms])
    picks = np.searchsorted(cumulative, rng.random(count), side="right")
    return values[np.minimum(picks, len(values) - 1)]


@pytest.mark.parametrize("model", [UNIFORM, GAUSSIAN, SKEWED], ids=["uniform", "gaussian", "discrete"])
@pytest.mark.parametrize("seed", [0, 1, 7919, 2**54 + 1, -3])
def test_sampling_equals_a_fresh_generator(model, seed):
    # one generator serves every call; each call must start it afresh
    assert np.array_equal(sample(model, seed, 257), _fresh_stream(model, seed, 257))


@pytest.mark.parametrize("model", [UNIFORM, GAUSSIAN, SKEWED], ids=["uniform", "gaussian", "discrete"])
def test_sampling_leaves_no_state_behind(model):
    first = sample(model, 7919, 101)
    other = sample(model, -3, 3)
    again = sample(model, 7919, 101)
    assert np.array_equal(first, again)
    assert not np.array_equal(first[:3], other)


def test_sampling_respects_support():
    draws = sample(TWO_POINT, 7, 10_000)
    assert set(np.unique(draws)) <= {-1.0, 1.0}
    draws = sample(UNIFORM, 7, 10_000)
    assert draws.min() >= -1 and draws.max() <= 1
    assert sample(UNIFORM, 7, 0).shape == (0,)


@pytest.mark.parametrize("model", MODELS)
def test_empirical_moments_within_six_sigma(model):
    n = 10**6
    draws = sample(model, 2024, n)
    for j in range(1, 5):
        expected = float(moment(model, j))
        variance = float(moment(model, 2 * j) - moment(model, j) ** 2)
        if variance == 0.0:
            # the power is almost surely constant (e.g. squares of a +-1
            # potential); the empirical moment must then be exact
            assert np.mean(draws**j) == expected
        else:
            assert abs(np.mean(draws**j) - expected) < 6.0 * np.sqrt(variance / n)


def test_distribution_grammar():
    model = parse_distribution("discrete:1@1/2,-1@1/2")
    assert model == TWO_POINT
    assert parse_distribution("uniform:1") == UNIFORM
    assert parse_distribution("gaussian:1") == GAUSSIAN
    assert parse_distribution("discrete:2@1/3,-1@2/3") == SKEWED
    for model in MODELS:
        assert parse_distribution(format_distribution(model)) == model


def test_distribution_grammar_rejects_malformed_input():
    with pytest.raises(ValueError):
        parse_distribution("uniform")
    with pytest.raises(ValueError):
        parse_distribution("triangle:1")
    with pytest.raises(ValueError):
        parse_distribution("discrete:1@1/2,2@1/2")  # mean not zero
    with pytest.raises(ValueError):
        parse_distribution("discrete:1,2")
