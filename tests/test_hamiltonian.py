from __future__ import annotations

from fractions import Fraction
from itertools import product
from random import Random

import numpy as np
import pytest

from andersonstats import (
    BoxSpec,
    BudgetExceededError,
    MomentModel,
    Poly,
    delta,
    mean_trace_exact,
    path_counts,
    sample_hamiltonian,
    trace_poly_numeric,
    trace_powers_numeric,
    truncated_coefficient,
    balanced_census,
    monomial_expectation,
)
from andersonstats.hamiltonian import trace_powers_batch

from helpers import (
    brute_mean_trace,
    dense_matrix,
    dense_trace_poly,
    random_poly,
    symbolic_trace,
)

UNIFORM = MomentModel.uniform_symmetric(1)
GAUSSIAN = MomentModel.gaussian(1)
TWO_POINT = MomentModel.discrete([(1, Fraction(1, 2)), (-1, Fraction(1, 2))])
SKEWED = MomentModel.discrete([(2, Fraction(1, 3)), (-1, Fraction(2, 3))])

X = Poly.x_power


def test_box_spec():
    box = BoxSpec(2, 3)
    assert box.n_side == 7 and box.volume == 49
    with pytest.raises(ValueError):
        BoxSpec(0, 3)
    with pytest.raises(ValueError):
        BoxSpec(1, 0)


def test_sample_hamiltonian_shape_and_determinism():
    box = BoxSpec(1, 1)
    h = sample_hamiltonian(box, UNIFORM, 5)
    assert h.potential.shape == (3,)
    again = sample_hamiltonian(box, UNIFORM, 5)
    assert np.array_equal(h.potential, again.potential)
    other = sample_hamiltonian(box, UNIFORM, 6)
    assert not np.array_equal(h.potential, other.potential)


def test_sample_hamiltonian_support():
    h = sample_hamiltonian(BoxSpec(2, 2), TWO_POINT, 11)
    assert h.potential.shape == (5, 5)
    assert set(np.unique(h.potential)) <= {-1.0, 1.0}


def test_sample_hamiltonian_budget(monkeypatch):
    monkeypatch.setenv("ANDERSON_BUDGET", "10")
    with pytest.raises(BudgetExceededError):
        sample_hamiltonian(BoxSpec(1, 100), UNIFORM, 1)


def test_trace_of_first_power_is_potential_sum():
    for d, L in [(1, 5), (2, 2)]:
        h = sample_hamiltonian(BoxSpec(d, L), UNIFORM, 3)
        assert trace_poly_numeric(h, X(1)) == pytest.approx(
            float(h.potential.sum()), rel=1e-12
        )


def test_trace_of_square_on_three_sites():
    h = sample_hamiltonian(BoxSpec(1, 1), UNIFORM, 9)
    x = h.potential
    expected = float(x[0] ** 2 + x[1] ** 2 + x[2] ** 2 + 4)
    assert trace_poly_numeric(h, X(2)) == pytest.approx(expected, rel=1e-12)


def test_trace_includes_constant_term():
    h = sample_hamiltonian(BoxSpec(1, 2), UNIFORM, 9)
    p = Poly.from_coeffs([3, 1])
    assert trace_poly_numeric(h, p) == pytest.approx(
        3.0 * 5 + float(h.potential.sum()), rel=1e-12
    )


def test_trace_rejects_constants():
    h = sample_hamiltonian(BoxSpec(1, 1), UNIFORM, 1)
    with pytest.raises(ValueError):
        trace_poly_numeric(h, Poly.from_coeffs([1]))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_trace_matches_dense_eigendecomposition_1d(seed):
    rng = Random(seed)
    L = rng.randint(3, 20)
    h = sample_hamiltonian(BoxSpec(1, L), UNIFORM, seed)
    p = random_poly(rng, rng.randint(1, 5))
    mine = trace_poly_numeric(h, p)
    oracle = dense_trace_poly(h, p)
    assert abs(mine - oracle) <= 1e-8 * (1 + abs(mine))


def test_trace_matches_dense_eigendecomposition_2d():
    h = sample_hamiltonian(BoxSpec(2, 3), GAUSSIAN, 4)
    p = Poly.from_coeffs([0, 2, -1, 1, 0, 1])
    mine = trace_poly_numeric(h, p)
    oracle = dense_trace_poly(h, p)
    assert abs(mine - oracle) <= 1e-8 * (1 + abs(mine))


def test_trace_powers_budget(monkeypatch):
    h = sample_hamiltonian(BoxSpec(1, 50), UNIFORM, 1)
    monkeypatch.setenv("ANDERSON_BUDGET", "100")
    with pytest.raises(BudgetExceededError):
        trace_powers_numeric(h, 5)


# BoxSpec(1, 1) at max_power 6 and BoxSpec(2, 1) at max_power 5 have a side
# of 3, no wider than the half-power radius 3: some offsets leave the box.
# A stack of several potentials goes through the batched kernel at once;
# every sample must match its own dense spectrum and, bit for bit, its
# traces computed alone.
@pytest.mark.parametrize("max_power", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize(
    "d,L,stack",
    [pytest.param(d, L, 1, id=f"{d}-{L}") for d, L in [(1, 1), (1, 7), (2, 1), (2, 3), (3, 2)]]
    + [
        pytest.param(d, L, stack, id=f"{d}-{L}-stack{stack}")
        for d, L, stack in [(1, 1, 4), (1, 7, 3), (2, 1, 3), (2, 3, 2), (3, 2, 2)]
    ],
)
def test_trace_powers_match_dense_eigendecomposition(d, L, stack, max_power):
    box = BoxSpec(d, L)
    hs = [sample_hamiltonian(box, GAUSSIAN, 10 * d + L + 100 * s) for s in range(stack)]
    batched = trace_powers_batch(np.stack([h.potential for h in hs]), max_power)
    assert batched.shape == (stack, max_power)
    for h, row in zip(hs, batched):
        traces = trace_powers_numeric(h, max_power)
        assert row.tolist() == traces
        eigenvalues = np.linalg.eigvalsh(dense_matrix(h))
        for k, trace in enumerate(traces, start=1):
            oracle = float(np.sum(eigenvalues**k))
            assert abs(trace - oracle) <= 1e-10 * float(np.sum(np.abs(eigenvalues) ** k))


def test_trace_powers_budget_counts_two_half_power_generations(monkeypatch):
    box = BoxSpec(2, 2)
    max_power = 5
    radius = 3  # ceil(max_power / 2)
    ball = sum(
        1 for p in product(range(-radius, radius + 1), repeat=2)
        if abs(p[0]) + abs(p[1]) <= radius
    )
    required = 2 * box.volume * ball
    h = sample_hamiltonian(box, UNIFORM, 1)
    monkeypatch.setenv("ANDERSON_BUDGET", str(required))
    assert len(trace_powers_numeric(h, max_power)) == max_power
    monkeypatch.setenv("ANDERSON_BUDGET", str(required - 1))
    with pytest.raises(BudgetExceededError) as info:
        trace_powers_numeric(h, max_power)
    assert info.value.required == required


def test_mean_trace_first_power_is_zero():
    for model in (UNIFORM, GAUSSIAN, TWO_POINT, SKEWED):
        for box in (BoxSpec(1, 3), BoxSpec(2, 2)):
            assert mean_trace_exact(1, box, model) == 0


def test_mean_trace_square_three_site_chain():
    assert mean_trace_exact(2, BoxSpec(1, 1), UNIFORM) == 5


def test_mean_trace_odd_powers_vanish_for_symmetric_models():
    for model in (UNIFORM, GAUSSIAN, TWO_POINT):
        for k in (1, 3, 5):
            for L in (1, 2, 4):
                assert mean_trace_exact(k, BoxSpec(1, L), model) == 0


@pytest.mark.parametrize(
    "k,d,L",
    [(1, 1, 2), (2, 1, 2), (3, 1, 2), (2, 2, 1), (3, 2, 1), (2, 3, 1), (3, 3, 1), (4, 3, 1)],
)
def test_mean_trace_matches_brute_force(k, d, L):
    box = BoxSpec(d, L)
    for model in (UNIFORM, SKEWED):
        assert mean_trace_exact(k, box, model) == brute_mean_trace(k, box, model)


def test_mean_trace_is_linear_in_side_length_1d():
    # in one dimension every anchored-string count is side - range, so the
    # expected trace is an exact linear function A*(2L+1) - B once the box
    # is wider than any walk; deviations of the per-site mean from A decay
    # exactly like B/(2L+1)
    k = 4
    values = {L: mean_trace_exact(k, BoxSpec(1, L), UNIFORM) for L in (10, 11)}
    side = lambda L: 2 * L + 1
    slope = (values[11] - values[10]) / (side(11) - side(10))
    intercept = values[10] - slope * side(10)
    assert intercept != 0
    for L in (12, 20, 30, 40, 50):
        predicted = slope * side(L) + intercept
        assert mean_trace_exact(k, BoxSpec(1, L), UNIFORM) == predicted
    # the bulk slope is reproduced by class counts plus potential-free strings
    table = path_counts(k, 1)
    census = balanced_census(k, 1)
    bulk = sum(
        count * monomial_expectation(UNIFORM, index)
        for index, count in table.counts.items()
    ) + (census.total_balanced - census.with_pot)
    assert slope == bulk


def test_symbolic_trace_first_power():
    st = symbolic_trace(1, BoxSpec(1, 1))
    assert st.constant == 0
    assert {mi.format(): c for mi, c in st.terms.items()} == {
        "-1:1": 1,
        "0:1": 1,
        "1:1": 1,
    }


def test_symbolic_trace_square():
    st = symbolic_trace(2, BoxSpec(1, 1))
    assert st.constant == 4
    assert {mi.format(): c for mi, c in st.terms.items()} == {
        "-1:2": 1,
        "0:2": 1,
        "1:2": 1,
    }


def test_symbolic_trace_interior_coefficients():
    st = symbolic_trace(3, BoxSpec(1, 5))
    assert st.terms[delta(1, (0,), 3)] == 1
    assert st.terms[delta(1, (0,))] == 6  # interior site: full class count


@pytest.mark.parametrize("L", [2, 3, 4])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_symbolic_trace_oracle_chain_1d(k, L):
    box = BoxSpec(1, L)
    st = symbolic_trace(k, box)
    # every stored coefficient is the boundary-corrected coefficient
    for index, coefficient in st.terms.items():
        assert coefficient > 0
        assert coefficient == truncated_coefficient(index, k, L)
    # the expansion reproduces the exact mean
    for model in (UNIFORM, SKEWED, TWO_POINT):
        assert st.expected_value(model) == mean_trace_exact(k, box, model)


def test_symbolic_trace_oracle_chain_2d():
    box = BoxSpec(2, 1)
    for k in (1, 2, 3):
        st = symbolic_trace(k, box)
        for index, coefficient in st.terms.items():
            assert coefficient == truncated_coefficient(index, k, box.L)
        assert st.expected_value(UNIFORM) == mean_trace_exact(k, box, UNIFORM)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_symbolic_matches_numeric_trace(k):
    box = BoxSpec(1, 4)
    st = symbolic_trace(k, box)
    for seed in (1, 2):
        h = sample_hamiltonian(box, UNIFORM, seed)
        numeric = trace_poly_numeric(h, X(k))
        assert st.evaluate(h) == pytest.approx(numeric, rel=1e-9)


def test_symbolic_evaluate_rejects_other_boxes():
    st = symbolic_trace(2, BoxSpec(1, 2))
    h = sample_hamiltonian(BoxSpec(1, 3), UNIFORM, 1)
    with pytest.raises(ValueError):
        st.evaluate(h)
