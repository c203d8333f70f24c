from __future__ import annotations

from itertools import permutations, product
from math import comb, factorial

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from andersonstats import (
    BudgetExceededError,
    MultiIndex,
    balanced_census,
    canonicalize,
    delta,
    fold_key,
    path_counts,
    truncated_coefficient,
)
from andersonstats.lattice import orbit as lattice_orbit
from andersonstats.walks import placements

from conftest import points
from helpers import (
    Step,
    StepString,
    brute_path_counts,
    brute_truncated_coefficient,
    down,
    is_balanced,
    pot,
    potential_profile,
    trajectory,
    up,
)


def s1(*steps):
    return StepString(1, steps)


def test_trajectory_examples():
    assert trajectory(s1(up(1), down(1))) == ((0,), (1,), (0,))
    assert trajectory(StepString(2, (up(1), up(2), down(1)))) == (
        (0, 0),
        (1, 0),
        (1, 1),
        (0, 1),
    )
    assert trajectory(s1(pot(), pot(), pot())) == ((0,), (0,), (0,), (0,))


def test_is_balanced_examples():
    assert is_balanced(s1(up(1), down(1)))
    assert not is_balanced(s1(up(1), pot(), pot()))
    assert not is_balanced(StepString(2, (up(1), down(2))))


def test_potential_profile_examples():
    assert potential_profile(s1(pot(), pot(), pot())) == delta(1, (0,), 3)
    assert potential_profile(s1(up(1), pot(), down(1), pot())).to_map() == {
        (1,): 1,
        (0,): 1,
    }
    assert potential_profile(s1(up(1), down(1))).is_zero


def test_step_validation():
    with pytest.raises(ValueError):
        Step("pot", 1)
    with pytest.raises(ValueError):
        Step("up", 0)
    with pytest.raises(ValueError):
        StepString(1, (up(2),))
    with pytest.raises(ValueError):
        StepString(1, ())


def test_path_counts_k3_d1():
    table = path_counts(3, 1)
    assert {mi.format(): n for mi, n in table.counts.items()} == {"0:1": 6, "0:3": 1}


def test_path_counts_k1_d3():
    table = path_counts(1, 3)
    assert table.counts == {delta(3, (0, 0, 0)): 1}


def test_path_counts_k5_d2():
    table = path_counts(5, 2)
    expected = {
        delta(2, (0, 0)): 180,
        delta(2, (0, 0), 3): 20,
        delta(2, (0, 0), 5): 1,
        # weighted pairs: both orientations along both axes are distinct
        # canonical classes sharing the count 5
        MultiIndex.from_map(2, {(0, 0): 2, (1, 0): 1}): 5,
        MultiIndex.from_map(2, {(0, 0): 1, (1, 0): 2}): 5,
        MultiIndex.from_map(2, {(0, 0): 2, (0, 1): 1}): 5,
        MultiIndex.from_map(2, {(0, 0): 1, (0, 1): 2}): 5,
    }
    assert table.counts == expected


@pytest.mark.parametrize(
    "k,d",
    [(1, 1), (2, 1), (3, 1), (4, 1), (1, 2), (2, 2), (3, 2), (4, 2), (5, 2), (6, 2)]
    + [(2, 3), (3, 3), (4, 3), (5, 3), (7, 2), (6, 3)],
)
def test_path_counts_match_brute_force(k, d):
    assert path_counts(k, d).counts == brute_path_counts(k, d)


@pytest.mark.parametrize("k,d", [(10, 1), (8, 2), (6, 3), (4, 4), (6, 4)])
def test_point_symmetry_orbits_partition_the_table(k, d):
    # the classes with one fold key are exactly the images of any one of them
    # under the 2^d d! signed axis permutations, built here from scratch, and
    # they share one count: the invariance the symmetric routes rely on, and
    # the oracle for ``lattice.orbit``, which closes under 2d generators
    table = path_counts(k, d)
    groups: dict[tuple, dict[MultiIndex, int]] = {}
    for index, count in table.counts.items():
        groups.setdefault(fold_key(index), {})[index] = count
    assert sum(len(members) for members in groups.values()) == len(table.counts)
    for members in groups.values():
        index = next(iter(members))
        orbit = {
            canonicalize(
                MultiIndex.from_map(
                    d,
                    {tuple(s * p[i] for s, i in zip(signs, perm)): e for p, e in index.entries},
                )
            )[0]
            for perm in permutations(range(d))
            for signs in product((1, -1), repeat=d)
        }
        assert set(members) == orbit
        assert lattice_orbit(index.entries) == {member.entries for member in orbit}
        assert len(set(members.values())) == 1


def test_census_examples():
    assert balanced_census(3, 1) == (7, 7)
    assert balanced_census(2, 1) == (3, 1)
    assert balanced_census(1, 5) == (1, 1)


@pytest.mark.parametrize("k,d", [(1, 1), (2, 1), (3, 1), (4, 1), (5, 1), (3, 2), (5, 2)])
def test_census_aggregates_table(k, d):
    census = balanced_census(k, d)
    assert sum(path_counts(k, d).counts.values()) == census.with_pot
    assert census.with_pot <= census.total_balanced


def closed_hop_walks(j: int, d: int) -> int:
    """Closed nearest-neighbour walks of length j on Z^d, d <= 3, in closed
    form: C(2n, n) in d=1, C(2n, n)^2 in d=2, and in d=3 the sum over
    a + b + c = n of (2n)! / (a! b! c!)^2."""
    if j % 2:
        return 0
    n = j // 2
    if d == 1:
        return comb(2 * n, n)
    if d == 2:
        return comb(2 * n, n) ** 2
    return sum(
        factorial(2 * n) // (factorial(a) * factorial(b) * factorial(n - a - b)) ** 2
        for a in range(n + 1)
        for b in range(n - a + 1)
    )


@pytest.mark.parametrize("d,max_k", [(1, 12), (2, 12), (3, 10)])
def test_census_matches_closed_form(d, max_k):
    # a balanced string is a closed hop walk of j hops with its k - j
    # potential steps placed among the k positions: C(k, j) ways
    for k in range(1, max_k + 1):
        census = balanced_census(k, d)
        expected = sum(comb(k, j) * closed_hop_walks(j, d) for j in range(k + 1))
        assert census.total_balanced == expected
        assert census.with_pot == expected - closed_hop_walks(k, d)


@pytest.mark.parametrize("gaps,rest", [((1,), 4), ((3,), 2), ((2, 1, 1), 3), ((1, 4, 2), 5)])
def test_placements_are_stars_and_bars(gaps, rest):
    # spreading the steps over the sites and then over the gaps of each site
    # is one way of spreading them over all gaps
    found = list(placements(gaps, rest))
    assert sum(ways for _, ways in found) == comb(rest + sum(gaps) - 1, sum(gaps) - 1)
    assert len({exponents for exponents, _ in found}) == len(found)
    assert all(sum(exponents) == rest for exponents, _ in found)


def test_table_keys_obey_parity_and_range():
    for k in range(1, 6):
        for d in (1, 2):
            for index in path_counts(k, d).counts:
                mass = index.total_exponent()
                assert mass <= k and (k - mass) % 2 == 0
                support = index.support()
                for axis in range(d):
                    coords = [pt[axis] for pt in support]
                    assert max(coords) - min(coords) <= 2 * (k // 2)


@given(st.integers(1, 5), st.integers(1, 2), st.data())
@settings(max_examples=40, deadline=None)
def test_count_is_shift_invariant(k, d, data):
    table = path_counts(k, d)
    if not table.counts:
        return
    index = data.draw(st.sampled_from(sorted(table.counts, key=lambda m: m.entries)))
    move = data.draw(points(d))
    assert table.count_for(index.shift(move)) == table.counts[index]


def test_truncated_coefficient_at_box_edge():
    # brute force over all 27 strings and anchors; walks whose anchored
    # trajectory exits the box do not count
    index = delta(1, (5,), 1)
    expected = brute_truncated_coefficient(index, 3, 5)
    assert expected == 3
    assert truncated_coefficient(index, 3, 5) == 3


def test_truncated_coefficient_deep_interior_equals_class_count():
    assert truncated_coefficient(delta(1, (0,), 3), 3, 10) == 1
    assert truncated_coefficient(delta(1, (0,)), 3, 10) == path_counts(3, 1).count_for(
        delta(1, (0,))
    )


def test_truncated_coefficient_outside_box_is_zero():
    assert truncated_coefficient(delta(1, (6,)), 1, 5) == 0


def test_truncated_coefficient_rejects_zero_index():
    with pytest.raises(ValueError):
        truncated_coefficient(MultiIndex.zero(1), 2, 3)


@pytest.mark.parametrize(
    "k,L,d",
    [pytest.param(k, L, 1, id=f"{k}-{L}") for k, L in [(1, 2), (2, 2), (3, 2), (3, 3), (4, 3)]]
    + [pytest.param(k, L, 2, id=f"{k}-{L}-d2") for k, L in [(2, 1), (3, 1), (4, 1), (4, 2), (5, 2)]]
    + [pytest.param(k, L, 3, id=f"{k}-{L}-d3") for k, L in [(2, 1), (3, 1), (4, 1), (4, 2), (5, 1)]],
)
def test_truncated_coefficient_matches_brute_force(k, L, d):
    table = path_counts(k, d)
    for index in table.counts:
        for anchor in product(range(-L - 1, L + 2), repeat=d):
            moved = index.shift(anchor)
            assert truncated_coefficient(moved, k, L) == brute_truncated_coefficient(
                moved, k, L
            )


def test_truncated_coefficient_sandwich():
    for k in (2, 3, 4):
        L = 4
        table = path_counts(k, 1)
        for index in table.counts:
            count = table.counts[index]
            for anchor in range(-L - k, L + k + 1):
                moved = index.shift((anchor,))
                a = truncated_coefficient(moved, k, L)
                assert 0 <= a <= count
                support = moved.support()
                if any(-(L - k) <= pt[0] <= L - k for pt in support):
                    assert a == count
                if any(not (-L <= pt[0] <= L) for pt in support):
                    assert a == 0


def test_budget_guard_names_required_count(monkeypatch):
    with pytest.raises(BudgetExceededError) as info:
        path_counts(40, 3)
    assert info.value.required == 7**40
    monkeypatch.setenv("ANDERSON_BUDGET", "10")
    with pytest.raises(BudgetExceededError):
        truncated_coefficient(delta(1, (0,)), 4, 2)
    with pytest.raises(BudgetExceededError):
        balanced_census(4, 1)
