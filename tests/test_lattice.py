from __future__ import annotations

from itertools import product

import pytest
from hypothesis import given
import hypothesis.strategies as st

from andersonstats import MultiIndex, canonicalize, delta, fold_key
from andersonstats.hamiltonian import _l1_ball_size
from andersonstats.lattice import l1_ball, orbit

from conftest import multi_indices, points


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_l1_ball_is_the_norm_sorted_cube_filter(d):
    norm = lambda point: sum(map(abs, point))
    for r in range(6):
        cube = product(range(-r, r + 1), repeat=d)
        assert l1_ball(d, r) == sorted((p for p in cube if norm(p) <= r), key=norm)


def test_l1_ball_size_matches_the_closed_form():
    for d in range(1, 31):
        for r in range(3):
            assert len(l1_ball(d, r)) == _l1_ball_size(d, r)


def test_orbit_sizes_in_high_dimension():
    # the point group of Z^12 has 2^12 12! elements; its orbits are reached
    # through the 24 first-hop generators alone
    d = 12
    e = (1,) + (0,) * (d - 1)
    origin = (0,) * d
    pair = MultiIndex.from_map(d, {origin: 1, e: 1})
    assert len(orbit(pair.entries)) == d
    weighted = MultiIndex.from_map(d, {origin: 2, e: 1})
    images = orbit(weighted.entries)
    assert len(images) == 2 * d
    assert fold_key(weighted) == min(images)
    assert fold_key(MultiIndex.from_map(d, {origin: 1, e: 2})) == fold_key(weighted)
    assert orbit(delta(d, e, 3).entries) == {delta(d, origin, 3).entries}


def test_delta_single_site():
    assert delta(1, (0,)).to_map() == {(0,): 1}
    assert delta(2, (3, -1), 2).to_map() == {(3, -1): 2}
    assert delta(1, (0,), 5).to_map() == {(0,): 5}


def test_delta_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        delta(2, (1,))
    with pytest.raises(ValueError):
        delta(1, (0,), 0)


def test_shift_translates_support():
    assert delta(1, (0,)).shift((2,)).to_map() == {(2,): 1}
    two = MultiIndex.from_map(1, {(0,): 2, (1,): 1})
    assert two.shift((-1,)).to_map() == {(-1,): 2, (0,): 1}


def test_shift_round_trip_example():
    index = MultiIndex.from_map(2, {(0, 0): 1, (1, 1): 2})
    assert index.shift((4, -3)).shift((-4, 3)) == index


def test_shift_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        delta(2, (0, 0)).shift((1,))


def test_canonicalize_moves_lex_min_to_origin():
    rep, move = canonicalize(MultiIndex.from_map(2, {(2, 0): 1, (3, 1): 2}))
    assert rep.to_map() == {(0, 0): 1, (1, 1): 2}
    assert move == (-2, 0)


def test_canonicalize_fixed_point():
    rep, move = canonicalize(delta(1, (0,), 3))
    assert rep == delta(1, (0,), 3)
    assert move == (0,)


def test_canonicalize_adjacent_pair():
    rep, move = canonicalize(MultiIndex.from_map(1, {(5,): 1, (6,): 1}))
    assert rep.to_map() == {(0,): 1, (1,): 1}
    assert move == (-5,)


def test_canonicalize_rejects_zero():
    with pytest.raises(ValueError):
        canonicalize(MultiIndex.zero(3))


def test_addition_merges_exponents():
    left = MultiIndex.from_map(1, {(0,): 2})
    right = MultiIndex.from_map(1, {(0,): 1, (1,): 1})
    assert (left + right).to_map() == {(0,): 3, (1,): 1}


def test_entries_are_validated():
    with pytest.raises(ValueError):
        MultiIndex(1, (((0,), 0),))
    with pytest.raises(ValueError):
        MultiIndex(1, (((1,), 1), ((0,), 1)))  # unsorted
    with pytest.raises(ValueError):
        MultiIndex(2, (((0,), 1),))  # wrong point dimension


def test_grammar_round_trip():
    index = MultiIndex.parse("0,0:1;1,1:2")
    assert index.d == 2 and index.to_map() == {(0, 0): 1, (1, 1): 2}
    assert MultiIndex.parse(index.format()) == index
    assert MultiIndex.parse("", d=3) == MultiIndex.zero(3)
    assert MultiIndex.zero(3).format() == ""
    assert MultiIndex.parse("-5:2;0:1").format() == "-5:2;0:1"


def test_grammar_rejects_malformed_input():
    with pytest.raises(ValueError):
        MultiIndex.parse("0,0")
    with pytest.raises(ValueError):
        MultiIndex.parse("0:0")
    with pytest.raises(ValueError):
        MultiIndex.parse("0:1;0:2")
    with pytest.raises(ValueError):
        MultiIndex.parse("", d=None)


@given(multi_indices(), st.data())
def test_shift_round_trip(index, data):
    move = data.draw(points(index.d))
    inverse = tuple(-c for c in move)
    assert index.shift(move).shift(inverse) == index


@given(multi_indices(), st.data())
def test_canonical_representative_is_shift_invariant(index, data):
    move = data.draw(points(index.d))
    assert canonicalize(index.shift(move))[0] == canonicalize(index)[0]


@given(multi_indices())
def test_canonicalize_contract(index):
    rep, move = canonicalize(index)
    assert rep == index.shift(move)
    origin = (0,) * index.d
    assert min(rep.support()) == origin
    assert rep.exponent(origin) >= 1
    assert canonicalize(rep) == (rep, origin)


@given(multi_indices(), st.data())
def test_total_exponent_invariants(index, data):
    move = data.draw(points(index.d))
    total = index.total_exponent()
    assert index.shift(move).total_exponent() == total
    assert canonicalize(index)[0].total_exponent() == total


@given(multi_indices())
def test_grammar_round_trips_everything(index):
    assert MultiIndex.parse(index.format(), d=index.d) == index
