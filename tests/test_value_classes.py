"""The contract of the value classes with validation or arithmetic.

``MultiIndex``, ``Poly``, ``MomentModel`` and ``BoxSpec`` compare and hash
by value, refuse assignment, keep their validation messages, and behave
like no tuple.
"""

from __future__ import annotations

import pickle
from fractions import Fraction

import pytest

from andersonstats import BoxSpec, MomentModel, MultiIndex, Poly

# pairs of equal values built by different routes, and a different value
EQUAL_PAIRS = [
    (MultiIndex(2, (((0, 0), 2), ((1, 0), 1))), MultiIndex.from_map(2, {(1, 0): 1, (0, 0): 2})),
    (Poly.parse("0,1/2,0,1"), Poly((Fraction(0), Fraction(1, 2), Fraction(0), Fraction(1)))),
    (
        MomentModel.discrete([(2, "1/3"), (-1, "2/3")]),
        MomentModel.discrete([(-1, Fraction(2, 3)), (2, Fraction(1, 3))]),
    ),
    (MomentModel.uniform_symmetric(1), MomentModel("uniform", half_width=Fraction(1))),
    (MomentModel.gaussian("1/2"), MomentModel(kind="gaussian", variance=Fraction(1, 2))),
    (BoxSpec(2, 3), BoxSpec(d=2, L=3)),
]
OTHERS = [
    MultiIndex(2, (((0, 0), 2),)),
    Poly.parse("0,1/2,0,2"),
    MomentModel.discrete([(1, "1/2"), (-1, "1/2")]),
    MomentModel.uniform_symmetric(2),
    MomentModel.gaussian(1),
    BoxSpec(2, 4),
]
FIELDS = {
    MultiIndex: ("d", "entries"),
    Poly: ("coeffs",),
    MomentModel: ("kind", "atoms", "half_width", "variance"),
    BoxSpec: ("d", "L"),
}


@pytest.mark.parametrize("pair,other", zip(EQUAL_PAIRS, OTHERS), ids=lambda v: type(v).__name__)
def test_equal_values_are_equal_and_hash_equal(pair, other):
    a, b = pair
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != other and other not in {a}
    assert pickle.loads(pickle.dumps(a)) == a
    fields = tuple(getattr(a, name) for name in FIELDS[type(a)])
    assert a != fields  # no equality with the tuple of its fields


@pytest.mark.parametrize("value", [a for a, _ in EQUAL_PAIRS], ids=lambda v: type(v).__name__)
def test_fields_cannot_be_set(value):
    for name in FIELDS[type(value)]:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    with pytest.raises(AttributeError):
        delattr(value, FIELDS[type(value)][0])


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: MultiIndex(0), "dimension must be >= 1, got 0"),
        (lambda: MultiIndex(2, (((0,), 1),)), "point (0,) has dimension 1, expected 2"),
        (lambda: MultiIndex(1, (((0,), 0),)), "exponent at (0,) must be >= 1, got 0"),
        (lambda: MultiIndex(1, (((1,), 1), ((0,), 1))), "entries must be strictly sorted by point"),
        (lambda: Poly((Fraction(1), Fraction(0))), "trailing coefficient must be nonzero"),
        (lambda: MomentModel.discrete([(0, 1)]), "discrete model needs at least two atoms"),
        (lambda: MomentModel("discrete", ((1, Fraction(1, 2)), (1, Fraction(1, 2)))),
         "atom values must be distinct"),
        (lambda: MomentModel.discrete([(0, 2), (1, -1)]), "atom weights must be positive"),
        (lambda: MomentModel.discrete([(1, "1/2"), (-1, "1/4")]),
         "atom weights must sum to 1 exactly"),
        (lambda: MomentModel.discrete([(1, "1/2"), (0, "1/2")]),
         "mean must be exactly zero, got 1/2"),
        (lambda: MomentModel("uniform"), "uniform model needs a positive half width"),
        (lambda: MomentModel.uniform_symmetric(0), "uniform model needs a positive half width"),
        (lambda: MomentModel.gaussian(-1), "gaussian model needs a positive variance"),
        (lambda: MomentModel("cauchy"), "unknown model kind 'cauchy'"),
        (lambda: BoxSpec(0, 1), "dimension must be >= 1, got 0"),
        (lambda: BoxSpec(1, 0), "box radius must be >= 1, got 0"),
    ],
)
def test_validation_messages(build, message):
    with pytest.raises(ValueError) as error:
        build()
    assert str(error.value) == message


def test_poly_has_arithmetic_and_no_tuple_behaviour():
    p, q = Poly.parse("1,2"), Poly.parse("0,0,3")
    assert p + q == Poly.parse("1,2,3")
    assert 3 * p == Fraction(3) * p == Poly.parse("3,6")
    assert q(2.0) == 12.0
    tuple_like = [
        lambda: p * 3,
        lambda: p + (1,),
        lambda: (1,) + p,
        lambda: len(p),
        lambda: p[0],
        lambda: iter(p),
    ]
    for operation in tuple_like:
        with pytest.raises(TypeError):
            operation()
    assert p != p.coeffs
