"""Site distributions: exact rational moments and seeded sampling.

Three families are supported, all mean zero with every moment an exact
rational: finitely supported (discrete atoms with rational values and
weights), symmetric uniform on [-w, w], and centered gaussian with rational
variance. Exactness matters because the zero-variance classification
downstream is knife-edge; no tolerances appear anywhere in the moment
algebra.

Sampling uses numpy's Philox counter-based 64-bit generator keyed by the
seed, so draws are reproducible and independent streams can be derived by
XOR-ing a stream index into the seed. Discrete sampling inverts the CDF of
the cumulative weights; uniform and gaussian use the generator's native
transforms. numpy is imported only inside :func:`sample`, so the exact
moment algebra loads without it. ``MomentModel`` hashes its ``Fraction``
parameters once, at construction, so the moment caches keyed by the law do
not re-hash them on every lookup.

CLI grammar: ``discrete:v1@w1,v2@w2,...`` | ``uniform:w`` | ``gaussian:v``
with rationals written as ``p/q`` or integers. Mean zero is checked exactly
at construction, and a discrete law needs at least two atoms.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from ._frozen import Frozen
from .lattice import MultiIndex

if TYPE_CHECKING:
    import numpy as np

_MASK64 = (1 << 64) - 1

DISCRETE = "discrete"
UNIFORM = "uniform"
GAUSSIAN = "gaussian"


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    raise ValueError(f"not an exact rational: {value!r}")


class MomentModel(Frozen):
    """A mean-zero site distribution with exact rational moments of every
    order (all three families have closed forms)."""

    __slots__ = ("kind", "atoms", "half_width", "variance", "_hash")
    kind: str
    atoms: tuple[tuple[Fraction, Fraction], ...]
    half_width: Fraction | None
    variance: Fraction | None

    def __init__(self, kind: str, atoms: tuple[tuple[Fraction, Fraction], ...] = (),
                 half_width: Fraction | None = None, variance: Fraction | None = None) -> None:
        if kind == DISCRETE:
            if len(atoms) < 2:
                # the only mean-zero law with one atom is the constant 0,
                # whose traces do not fluctuate
                raise ValueError("discrete model needs at least two atoms")
            values = [v for v, _ in atoms]
            if len(set(values)) != len(values):
                raise ValueError("atom values must be distinct")
            if any(w <= 0 for _, w in atoms):
                raise ValueError("atom weights must be positive")
            if sum(w for _, w in atoms) != 1:
                raise ValueError("atom weights must sum to 1 exactly")
            mean = sum(v * w for v, w in atoms)
            if mean != 0:
                raise ValueError(f"mean must be exactly zero, got {mean}")
        elif kind == UNIFORM:
            if half_width is None or half_width <= 0:
                raise ValueError("uniform model needs a positive half width")
        elif kind == GAUSSIAN:
            if variance is None or variance <= 0:
                raise ValueError("gaussian model needs a positive variance")
        else:
            raise ValueError(f"unknown model kind {kind!r}")
        fields = (kind, atoms, half_width, variance)
        self._set(*fields, hash(fields))

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def discrete(cls, atoms: Sequence[tuple]) -> "MomentModel":
        normalized = tuple(
            sorted((_as_fraction(v), _as_fraction(w)) for v, w in atoms)
        )
        return cls(DISCRETE, atoms=normalized)

    @classmethod
    def uniform_symmetric(cls, half_width) -> "MomentModel":
        return cls(UNIFORM, half_width=_as_fraction(half_width))

    @classmethod
    def gaussian(cls, variance) -> "MomentModel":
        return cls(GAUSSIAN, variance=_as_fraction(variance))


class SupportClass(NamedTuple):
    """Cardinality classification of the support: two/three points or many."""

    kind: str  # "two_point" | "three_point" | "many"
    values: tuple[Fraction, ...] = ()


def support_class(model: MomentModel) -> SupportClass:
    if model.kind == DISCRETE:
        values = tuple(sorted(v for v, _ in model.atoms))
        if len(values) == 2:
            return SupportClass("two_point", values)
        if len(values) == 3:
            return SupportClass("three_point", values)
    return SupportClass("many")


@lru_cache(maxsize=None)
def moment(model: MomentModel, order: int) -> Fraction:
    """Exact moment of the given order; order 0 is 1."""
    if order < 0:
        raise ValueError("moment order must be >= 0")
    if order == 0:
        return Fraction(1)
    if model.kind == DISCRETE:
        return sum((w * v**order for v, w in model.atoms), Fraction(0))
    if model.kind == UNIFORM:
        if order % 2 == 1:
            return Fraction(0)
        assert model.half_width is not None
        return model.half_width**order / (order + 1)
    # gaussian: odd moments vanish, even ones are (order-1)!! * variance^(order/2)
    if order % 2 == 1:
        return Fraction(0)
    assert model.variance is not None
    double_factorial = math.prod(range(order - 1, 0, -2))
    return double_factorial * model.variance ** (order // 2)


def moment_product(model: MomentModel, exponents: Iterable[int]) -> Fraction:
    """Expectation of a product of independent sites raised to ``exponents``;
    it depends only on the multiset of exponents, and the empty product is 1."""
    return math.prod((moment(model, e) for e in exponents), start=Fraction(1))


def monomial_expectation(model: MomentModel, index: MultiIndex) -> Fraction:
    """Expectation of the site monomial of ``index`` under iid sites.

    Factorizes over sites; the zero multi-index gives 1.
    """
    return moment_product(model, (e for _, e in index.entries))


@lru_cache(maxsize=None)
def _generator() -> np.random.Generator:
    import numpy as np

    return np.random.Generator(np.random.Philox(key=0))


def sample(model: MomentModel, seed: int, count: int) -> np.ndarray:
    """``count`` iid draws, reproducible for a given seed (Philox keyed).

    Only the low 64 bits of the seed key the stream, so negative and large
    seeds are fine. Derive order-independent streams by XOR-ing a stream
    index into the seed before calling. The draws equal those of a fresh
    ``Generator(Philox(key=seed & (2**64 - 1)))``, but the generator is one
    module-level object whose state (counter 0, key [seed, 0], empty buffer)
    each call resets; that is safe only because sampling is serial.
    """
    import numpy as np

    if count < 0:
        raise ValueError("count must be >= 0")
    rng, zeros = _generator(), np.zeros(4, np.uint64)
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": zeros, "key": np.array([seed & _MASK64, 0], np.uint64)},
        "buffer": zeros, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }
    if model.kind == DISCRETE:
        values = np.array([float(v) for v, _ in model.atoms])
        cumulative = np.cumsum([float(w) for _, w in model.atoms])
        picks = np.searchsorted(cumulative, rng.random(count), side="right")
        return values[np.minimum(picks, len(values) - 1)]
    if model.kind == UNIFORM:
        w = float(model.half_width)
        return rng.uniform(-w, w, count)
    return rng.normal(0.0, math.sqrt(float(model.variance)), count)


def parse_distribution(text: str) -> MomentModel:
    """Parse the CLI distribution grammar (see module docstring)."""
    head, sep, tail = text.strip().partition(":")
    if not sep:
        raise ValueError(f"malformed distribution {text!r}: expected 'kind:params'")
    kind = head.strip().lower()
    if kind == DISCRETE:
        atoms = []
        for item in tail.split(","):
            value, at, weight = item.partition("@")
            if not at:
                raise ValueError(f"malformed atom {item!r}: expected 'value@weight'")
            atoms.append((value.strip(), weight.strip()))
        return MomentModel.discrete(atoms)
    if kind == UNIFORM:
        return MomentModel.uniform_symmetric(tail.strip())
    if kind == GAUSSIAN:
        return MomentModel.gaussian(tail.strip())
    raise ValueError(f"unknown distribution kind {head!r}")


def format_distribution(model: MomentModel) -> str:
    if model.kind == DISCRETE:
        atoms = ",".join(f"{v}@{w}" for v, w in model.atoms)
        return f"discrete:{atoms}"
    if model.kind == UNIFORM:
        return f"uniform:{model.half_width}"
    return f"gaussian:{model.variance}"
