"""Shared test helpers: independent brute-force oracles and model generators.

The oracles here share no code with the library's walk enumeration: step
strings are their own types defined below, enumerated with itertools and
checked one at a time; traces come from dense eigendecompositions;
expected traces and the symbolic expansion of Tr H^k come from a literal
(string, anchor) double loop; offset covariance sums visit every overlapping
translate one at a time. They are slow and only meant for small instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from random import Random

import numpy as np

from andersonstats import (
    BoxSpec,
    MomentModel,
    MultiIndex,
    Point,
    Poly,
    SampledHamiltonian,
    canonicalize,
    monomial_covariance,
    monomial_expectation,
)

_POT = "pot"
_UP = "up"
_DOWN = "down"


@dataclass(frozen=True, slots=True)
class Step:
    """One symbol: a potential rest, or a unit hop along an axis.

    ``axis`` is 1-based and only meaningful for hops.
    """

    kind: str
    axis: int = 0

    def __post_init__(self) -> None:
        if self.kind not in (_POT, _UP, _DOWN):
            raise ValueError(f"unknown step kind {self.kind!r}")
        if self.kind == _POT and self.axis != 0:
            raise ValueError("potential steps carry no axis")
        if self.kind != _POT and self.axis < 1:
            raise ValueError("hop steps need a 1-based axis")


def pot() -> Step:
    return Step(_POT)


def up(axis: int) -> Step:
    return Step(_UP, axis)


def down(axis: int) -> Step:
    return Step(_DOWN, axis)


@dataclass(frozen=True, slots=True)
class StepString:
    """A word of steps together with its ambient dimension."""

    d: int
    steps: tuple[Step, ...]

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError(f"dimension must be >= 1, got {self.d}")
        if len(self.steps) < 1:
            raise ValueError("a step string has length >= 1")
        for step in self.steps:
            if step.axis > self.d:
                raise ValueError(f"axis {step.axis} exceeds dimension {self.d}")

    def __len__(self) -> int:
        return len(self.steps)


def trajectory(s: StepString) -> tuple[Point, ...]:
    """Walk positions y_0..y_k, starting at the origin."""
    position = [0] * s.d
    points = [tuple(position)]
    for step in s.steps:
        if step.kind == _UP:
            position[step.axis - 1] += 1
        elif step.kind == _DOWN:
            position[step.axis - 1] -= 1
        points.append(tuple(position))
    return tuple(points)


def is_balanced(s: StepString) -> bool:
    """True iff the walk ends where it started (hops cancel per axis)."""
    return trajectory(s)[-1] == tuple([0] * s.d)


def potential_profile(s: StepString) -> MultiIndex:
    """Multi-index counting potential steps per site; may be zero."""
    counts: dict[Point, int] = {}
    for step, site in zip(s.steps, trajectory(s)):
        if step.kind == _POT:
            counts[site] = counts.get(site, 0) + 1
    return MultiIndex.from_map(s.d, counts)


def alphabet(d: int):
    symbols = [pot()]
    for axis in range(1, d + 1):
        symbols.append(up(axis))
        symbols.append(down(axis))
    return symbols


def all_strings(k: int, d: int):
    for combo in product(alphabet(d), repeat=k):
        yield StepString(d, combo)


def brute_path_counts(k: int, d: int) -> dict[MultiIndex, int]:
    counts: dict[MultiIndex, int] = {}
    for s in all_strings(k, d):
        if not is_balanced(s):
            continue
        profile = potential_profile(s)
        if profile.is_zero:
            continue
        rep, _ = canonicalize(profile)
        counts[rep] = counts.get(rep, 0) + 1
    return counts


def _stays_inside(points, anchor, L: int) -> bool:
    return all(
        all(-L <= c + a <= L for c, a in zip(point, anchor)) for point in points
    )


def _anchored_profiles(k: int, d: int, L: int):
    """(profile, anchor) for every balanced string of length k and every
    anchor whose anchored walk stays inside the box of radius L (anchors
    outside the box never qualify, since the walk starts at its anchor)."""
    for s in all_strings(k, d):
        if not is_balanced(s):
            continue
        profile = potential_profile(s)
        points = trajectory(s)
        for anchor in product(range(-L, L + 1), repeat=d):
            if _stays_inside(points, anchor, L):
                yield profile, anchor


@lru_cache(maxsize=None)
def brute_truncated_table(k: int, d: int, L: int) -> dict[MultiIndex, int]:
    """Anchored profile -> number of (balanced string, anchor) pairs whose
    anchored walk stays inside the box of radius L."""
    table: dict[MultiIndex, int] = {}
    for profile, anchor in _anchored_profiles(k, d, L):
        if not profile.is_zero:
            index = profile.shift(anchor)
            table[index] = table.get(index, 0) + 1
    return table


def brute_truncated_coefficient(index: MultiIndex, k: int, L: int) -> int:
    return brute_truncated_table(k, index.d, L).get(index, 0)


def brute_mean_trace(k: int, box: BoxSpec, model: MomentModel) -> Fraction:
    return sum(
        (
            monomial_expectation(model, profile.shift(anchor))
            for profile, anchor in _anchored_profiles(k, box.d, box.L)
        ),
        Fraction(0),
    )


@dataclass
class SymbolicTrace:
    """The trace of the k-th power as a polynomial in the site variables.

    ``terms`` maps position-anchored (non-canonical) multi-indexes to their
    integer coefficients; the variable-free part is tracked separately in
    ``constant``.
    """

    k: int
    box: BoxSpec
    terms: dict[MultiIndex, int]
    constant: int

    def expected_value(self, model: MomentModel) -> Fraction:
        total = Fraction(self.constant)
        for index, coefficient in self.terms.items():
            total += coefficient * monomial_expectation(model, index)
        return total

    def evaluate(self, h: SampledHamiltonian) -> float:
        """Evaluate at a sampled potential (same box)."""
        if h.box != self.box:
            raise ValueError("sampled box does not match the symbolic trace box")
        L = self.box.L
        total = float(self.constant)
        for index, coefficient in self.terms.items():
            term = float(coefficient)
            for point, exponent in index.entries:
                term *= float(h.potential[tuple(c + L for c in point)]) ** exponent
            total += term
        return total


def symbolic_trace(k: int, box: BoxSpec) -> SymbolicTrace:
    """Expand the trace of the k-th power over all (string, anchor) pairs:
    the monomials are the anchored profiles of ``brute_truncated_table``, and
    the constant counts the all-hop balanced strings anchored in the box."""
    constant = sum(
        1 for profile, _ in _anchored_profiles(k, box.d, box.L) if profile.is_zero
    )
    return SymbolicTrace(k, box, dict(brute_truncated_table(k, box.d, box.L)), constant)


def offset_covariance_sum(
    left: MultiIndex, right: MultiIndex, model: MomentModel
) -> Fraction:
    """Sum over all translates of ``right`` of its covariance with ``left``.

    Only translates whose support meets the left support contribute
    (independence kills the rest); they are the differences of a left and a
    right support point, each visited once.
    """
    offsets = {
        tuple(p - q for p, q in zip(a, b))
        for a in left.support()
        for b in right.support()
    }
    return sum(
        (monomial_covariance(model, left, right, offset) for offset in offsets),
        Fraction(0),
    )


def dense_matrix(h: SampledHamiltonian) -> np.ndarray:
    box = h.box
    shape = (box.n_side,) * box.d
    matrix = np.zeros((box.volume, box.volume))
    np.fill_diagonal(matrix, h.potential.reshape(-1))
    for idx in np.ndindex(*shape):
        i = np.ravel_multi_index(idx, shape)
        for axis in range(box.d):
            if idx[axis] + 1 < box.n_side:
                neighbor = list(idx)
                neighbor[axis] += 1
                j = np.ravel_multi_index(tuple(neighbor), shape)
                matrix[i, j] = matrix[j, i] = 1.0
    return matrix


def dense_trace_poly(h: SampledHamiltonian, p: Poly) -> float:
    eigenvalues = np.linalg.eigvalsh(dense_matrix(h))
    return float(sum(p(x) for x in eigenvalues))


def random_rational(rng: Random, span: int = 6, max_den: int = 4) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, max_den))


def random_discrete_model(rng: Random, n_atoms: int) -> MomentModel:
    """Mean-zero discrete model with distinct rational atoms: draw values and
    positive weights, then recentre the values (shifting keeps distinctness)."""
    while True:
        values = {random_rational(rng) for _ in range(n_atoms)}
        if len(values) == n_atoms:
            break
    raw = [Fraction(rng.randint(1, 9)) for _ in range(n_atoms)]
    total = sum(raw)
    weights = [w / total for w in raw]
    mean = sum(w * v for w, v in zip(weights, sorted(values)))
    atoms = [(v - mean, w) for v, w in zip(sorted(values), weights)]
    return MomentModel.discrete(atoms)


def random_poly(rng: Random, degree: int) -> Poly:
    coeffs = [random_rational(rng, span=9) for _ in range(degree)]
    lead = Fraction(0)
    while lead == 0:
        lead = random_rational(rng, span=9)
    return Poly.from_coeffs(coeffs + [lead])
