"""Limiting variances of normalized trace fluctuations, exactly.

For a polynomial p and a mean-zero site distribution, the centered trace of
p applied to the finite-volume operator, normalized by the square root of
the volume, has a gaussian limit. Its variance is a finite rational built
from path-count tables and monomial covariances; this module evaluates it
exactly, lists the degenerate polynomials (zero limiting variance, which
exist only for two- and three-point supports), classifies arbitrary
polynomials, and carries an independent oracle that reproduces the variance
from an equivalent local random variable on the radius-1 box.

A limiting covariance sums, over pairs of path-count classes and over the
translates that overlap, the covariance of two site monomials. That
covariance depends only on the sorted exponents of the joint monomial and
of the two factors, so the pair loop fills two integer histograms keyed by
those exponent tuples. The model's moment product of each distinct exponent
tuple is evaluated once per law, and a key whose product is zero adds no
term. Both tables and their counts are invariant under the point
symmetries of Z^d, and so is each pair's offset sum, so the outer loop runs
over one representative per orbit of classes, weighted by the orbit's size.
The histograms are memoized per (sorted powers, d) for every law, and the
value per law. Tests keep the direct per-pair, per-offset sum as an oracle.

Everything here is pure rational arithmetic; no epsilon appears anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from operator import add, sub
from typing import NamedTuple

from .lattice import MultiIndex, Point, delta, orbit
from .moments import (
    MomentModel,
    moment_product,
    monomial_expectation,
    support_class,
)
from .poly import Poly
from .walks import path_counts


class IntegrityError(RuntimeError):
    """Two independent classification routes disagreed: an implementation bug."""


class LimitCovariance(NamedTuple):
    """One entry of the limiting covariance form of normalized trace powers."""

    k: int
    l: int
    value: Fraction


def _overlapping_offsets(left_sites, right_sites) -> set[Point]:
    """Translates of the right support that meet the left one."""
    return {tuple(map(sub, p, q)) for p in left_sites for q in right_sites}


@lru_cache(maxsize=None)
def _orbits(k: int, d: int) -> tuple[tuple[MultiIndex, int], ...]:
    """One class per orbit of the (k, d) table's classes under the point
    symmetries, with the orbit's total count (its size times the common
    class count). An orbit whose images are not all in the table with one
    count raises ``IntegrityError``."""
    table = path_counts(k, d)
    counts = {index.entries: count for index, count in table.counts.items()}
    seen: set[tuple] = set()
    orbits = []
    for index, count in table.counts.items():
        if index.entries in seen:
            continue
        images = orbit(index.entries)
        if any(counts.get(image) != count for image in images):
            raise IntegrityError(
                f"the orbit of {index.format()} in the k={k}, d={d} "
                f"table does not have the one count {count}"
            )
        seen |= images
        orbits.append((index, len(images) * count))
    return tuple(orbits)


@lru_cache(maxsize=None)
def _weights(k: int, l: int, d: int) -> tuple[tuple, tuple]:
    """The law-free (key, weight) tallies of the (k, l) covariance, k <= l:
    per sorted joint exponent tuple, and per pair of factor tuples."""
    if len(path_counts(k, d).counts) < len(path_counts(l, d).counts):
        k, l = l, k
    right_table = path_counts(l, d)
    joint: dict[tuple[int, ...], int] = {}
    separate: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}
    for left, count_left in _orbits(k, d):
        left_map = left.to_map()
        for right, count_right in right_table.counts.items():
            weight = count_left * count_right
            offsets = _overlapping_offsets(left_map, right.support())
            for offset in offsets:
                merged = dict(left_map)
                for point, e in right.entries:
                    site = tuple(map(add, point, offset))
                    merged[site] = merged.get(site, 0) + e
                exponents = tuple(sorted(merged.values()))
                joint[exponents] = joint.get(exponents, 0) + weight
            pair = (
                tuple(sorted(left_map.values())),
                tuple(sorted(e for _, e in right.entries)),
            )
            separate[pair] = separate.get(pair, 0) + weight * len(offsets)
    return tuple(joint.items()), tuple(separate.items())


@lru_cache(maxsize=None)
def _moment_product(model: MomentModel, exponents: tuple[int, ...]) -> Fraction:
    return moment_product(model, exponents)


@lru_cache(maxsize=None)
def _covariance(k: int, l: int, model: MomentModel, d: int) -> Fraction:
    """The (k, l) covariance under ``model``, k <= l; a key whose moment
    product is zero adds no term."""
    joint, separate = _weights(k, l, d)
    total = Fraction(0)
    for exponents, weight in joint:
        value = _moment_product(model, exponents)
        if value:
            total += weight * value
    for (a, b), weight in separate:
        left = _moment_product(model, a)
        if left and (right := _moment_product(model, b)):
            total -= weight * left * right
    return total


def limiting_covariance(powers: tuple[int, int], model: MomentModel, d: int) -> Fraction:
    """Limiting covariance of the normalized centered traces of two powers.

    Symmetric in the pair; the diagonal entries are the per-power limiting
    variances. Equal to the sum, over the classes alpha and beta of the two
    path-count tables, of c_alpha c_beta times the covariance of x^alpha with
    every overlapping translate x^beta_delta. Each covariance is
    E[x^(alpha + beta_delta)] - E[x^alpha] E[x^beta], so the integer weights
    are tallied per sorted exponent tuple of the joint monomial and per pair
    of exponent tuples, and moments enter once per tuple at the end.

    A point symmetry g leaves both tables, their counts and every pair's
    offset sum unchanged, so the classes alpha of one orbit contribute
    equally: alpha runs over one representative per orbit of the table with
    more classes, weighted by the orbit's total count, against every class
    beta of the other table. After the budget checks, the weights are
    memoized per (sorted powers, d) for every law, and the value per law.
    """
    k, l = sorted(powers)
    if k < 1:
        raise ValueError("powers must be >= 1")
    path_counts(k, d)  # the budget checks, memo or not
    path_counts(l, d)
    return _covariance(k, l, model, d)


def covariance_entries(max_power: int, model: MomentModel, d: int) -> list[LimitCovariance]:
    """All limiting covariance entries for powers up to ``max_power``."""
    entries = []
    for k in range(1, max_power + 1):
        for l in range(k, max_power + 1):
            entries.append(LimitCovariance(k, l, limiting_covariance((k, l), model, d)))
    return entries


def sigma_squared(p: Poly, model: MomentModel, d: int) -> Fraction:
    """Exact limiting variance of the normalized centered trace of p.

    Nonnegative, independent of the constant coefficient, and quadratic in
    the remaining coefficients. Constant polynomials are rejected.
    """
    m = p.degree
    if m < 1:
        raise ValueError("limiting variance needs a non-constant polynomial")
    total = Fraction(0)
    for k in range(1, m + 1):
        a_k = p.coefficient(k)
        if a_k == 0:
            continue
        for l in range(k, m + 1):
            a_l = p.coefficient(l)
            if a_l == 0:
                continue
            value = limiting_covariance((k, l), model, d)
            total += a_k * a_l * value if k == l else 2 * a_k * a_l * value
    return total


def _three_point_cubic(a: Fraction, b: Fraction, c: Fraction, d: int) -> Poly:
    return Poly.from_coeffs(
        [Fraction(0), a * b + a * c + b * c - 6 * d, -(a + b + c), Fraction(1)]
    )


def _two_point_quadratic(a: Fraction, b: Fraction) -> Poly:
    return Poly.from_coeffs([Fraction(0), -(a + b), Fraction(1)])


def _two_point_cubic(a: Fraction, b: Fraction, d: int) -> Poly:
    return Poly.from_coeffs(
        [Fraction(0), -(a * a + a * b + b * b + 6 * d), Fraction(0), Fraction(1)]
    )


def _two_point_quintic(a: Fraction, b: Fraction, d: int) -> Poly:
    # The 80*d*a*b cross term is forced: the variance is quadratic in the
    # linear coefficient with a double root, and this bracket is its unique
    # zero (checked exactly in the degenerate-basis tests).
    bracket = (
        3 * (a**4 + b**4)
        + 8 * (a**3 * b + a**2 * b**2 + a * b**3)
        + 20 * d * (a**2 + b**2)
        + 80 * d * a * b
        - 120 * d**2
        + 60 * d
    )
    return Poly.from_coeffs(
        [
            Fraction(0),
            Fraction(bracket, 2),
            Fraction(0),
            Fraction(0),
            Fraction(-5, 2) * (a + b),
            Fraction(1),
        ]
    )


def degenerate_basis(model: MomentModel, d: int) -> list[Poly]:
    """Non-constant polynomials spanning (with constants) the zero-variance set.

    Two-point support {a, b} gives one polynomial each of degree 2, 3 and 5;
    three-point support {a, b, c} gives a single cubic; anything richer has
    no degenerate polynomial beyond constants and yields the empty list.
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    kind = support_class(model)
    if kind.kind == "two_point":
        a, b = kind.values
        return [
            _two_point_quadratic(a, b),
            _two_point_cubic(a, b, d),
            _two_point_quintic(a, b, d),
        ]
    if kind.kind == "three_point":
        a, b, c = kind.values
        return [_three_point_cubic(a, b, c, d)]
    return []


def _in_span(target: list[Fraction], basis: list[list[Fraction]]) -> bool:
    """Exact membership of ``target`` in the rational span of ``basis``."""
    rows = len(target)
    columns = len(basis)
    matrix = [[basis[j][i] for j in range(columns)] + [target[i]] for i in range(rows)]
    pivot_row = 0
    for col in range(columns):
        pivot = next(
            (r for r in range(pivot_row, rows) if matrix[r][col] != 0), None
        )
        if pivot is None:
            continue
        matrix[pivot_row], matrix[pivot] = matrix[pivot], matrix[pivot_row]
        lead = matrix[pivot_row][col]
        for r in range(rows):
            if r != pivot_row and matrix[r][col] != 0:
                factor = matrix[r][col] / lead
                matrix[r] = [x - factor * y for x, y in zip(matrix[r], matrix[pivot_row])]
        pivot_row += 1
    # inconsistent iff some zero row has a nonzero right-hand side
    return all(
        any(row[c] != 0 for c in range(columns)) or row[-1] == 0 for row in matrix
    )


def classify(p: Poly, model: MomentModel, d: int) -> str:
    """'degenerate' iff the limiting variance is exactly zero.

    Cross-checked against exact span membership in the degenerate basis plus
    constants; a disagreement between the two routes is an implementation bug
    and raises ``IntegrityError`` rather than being swallowed.
    """
    if p.degree < 1:
        raise ValueError("classification needs a non-constant polynomial")
    by_value = sigma_squared(p, model, d) == 0

    basis_polys = [Poly.from_coeffs([1])] + degenerate_basis(model, d)
    size = max([p.degree] + [q.degree for q in basis_polys]) + 1
    target = [p.coefficient(k) for k in range(size)]
    basis = [[q.coefficient(k) for k in range(size)] for q in basis_polys]
    by_span = _in_span(target, basis)

    if by_value != by_span:
        raise IntegrityError(
            f"variance test says degenerate={by_value} but span membership says "
            f"{by_span} for p={p.format()!r}"
        )
    return "degenerate" if by_value else "nondegenerate"


def _box_sites(d: int) -> list[Point]:
    return [tuple(point) for point in product((-1, 0, 1), repeat=d)]


def _close_pairs(sites: list[Point]) -> list[tuple[Point, Point]]:
    """Unordered pairs of radius-1 box sites differing in exactly one axis."""
    pairs = []
    for i, n in enumerate(sites):
        for m in sites[i + 1 :]:
            if sum(1 for a, b in zip(n, m) if a != b) == 1:
                pairs.append((n, m))
    return pairs


def _add_term(poly: dict[MultiIndex, Fraction], index: MultiIndex, coeff: Fraction) -> None:
    updated = poly.get(index, Fraction(0)) + coeff
    if updated == 0:
        poly.pop(index, None)
    else:
        poly[index] = updated


def _local_variable(k: int, d: int) -> dict[MultiIndex, Fraction]:
    """The degree-k local random variable on the radius-1 box, scaled by the
    square root of the box volume (so coefficients stay rational).

    Its covariances reproduce the limiting covariances of the normalized
    trace powers after dividing by the box volume.
    """
    sites = _box_sites(d)
    poly: dict[MultiIndex, Fraction] = {}

    def add_power(site: Point, power: int, coeff) -> None:
        _add_term(poly, delta(d, site, power), Fraction(coeff))

    if k == 1:
        for n in sites:
            add_power(n, 1, 1)
    elif k == 2:
        for n in sites:
            add_power(n, 2, 1)
    elif k == 3:
        for n in sites:
            add_power(n, 3, 1)
            add_power(n, 1, 6 * d)
    elif k == 4:
        for n in sites:
            add_power(n, 4, 1)
            add_power(n, 2, 8 * d)
        for n, m in _close_pairs(sites):
            _add_term(poly, delta(d, n) + delta(d, m), Fraction(4))
    elif k == 5:
        for n in sites:
            add_power(n, 5, 1)
            add_power(n, 3, 10 * d)
            add_power(n, 1, 60 * d * d - 30 * d)
        for n, m in _close_pairs(sites):
            _add_term(poly, delta(d, n, 2) + delta(d, m), Fraction(5))
            _add_term(poly, delta(d, n) + delta(d, m, 2), Fraction(5))
    else:
        raise ValueError(f"local construction is defined for degrees 1..5, not {k}")
    return poly


def sigma_squared_local_oracle(p: Poly, model: MomentModel, d: int) -> Fraction:
    """Independent route to the limiting variance for degrees up to 5.

    Assembles the matching local random variable on the radius-1 box and
    expands its variance exactly through iid monomial expectations. Must
    agree with ``sigma_squared`` wherever both are defined.
    """
    m = p.degree
    if not 1 <= m <= 5:
        raise ValueError("the local oracle handles degrees 1..5 only")

    combined: dict[MultiIndex, Fraction] = {}
    for k in range(1, m + 1):
        a_k = p.coefficient(k)
        if a_k == 0:
            continue
        for index, coeff in _local_variable(k, d).items():
            _add_term(combined, index, a_k * coeff)

    mean = Fraction(0)
    for index, coeff in combined.items():
        mean += coeff * monomial_expectation(model, index)

    second = Fraction(0)
    items = list(combined.items())
    squared: dict[MultiIndex, Fraction] = {}
    for i, (left, c_left) in enumerate(items):
        _add_term(squared, left + left, c_left * c_left)
        for right, c_right in items[i + 1 :]:
            _add_term(squared, left + right, 2 * c_left * c_right)
    for index, coeff in squared.items():
        second += coeff * monomial_expectation(model, index)

    return (second - mean * mean) / 3**d
