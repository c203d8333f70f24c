"""Finite-volume operators: sampling, numeric traces, exact expectations.

The operator on the box of radius L in Z^d is nearest-neighbor hopping with
coefficient 1 plus a diagonal of iid site variables. Numeric traces of
powers are computed from half powers: column x of H^j is supported on the
L1 ball of radius j around x, so the entries (H^j)_{x+delta, x} are kept
for all sites at once as one grid-shaped array per offset delta in that
ball, and Tr H^k is a sum of inner products of two such generations with
j = ceil(k/2). The expected trace is evaluated in exact rational arithmetic
from the visit classes of closed hop walks (see :mod:`andersonstats.walks`):
per class, the anchor positions that keep the walk inside the box are a
product of per-axis interval lengths, and each placement of the potential
steps contributes a monomial whose expectation depends only on its sorted
exponents. These integer counts are tallied per exponent tuple, and moments
enter once per tuple at the end.

Floats are used only for sampled quantities; expectations stay rational and
the two never mix silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb, prod

import numpy as np

from .budget import check_budget
from .lattice import MultiIndex, adjacent, l1_ball
from .moments import MomentModel, moment_product, monomial_expectation, sample
from .variance import Poly
from .walks import placements, profiles, visit_classes


@dataclass(frozen=True)
class BoxSpec:
    """The cube of radius L in Z^d: side 2L+1, volume (2L+1)^d."""

    d: int
    L: int

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError(f"dimension must be >= 1, got {self.d}")
        if self.L < 1:
            raise ValueError(f"box radius must be >= 1, got {self.L}")

    @property
    def n_side(self) -> int:
        return 2 * self.L + 1

    @property
    def volume(self) -> int:
        return self.n_side**self.d


@dataclass(eq=False)
class SampledHamiltonian:
    """One disorder realization: the potential grid over the box.

    ``potential[i1, ..., id]`` is the value at site (i1-L, ..., id-L); the
    hopping part is implicit (nearest neighbor, coefficient 1, symmetric).
    """

    box: BoxSpec
    potential: np.ndarray

    def __post_init__(self) -> None:
        expected = (self.box.n_side,) * self.box.d
        if self.potential.shape != expected:
            raise ValueError(
                f"potential shape {self.potential.shape} != box shape {expected}"
            )


def sample_hamiltonian(
    box: BoxSpec, model: MomentModel, seed: int, budget: int | None = None
) -> SampledHamiltonian:
    """Draw the iid potential for one realization, deterministic per seed."""
    check_budget(box.volume, budget, f"potential of volume {box.volume}")
    draws = sample(model, seed, box.volume)
    return SampledHamiltonian(box, draws.reshape((box.n_side,) * box.d))


def _l1_ball_size(d: int, r: int) -> int:
    """Number of points of Z^d with L1 norm <= r: choose the k nonzero
    coordinates, their signs, and absolute values summing to at most r."""
    return sum(2**k * comb(d, k) * comb(r, k) for k in range(min(d, r) + 1))


def trace_powers_numeric(
    h: SampledHamiltonian, max_power: int, budget: int | None = None
) -> list[float]:
    """Traces of the operator powers 1..max_power from half powers.

    psi_j[delta](x) = (H^j)_{x+delta, x} for all sites x at once, one
    grid-shaped array per offset delta with |delta|_1 <= j (a walk of length
    j moves at most j steps). One application of the operator is

        psi_{j+1}[delta](x) = V(x+delta) psi_j[delta](x)
                              + sum over +-e_i of psi_j[delta +- e_i](x)

    for x+delta in the box, and 0 outside it. The operator is real
    symmetric, so Tr H^(2j-1) = sum_delta <psi_j[delta], psi_{j-1}[delta]>
    and Tr H^(2j) = sum_delta <psi_j[delta], psi_j[delta]>: half powers up to
    r = ceil(max_power / 2) suffice, with two generations live at once.
    """
    if max_power < 1:
        raise ValueError("need a power >= 1")
    box = h.box
    d, n = box.d, box.n_side
    r = (max_power + 1) // 2
    check_budget(
        2 * box.volume * _l1_ball_size(d, r), budget, "trace half-power cells"
    )
    ball = l1_ball(d, r)
    position = {delta: i for i, delta in enumerate(ball)}

    # per offset: its position in the ball, the sites x with x+delta in the
    # box (none once some |delta_i| >= n), the sites x+delta, and the
    # positions of its lattice neighbours in the ball
    steps = []
    for i, delta in enumerate(ball):
        if any(abs(c) >= n for c in delta):
            continue
        sites = tuple(slice(max(0, -c), n - max(0, c)) for c in delta)
        shifted = tuple(slice(max(0, c), n + min(0, c)) for c in delta)
        neighbours = [position[q] for q in adjacent(delta) if q in position]
        steps.append((i, sites, shifted, neighbours))

    potential = h.potential
    psi = np.ones((1,) + potential.shape)
    traces: list[float] = []
    for j in range(1, r + 1):
        previous = len(psi)
        nxt = np.zeros((_l1_ball_size(d, j),) + potential.shape)
        for i, sites, shifted, neighbours in steps:
            if i >= len(nxt):
                break
            row = nxt[i][sites]
            if i < previous:
                np.multiply(potential[shifted], psi[i][sites], out=row)
            for k in neighbours:
                if k < previous:
                    row += psi[k][sites]
        flat = nxt.ravel()
        traces.append(float(flat[: psi.size] @ psi.ravel()))
        traces.append(float(flat @ flat))
        psi = nxt
    return traces[:max_power]


def trace_poly_numeric(
    h: SampledHamiltonian, p: Poly, budget: int | None = None
) -> float:
    """Trace of p applied to the sampled operator (constant term included)."""
    if p.degree < 1:
        raise ValueError("need a non-constant polynomial")
    traces = trace_powers_numeric(h, p.degree, budget)
    result = float(p.coefficient(0)) * h.box.volume
    for k in range(1, p.degree + 1):
        coefficient = p.coefficient(k)
        if coefficient != 0:
            result += float(coefficient) * traces[k - 1]
    return result


def mean_trace_exact(
    k: int, box: BoxSpec, model: MomentModel, budget: int | None = None
) -> Fraction:
    """Exact expectation of the trace of the k-th power over the box.

    Per visit class, the number of admissible anchors factorizes over axes
    as max(0, side - walk range), and the monomial expectation depends only
    on the multiset of potential exponents. Anchored string counts are
    tallied per sorted exponent tuple in integers; moments enter once per
    tuple at the end.
    """
    if k < 1:
        raise ValueError("need a power >= 1")
    model.require_order(k)
    side = box.n_side
    tally: dict[tuple[int, ...], int] = {}
    for cls in visit_classes(k, box.d, budget):
        anchored = cls.walks
        for lo, hi in zip(cls.lows, cls.highs):
            anchored *= max(0, side - (hi - lo))
        if anchored == 0:
            continue
        for exponents, ways in placements(cls.gaps, k - cls.hops):
            key = tuple(sorted(filter(None, exponents)))
            tally[key] = tally.get(key, 0) + anchored * ways
    return sum(count * moment_product(model, e) for e, count in tally.items())


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


def symbolic_trace(k: int, box: BoxSpec, budget: int | None = None) -> SymbolicTrace:
    """Expand the trace of the k-th power over all (profile, anchor) pairs.

    Small instances only: the cost is profile count times box volume. The
    coefficient of every monomial equals the boundary-corrected coefficient
    from :func:`andersonstats.walks.truncated_coefficient`.
    """
    if k < 1:
        raise ValueError("need a power >= 1")
    required = (2 * box.d + 1) ** k * box.volume
    check_budget(required, budget, f"symbolic expansion of {required} anchored strings")
    L = box.L
    terms: dict[MultiIndex, int] = {}
    constant = 0
    for cls in visit_classes(k, box.d, budget):
        ranges = [range(-L - lo, L - hi + 1) for lo, hi in zip(cls.lows, cls.highs)]
        if cls.hops == k:
            constant += cls.walks * prod(len(r) for r in ranges)
            continue
        for anchor, entries, strings in profiles(cls, k - cls.hops):
            profile = MultiIndex(box.d, entries)
            for move in product(*ranges):
                index = profile.shift(tuple(a + m for a, m in zip(anchor, move)))
                terms[index] = terms.get(index, 0) + strings
    return SymbolicTrace(k, box, terms, constant)
