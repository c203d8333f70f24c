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
the two never mix silently. numpy is imported only inside
:func:`trace_powers_numeric`, so the exact expectation loads without it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import TYPE_CHECKING

from .budget import check_budget
from .lattice import adjacent, l1_ball
from .moments import MomentModel, moment_product, sample
from .poly import Poly
from .walks import placements, visit_classes

if TYPE_CHECKING:
    import numpy as np


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


def sample_hamiltonian(box: BoxSpec, model: MomentModel, seed: int) -> SampledHamiltonian:
    """Draw the iid potential for one realization, deterministic per seed."""
    check_budget(box.volume, f"potential of volume {box.volume}")
    draws = sample(model, seed, box.volume)
    return SampledHamiltonian(box, draws.reshape((box.n_side,) * box.d))


def _l1_ball_size(d: int, r: int) -> int:
    """Number of points of Z^d with L1 norm <= r: choose the k nonzero
    coordinates, their signs, and absolute values summing to at most r."""
    return sum(2**k * comb(d, k) * comb(r, k) for k in range(min(d, r) + 1))


def trace_powers_numeric(h: SampledHamiltonian, max_power: int) -> list[float]:
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
    import numpy as np

    if max_power < 1:
        raise ValueError("need a power >= 1")
    box = h.box
    d, n = box.d, box.n_side
    r = (max_power + 1) // 2
    check_budget(2 * box.volume * _l1_ball_size(d, r), "trace half-power cells")
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


def trace_poly_numeric(h: SampledHamiltonian, p: Poly) -> float:
    """Trace of p applied to the sampled operator (constant term included)."""
    if p.degree < 1:
        raise ValueError("need a non-constant polynomial")
    traces = trace_powers_numeric(h, p.degree)
    result = float(p.coefficient(0)) * h.box.volume
    for k in range(1, p.degree + 1):
        coefficient = p.coefficient(k)
        if coefficient != 0:
            result += float(coefficient) * traces[k - 1]
    return result


def mean_trace_exact(k: int, box: BoxSpec, model: MomentModel) -> Fraction:
    """Exact expectation of the trace of the k-th power over the box.

    Per visit class, the number of admissible anchors factorizes over axes
    as max(0, side - walk range), and the monomial expectation depends only
    on the multiset of potential exponents. Anchored string counts are
    tallied per sorted exponent tuple in integers; moments enter once per
    tuple at the end.
    """
    if k < 1:
        raise ValueError("need a power >= 1")
    side = box.n_side
    tally: dict[tuple[int, ...], int] = {}
    for cls in visit_classes(k, box.d):
        anchored = cls.walks
        for lo, hi in zip(cls.lows, cls.highs):
            anchored *= max(0, side - (hi - lo))
        if anchored == 0:
            continue
        for exponents, ways in placements(cls.gaps, k - cls.hops):
            key = tuple(sorted(filter(None, exponents)))
            tally[key] = tally.get(key, 0) + anchored * ways
    return sum(count * moment_product(model, e) for e, count in tally.items())
