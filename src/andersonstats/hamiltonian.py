"""Finite-volume operators: sampling, numeric traces, exact expectations.

The operator on the box of radius L in Z^d is nearest-neighbor hopping with
coefficient 1 plus a diagonal of iid site variables. Numeric traces of
powers are computed from half powers: column x of H^j is supported on the
L1 ball of radius j around x, so the entries (H^j)_{x+delta, x} are kept
for all sites at once as one grid-shaped array per offset delta in that
ball, and Tr H^k is a sum of inner products of two such generations with
j = ceil(k/2). One kernel, :func:`trace_powers_batch`, propagates a stack of
potentials with a leading sample axis at once and takes each sample's inner
products over its own block, so a sample's traces do not depend on the
stack it is traced in; :func:`trace_powers_numeric` is a stack of one.
The expected trace is evaluated in exact rational arithmetic
from the visit classes of closed hop walks (see :mod:`andersonstats.walks`):
per class, the anchor positions that keep the walk inside the box are a
product of per-axis interval lengths, and each placement of the potential
steps contributes a monomial whose expectation depends only on its sorted
exponents. These integer counts are tallied per exponent tuple, and moments
enter once per tuple at the end.

Floats are used only for sampled quantities; expectations stay rational and
the two never mix silently. numpy is imported only inside
:func:`trace_powers_batch`, so the exact expectation loads without it.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import TYPE_CHECKING

from ._frozen import Frozen
from .budget import check_budget
from .lattice import adjacent, l1_ball
from .moments import MomentModel, moment_product, sample
from .poly import Poly
from .walks import placements, visit_classes

if TYPE_CHECKING:
    import numpy as np


class BoxSpec(Frozen):
    """The cube of radius L in Z^d: side 2L+1, volume (2L+1)^d."""

    __slots__ = ("d", "L")
    d: int
    L: int

    def __init__(self, d: int, L: int) -> None:
        if d < 1:
            raise ValueError(f"dimension must be >= 1, got {d}")
        if L < 1:
            raise ValueError(f"box radius must be >= 1, got {L}")
        self._set(d, L)

    @property
    def n_side(self) -> int:
        return 2 * self.L + 1

    @property
    def volume(self) -> int:
        return self.n_side**self.d


class SampledHamiltonian:
    """One disorder realization: the potential grid over the box.

    ``potential[i1, ..., id]`` is the value at site (i1-L, ..., id-L); the
    hopping part is implicit (nearest neighbor, coefficient 1, symmetric).
    """

    __slots__ = ("box", "potential")

    def __init__(self, box: BoxSpec, potential: np.ndarray) -> None:
        expected = (box.n_side,) * box.d
        if potential.shape != expected:
            raise ValueError(f"potential shape {potential.shape} != box shape {expected}")
        self.box = box
        self.potential = potential


def sample_hamiltonian(box: BoxSpec, model: MomentModel, seed: int) -> SampledHamiltonian:
    """Draw the iid potential for one realization, deterministic per seed."""
    check_budget(box.volume, f"potential of volume {box.volume}")
    draws = sample(model, seed, box.volume)
    return SampledHamiltonian(box, draws.reshape((box.n_side,) * box.d))


def _l1_ball_size(d: int, r: int) -> int:
    """Number of points of Z^d with L1 norm <= r: choose the k nonzero
    coordinates, their signs, and absolute values summing to at most r."""
    return sum(2**k * comb(d, k) * comb(r, k) for k in range(min(d, r) + 1))


def half_power_cells(d: int, volume: int, max_power: int) -> int:
    """Cells of the two live half-power generations one sample of the given
    volume in Z^d needs for the traces of powers up to ``max_power``:
    2 volume |B_1(ceil(max_power / 2))|."""
    return 2 * volume * _l1_ball_size(d, (max_power + 1) // 2)


def trace_powers_batch(potentials: np.ndarray, max_power: int) -> np.ndarray:
    """Traces of the operator powers 1..max_power for a stack of potentials.

    ``potentials`` has a leading sample axis, shape (B, n, ..., n), one box
    potential per row; the result has shape (B, max_power). With
    psi_j[delta](x) = (H^j)_{x+delta, x} for all sites x at once, one
    grid-shaped array per sample and offset delta with |delta|_1 <= j (a
    walk of length j moves at most j steps), one application of the
    operator is

        psi_{j+1}[delta](x) = V(x+delta) psi_j[delta](x)
                              + sum over +-e_i of psi_j[delta +- e_i](x)

    for x+delta in the box, and 0 outside it. The operator is real
    symmetric, so Tr H^(2j-1) = sum_delta <psi_j[delta], psi_{j-1}[delta]>
    and Tr H^(2j) = sum_delta <psi_j[delta], psi_j[delta]>: half powers up to
    r = ceil(max_power / 2) suffice, with two generations live at once, each
    of shape (B, |B_1(j)|, n, ..., n).

    The propagation runs on the whole stack at once; each sample's inner
    products are one dot product over its own contiguous block of a
    generation, so a sample's traces are bit-for-bit the same whatever B is
    and wherever in the stack it sits.
    """
    import numpy as np

    if max_power < 1:
        raise ValueError("need a power >= 1")
    batch, *grid = potentials.shape
    d = len(grid)
    if d < 1 or len(set(grid)) != 1:
        raise ValueError(f"potentials of shape {potentials.shape} are not a stack of cubes")
    n = grid[0]
    r = (max_power + 1) // 2
    check_budget(batch * half_power_cells(d, n**d, max_power), "trace half-power cells")
    ball = l1_ball(d, r)
    position = {delta: i for i, delta in enumerate(ball)}

    # per offset: its position in the ball, the index of the sites x with
    # x+delta in the box (none once some |delta_i| >= n), the index of the
    # sites x+delta in the potentials, and the indexes of the same sites
    # under its lattice neighbours in the ball, each with the sample axis
    every = slice(None)
    steps = []
    for i, delta in enumerate(ball):
        if any(abs(c) >= n for c in delta):
            continue
        sites = tuple(slice(max(0, -c), n - max(0, c)) for c in delta)
        shifted = (every,) + tuple(slice(max(0, c), n + min(0, c)) for c in delta)
        neighbours = [
            (position[q], (every, position[q]) + sites)
            for q in adjacent(delta)
            if q in position
        ]
        steps.append((i, (every, i) + sites, shifted, neighbours))

    # one workspace per call, exactly the cells charged: generation j is a prefix of half j % 2
    halves = np.empty(batch * half_power_cells(d, n**d, max_power)).reshape(2, -1)
    psi = halves[0, : batch * n**d].reshape(batch, 1, *grid)
    psi.fill(1.0)
    traces = np.empty((batch, 2 * r))
    for j in range(1, r + 1):
        previous = psi.shape[1]
        nxt = halves[j % 2, : batch * _l1_ball_size(d, j) * n**d].reshape(batch, -1, *grid)
        nxt.fill(0.0)
        for i, index, shifted, neighbours in steps:
            if i >= nxt.shape[1]:
                break
            row = nxt[index]
            if i < previous:
                np.multiply(potentials[shifted], psi[index], out=row)
            for k, neighbour in neighbours:
                if k < previous:
                    row += psi[neighbour]
        flat, older = nxt.reshape(batch, 1, -1), psi.reshape(batch, -1, 1)
        traces[:, 2 * j - 2] = np.matmul(flat[:, :, : older.shape[1]], older)[:, 0, 0]
        traces[:, 2 * j - 1] = np.matmul(flat, flat.reshape(batch, -1, 1))[:, 0, 0]
        psi = nxt
    return traces[:, :max_power]


def trace_poly_batch(potentials: np.ndarray, p: Poly) -> np.ndarray:
    """Trace of p applied to the operator of each potential in a stack of
    shape (B, n, ..., n) (constant term included); shape (B,)."""
    if p.degree < 1:
        raise ValueError("need a non-constant polynomial")
    traces = trace_powers_batch(potentials, p.degree)
    result = float(p.coefficient(0)) * potentials[0].size
    for k in range(1, p.degree + 1):
        coefficient = p.coefficient(k)
        if coefficient != 0:
            result += float(coefficient) * traces[:, k - 1]
    return result


def trace_powers_numeric(h: SampledHamiltonian, max_power: int) -> list[float]:
    """Traces of the operator powers 1..max_power of one sampled operator:
    :func:`trace_powers_batch` on a stack of one potential."""
    return trace_powers_batch(h.potential[None], max_power)[0].tolist()


def trace_poly_numeric(h: SampledHamiltonian, p: Poly) -> float:
    """Trace of p applied to the sampled operator (constant term included)."""
    return float(trace_poly_batch(h.potential[None], p)[0])


def mean_trace_exact(k: int, box: BoxSpec, model: MomentModel) -> Fraction:
    """Exact expectation of the trace of the k-th power over the box.

    Per visit class, the number of admissible anchors factorizes over axes
    as max(0, side - walk range); it and the exponents are the same for the
    2d images of a reduced class. The monomial expectation depends only
    on the multiset of potential exponents. Anchored string counts are
    tallied per sorted exponent tuple in integers; moments enter once per
    tuple at the end.
    """
    if k < 1:
        raise ValueError("need a power >= 1")
    side = box.n_side
    tally: dict[tuple[int, ...], int] = {}
    for cls in visit_classes(k, box.d):
        # a non-empty reduced class stands for its 2d images, which have the
        # same anchor count and exponents
        anchored = cls.walks * (2 * box.d if cls.hops else 1)
        for lo, hi in zip(cls.lows, cls.highs):
            anchored *= max(0, side - (hi - lo))
        if anchored == 0:
            continue
        for exponents, ways in placements(cls.gaps, k - cls.hops):
            key = tuple(sorted(filter(None, exponents)))
            tally[key] = tally.get(key, 0) + anchored * ways
    return sum(count * moment_product(model, e) for e, count in tally.items())
