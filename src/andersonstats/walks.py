"""Exact path-count tables from closed hop walks and potential placements.

A step string of length k is a word over {potential, up(v), down(v)}, axes
v = 1..d; its walk starts at the origin, hops move one unit along an axis
and potential steps stay put. A string is balanced when the walk returns to
the origin; its potential profile counts the potential steps per site.

A balanced string with j hops is a closed hop walk y_0..y_j plus k - j
potential steps spread over its j + 1 gaps, gap i sitting at site y_i. So
only closed hop walks are enumerated (depth first, dropping a prefix once
its L1 distance to the origin exceeds the hops left) and tallied by visit
map, site -> gaps there. A map with n_s gaps at site s carries the profile
e in prod_s C(e_s + n_s - 1, n_s - 1) ways (stars and bars), and its
bounding box is the range of its walks.

Only the reduced walks are enumerated: the empty walk, and the closed walks
whose first hop is +e_1. For each unit vector u, the signed axis map g_u of
``lattice.first_hop_maps`` takes e_1 to u, so every other closed walk is the
image of exactly one reduced walk under exactly one of the 2d maps, and the
box [-L, L]^d is invariant under each of them. Consumers of the visit
classes therefore count each non-empty class 2d times (``balanced_census``,
``hamiltonian.mean_trace_exact``), push its profiles through the 2d maps
(``path_counts``), or pull the wanted profile back through them
(``truncated_coefficient``).

``path_counts`` tallies these integer weights per translation class of the
profile: the bulk coefficients of the site monomials in the trace of the
k-th power of a finite-volume operator. ``truncated_coefficient`` gives the
boundary-corrected coefficient for a box. The budget (see
:mod:`andersonstats.budget`) is charged the string count (2d+1)^k before
any work starts.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from operator import sub
from typing import Iterator, NamedTuple

from .budget import check_budget
from .lattice import MultiIndex, Point, adjacent, canonicalize, l1_ball
from .lattice import first_hop_maps, map_entries, map_point


class VisitClass(NamedTuple):
    """The reduced closed hop walks from the origin that share one visit map
    (see the module docstring); a class with ``hops`` > 0 stands for itself
    and its images under the other 2d - 1 first-hop maps.

    ``sites`` are the visited sites sorted lexicographically, ``gaps[i]`` the
    number of gaps at ``sites[i]`` (they sum to ``hops + 1``), ``walks`` the
    number of such walks, and ``lows``/``highs`` the per-axis extremes of
    the sites.
    """

    hops: int
    sites: tuple[Point, ...]
    gaps: tuple[int, ...]
    walks: int
    lows: Point
    highs: Point


def _check_strings(k: int, d: int) -> None:
    if k < 1 or d < 1:
        raise ValueError("need k >= 1 and d >= 1")
    check_budget((2 * d + 1) ** k, f"enumerating ({2 * d + 1})^{k} strings")


def _closed_walks(max_hops: int, d: int) -> tuple[list, int, list[dict[int, int]]]:
    """Reduced closed hop walks from the origin (the empty walk and those
    whose first hop is +e_1) with at most ``max_hops`` (even) hops.

    Returns the L1 ball of radius max_hops // 2 (the farthest such a walk
    gets), the bits per site, and per hop count j a tally of the walks by
    anchored visit map. A visit map is packed into one integer: the gap
    count at ``ball[i]`` sits in bits [i * bits, (i + 1) * bits).
    """
    ball = l1_ball(d, max_hops // 2)
    bits = (max_hops + 1).bit_length()
    index = {site: i for i, site in enumerate(ball)}
    # per ball site: (ball index, L1 norm, packed unit) of each neighbour
    neighbours = [
        [
            (index[q], sum(map(abs, q)), 1 << (bits * index[q]))
            for q in adjacent(site)
            if q in index
        ]
        for site in ball
    ]
    tallies: list[dict[int, int]] = [{} for _ in range(max_hops + 1)]
    tallies[0][1] = 1

    def recurse(i: int, remaining: int, key: int) -> None:
        if i == 0:
            tally = tallies[max_hops - remaining]
            tally[key] = tally.get(key, 0) + 1
        if remaining == 1:
            # the last hop is forced: back to the origin
            key += 1
            tally = tallies[max_hops]
            tally[key] = tally.get(key, 0) + 1
            return
        left = remaining - 1
        for moved, norm, unit in neighbours[i]:
            if norm <= left:
                recurse(moved, left, key + unit)

    if max_hops:
        e1 = index[(1,) + (0,) * (d - 1)]
        recurse(e1, max_hops - 1, 1 + (1 << (bits * e1)))
    return ball, bits, tallies


def _classes(max_hops: int, d: int) -> Iterator[VisitClass]:
    """Unpack the visit maps of ``_closed_walks`` one class at a time."""
    ball, bits, tallies = _closed_walks(max_hops, d)
    mask = (1 << bits) - 1
    for tally in tallies:
        for key, walks in tally.items():
            visits = []
            while key:
                shift = ((key & -key).bit_length() - 1) // bits * bits
                n = (key >> shift) & mask
                visits.append((ball[shift // bits], n))
                key ^= n << shift
            visits.sort()
            sites, gaps = zip(*visits)
            axes = list(zip(*sites))
            lows, highs = tuple(map(min, axes)), tuple(map(max, axes))
            yield VisitClass(sum(gaps) - 1, sites, gaps, walks, lows, highs)


def visit_classes(k: int, d: int, max_hops: int | None = None) -> Iterator[VisitClass]:
    """Visit classes of the reduced walks behind the balanced strings of
    length k in dimension d, with at most ``max_hops`` hops (default k).

    The budget is checked on every call, against the string count.
    """
    _check_strings(k, d)
    hops = k if max_hops is None else min(k, max_hops)
    if hops < 0:
        return iter(())
    # walks close only at even lengths
    return _classes(hops - hops % 2, d)


@lru_cache(maxsize=None)
def _compositions(parts: int, total: int) -> tuple[tuple[int, ...], ...]:
    """Every way to write ``total`` as an ordered sum of ``parts`` >= 1
    terms >= 0."""
    if parts == 1:
        return ((total,),)
    return tuple(
        (e,) + rest
        for e in range(total + 1)
        for rest in _compositions(parts - 1, total - e)
    )


def placements(gaps: tuple[int, ...], rest: int) -> Iterator[tuple[tuple, int]]:
    """Every way to put ``rest`` potential steps on sites with the given gap
    counts: pairs (exponent per site, number of gap assignments giving it)."""
    # a site with one gap takes its steps in one way
    repeated = [(i, n - 1) for i, n in enumerate(gaps) if n > 1]
    for exponents in _compositions(len(gaps), rest):
        ways = 1
        for i, m in repeated:
            ways *= comb(exponents[i] + m, m)
        yield exponents, ways


def profiles(cls: VisitClass, rest: int) -> Iterator[tuple[Point, tuple, int]]:
    """The profiles that ``rest`` >= 1 potential steps on the walks of
    ``cls`` leave: triples (anchor, entries, strings) with the lex-min
    occupied site as anchor, the profile as sorted (site - anchor, exponent)
    entries, and the number of balanced strings leaving it."""
    relative = [[tuple(map(sub, s, a)) for s in cls.sites] for a in cls.sites]
    for exponents, ways in placements(cls.gaps, rest):
        first = 0
        while not exponents[first]:
            first += 1
        sites = relative[first]
        entries = tuple([(sites[i], e) for i, e in enumerate(exponents) if e])
        yield cls.sites[first], entries, cls.walks * ways


class PathCountTable(NamedTuple):
    """Counts of balanced length-k strings per canonical profile class.

    Keys are canonical multi-indexes (fixed points of ``canonicalize``);
    balanced strings with an empty profile appear in no class.
    """

    k: int
    d: int
    counts: dict[MultiIndex, int]

    def count_for(self, index: MultiIndex) -> int:
        """Class count for any representative of the class of ``index``."""
        rep, _ = canonicalize(index)
        return self.counts.get(rep, 0)

    def to_json_dict(self) -> dict:
        ordered = sorted(self.counts.items(), key=lambda item: item[0].entries)
        return {
            "k": self.k,
            "d": self.d,
            "counts": [{"beta": mi.format(), "p": n} for mi, n in ordered],
        }


def path_counts(k: int, d: int) -> PathCountTable:
    """Tally balanced strings of length k by canonical profile class.

    Counts are invariant under translating the profile, so the table is
    indexed by canonical representatives. Built once per (k, d); the budget
    is still checked on every call so resource errors are deterministic.
    """
    _check_strings(k, d)
    return _path_counts(k, d)


@lru_cache(maxsize=None)
def _path_counts(k: int, d: int) -> PathCountTable:
    tally: dict[tuple[tuple[Point, int], ...], int] = {}
    reduced: dict[tuple[tuple[Point, int], ...], int] = {}
    for cls in visit_classes(k, d, max_hops=k - 1):
        # the empty walk is its own image under every map
        target = reduced if cls.hops else tally
        for _, key, strings in profiles(cls, k - cls.hops):
            target[key] = target.get(key, 0) + strings
    maps = first_hop_maps(d)
    for key, strings in reduced.items():
        for g in maps:
            image = map_entries(g, key)
            tally[image] = tally.get(image, 0) + strings
    return PathCountTable(k, d, {MultiIndex(d, key): n for key, n in tally.items()})


def truncated_coefficient(index: MultiIndex, k: int, L: int) -> int:
    """Coefficient of the monomial of ``index`` in the trace of the k-th
    power over the box of radius L.

    Counts pairs (string, anchor) where the string is balanced, its anchored
    profile equals ``index``, and the anchored walk stays inside the box.
    Always between 0 and the class count from ``path_counts``; equal to it
    when the support touches the depth-k interior, and 0 when the support
    leaves the box.
    """
    if index.is_zero:
        raise ValueError("the zero multi-index labels no monomial")
    if L < 1:
        raise ValueError(f"box radius must be >= 1, got {L}")
    # ``index`` pulled back through each first-hop map g (the identity
    # first; g is its own inverse): the lex-min point of g(index), listed
    # under its class
    pulled: dict[tuple, list[Point]] = {}
    for g in first_hop_maps(index.d):
        lowest = min(map_point(g, p) for p, _ in index.entries)
        pulled.setdefault(map_entries(g, index.entries), []).append(lowest)
    found = 0
    for cls in visit_classes(k, index.d, max_hops=k - index.total_exponent()):
        for anchor, key, strings in profiles(cls, k - cls.hops):
            targets = pulled.get(key)
            if targets is None:
                continue
            # the empty walk has no other images
            for target in targets if cls.hops else targets[:1]:
                # the translation taking this profile onto g(index)
                move = tuple(map(sub, target, anchor))
                if all(
                    -L <= lo + m and hi + m <= L
                    for lo, hi, m in zip(cls.lows, cls.highs, move)
                ):
                    found += strings
    return found


class Census(NamedTuple):
    total_balanced: int
    with_pot: int


def balanced_census(k: int, d: int) -> Census:
    """Count balanced strings of length k, and those with >= 1 potential step.

    A closed hop walk of j hops takes its k - j potential steps in C(k, j)
    ways. The second count equals the sum of all entries of
    ``path_counts(k, d)``.
    """
    _check_strings(k, d)
    _, _, tallies = _closed_walks(k - k % 2, d)
    # every non-empty reduced walk stands for 2d closed walks
    strings = [
        comb(k, j) * sum(tally.values()) * (2 * d if j else 1)
        for j, tally in enumerate(tallies)
    ]
    return Census(sum(strings), sum(strings[:k]))
