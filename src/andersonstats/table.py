"""Reference table of path-count classes for string lengths 1..5.

The translation classes with nonzero counts at these lengths are the pure
point classes m*delta (m = 1..5), the adjacent pair delta+delta^e, and the
weighted pairs 2delta+delta^(+-e). Counts per class:

    k=1  delta: 1
    k=2  2delta: 1
    k=3  delta: 6d                3delta: 1
    k=4  2delta: 8d               4delta: 1    delta+delta^e: 4
    k=5  delta: 60d^2-30d         3delta: 10d  5delta: 1   2delta+delta^(+-e): 5

Classes that only differ by the axis or the orientation of the off-origin
point are distinct canonical classes but share one count; the verification
folds them under coordinate permutations and reflections (``lattice.fold_key``)
for display and checks the multiplicity of each folded group (d axes for
delta+delta^e, 2d orientations for 2delta+delta^(+-e)) as well as the
absence of anything unlisted.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .lattice import MultiIndex, delta, fold_key
from .walks import path_counts

MAX_TABLE_POWER = 5


class ReferenceRow(NamedTuple):
    k: int
    label: str
    exemplar: MultiIndex
    count: int
    classes: int


def _unit(d: int, axis: int) -> tuple[int, ...]:
    return tuple(1 if i == axis else 0 for i in range(d))


def reference_rows(d: int) -> list[ReferenceRow]:
    """Expected folded rows for dimension d, lengths 1..5."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    origin = (0,) * d
    e1 = _unit(d, 0)

    def pure(m: int) -> MultiIndex:
        return delta(d, origin, m)

    adjacent = delta(d, origin) + delta(d, e1)
    weighted = delta(d, origin, 2) + delta(d, e1)
    return [
        ReferenceRow(1, "delta", pure(1), 1, 1),
        ReferenceRow(2, "2delta", pure(2), 1, 1),
        ReferenceRow(3, "delta", pure(1), 6 * d, 1),
        ReferenceRow(3, "3delta", pure(3), 1, 1),
        ReferenceRow(4, "2delta", pure(2), 8 * d, 1),
        ReferenceRow(4, "4delta", pure(4), 1, 1),
        ReferenceRow(4, "delta+delta^e", adjacent, 4, d),
        ReferenceRow(5, "delta", pure(1), 60 * d * d - 30 * d, 1),
        ReferenceRow(5, "3delta", pure(3), 10 * d, 1),
        ReferenceRow(5, "5delta", pure(5), 1, 1),
        ReferenceRow(5, "2delta+delta^(+-e)", weighted, 5, 2 * d),
    ]


class TableVerification(NamedTuple):
    """Outcome of re-enumerating lengths 1..5 against the reference rows."""

    d: int
    match: bool
    rows: Sequence[dict] = ()
    diffs: Sequence[str] = ()

    def to_json_dict(self) -> dict:
        return {"d": self.d, "match": self.match, "rows": self.rows, "diffs": self.diffs}


def verify_reference_table(d: int) -> TableVerification:
    """Recompute every class for k = 1..5 and compare with the reference.

    Each reference row is compared with the computed classes of its folded
    group (none if the group is missing): one common count and the expected
    multiplicity. Any computed group the reference does not list is flagged
    too (absence is part of the contract).
    """
    reference = reference_rows(d)
    rows: list[dict] = []
    diffs: list[str] = []
    for k in range(1, MAX_TABLE_POWER + 1):
        groups: dict[tuple, list[int]] = {}
        for index, count in path_counts(k, d).counts.items():
            groups.setdefault(fold_key(index), []).append(count)
        for row in (row for row in reference if row.k == k):
            counts = groups.pop(fold_key(row.exemplar), [])
            count = counts[0] if len(set(counts)) == 1 else None
            ok = count == row.count and len(counts) == row.classes
            rows.append(
                {"k": k, "class": row.label, "count": count, "classes": len(counts),
                 "expected_count": row.count, "expected_classes": row.classes,
                 "match": ok}
            )
            if not ok:
                found = (
                    f"computed count={count} classes={len(counts)}, expected "
                    f"count={row.count} classes={row.classes}" if counts else "missing"
                )
                diffs.append(f"k={k}: class {row.label} {found}")
        for key, counts in groups.items():
            diffs.append(
                f"k={k}: unexpected class {MultiIndex(d, key).format()} with counts "
                f"{sorted(set(counts))} over {len(counts)} classes"
            )
    return TableVerification(d, not diffs, rows, diffs)
