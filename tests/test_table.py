from __future__ import annotations

import json

import pytest

import andersonstats.table as table_module
from andersonstats import (
    MultiIndex,
    PathCountTable,
    delta,
    fold_key,
    path_counts,
    reference_rows,
    verify_reference_table,
)
from andersonstats.cli import main


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
def test_reference_table_matches_enumeration(d):
    verification = verify_reference_table(d)
    assert verification.match, verification.diffs
    assert verification.diffs == []
    # one row per reference class, all matching
    assert len(verification.rows) == len(reference_rows(d))
    assert all(row["match"] for row in verification.rows)


def test_reference_rows_carry_closed_form_counts():
    rows = {(r.k, r.label): r for r in reference_rows(3)}
    assert rows[(3, "delta")].count == 18
    assert rows[(4, "2delta")].count == 24
    assert rows[(5, "delta")].count == 60 * 9 - 30 * 3
    assert rows[(4, "delta+delta^e")].classes == 3
    assert rows[(5, "2delta+delta^(+-e)")].classes == 6


def test_fold_key_identifies_symmetric_classes():
    d = 2
    along_x = MultiIndex.from_map(d, {(0, 0): 2, (1, 0): 1})
    along_y = MultiIndex.from_map(d, {(0, 0): 2, (0, 1): 1})
    reflected = MultiIndex.from_map(d, {(0, 0): 1, (1, 0): 2})
    assert fold_key(along_x) == fold_key(along_y)
    assert fold_key(along_x) == fold_key(reflected)
    assert fold_key(along_x) == fold_key(along_x.shift((4, -2)))
    # different exponent patterns never fold together
    assert fold_key(delta(d, (0, 0), 3)) != fold_key(along_x)
    assert fold_key(delta(d, (0, 0), 3)) != fold_key(delta(d, (0, 0), 2))


def test_fold_key_rejects_zero():
    with pytest.raises(ValueError):
        fold_key(MultiIndex.zero(2))


def test_verification_payload_shape():
    verification = verify_reference_table(1)
    payload = verification.to_json_dict()
    assert payload["d"] == 1 and payload["match"] is True
    sample = payload["rows"][0]
    assert set(sample) == {
        "k",
        "class",
        "count",
        "classes",
        "expected_count",
        "expected_classes",
        "match",
    }


def _weighted_pairs(counts):
    """The k=5 classes 2delta+delta^(+-e), in entry order."""
    pairs = (i for i in counts if sorted(e for _, e in i.entries) == [1, 2])
    return sorted(pairs, key=lambda index: index.entries)


def _drop_one_class(counts, d):
    del counts[_weighted_pairs(counts)[0]]


def _raise_one_count(counts, d):
    counts[delta(d, (0,) * d)] += 1


def _raise_one_class_of_a_group(counts, d):
    counts[_weighted_pairs(counts)[-1]] += 1


def _add_unexpected_class(counts, d):
    counts[delta(d, (0,) * d, 2) + delta(d, (2,) + (0,) * (d - 1), 2)] = 7


def _remove_one_group(counts, d):
    for index in [i for i in counts if len(i.entries) == 2]:
        del counts[index]


# perturbation, the length it perturbs, the reference row it breaks with
# that row's computed fields, and the one diff line, all as functions of d
PERTURBATIONS = {
    "class dropped": (
        _drop_one_class, 5,
        lambda d: ((5, "2delta+delta^(+-e)"), {"count": 5, "classes": 2 * d - 1}),
        lambda d: f"k=5: class 2delta+delta^(+-e) computed count=5 classes={2 * d - 1}, "
        f"expected count=5 classes={2 * d}",
    ),
    "count raised": (
        _raise_one_count, 3,
        lambda d: ((3, "delta"), {"count": 6 * d + 1, "classes": 1}),
        lambda d: f"k=3: class delta computed count={6 * d + 1} classes=1, "
        f"expected count={6 * d} classes=1",
    ),
    "one class of a group raised": (
        _raise_one_class_of_a_group, 5,
        lambda d: ((5, "2delta+delta^(+-e)"), {"count": None, "classes": 2 * d}),
        lambda d: f"k=5: class 2delta+delta^(+-e) computed count=None classes={2 * d}, "
        f"expected count=5 classes={2 * d}",
    ),
    "unexpected class added": (
        _add_unexpected_class, 4,
        lambda d: (None, {}),
        lambda d: "k=4: unexpected class "
        + {1: "0:2;2:2", 2: "0,0:2;0,2:2", 3: "0,0,0:2;0,0,2:2"}[d]
        + " with counts [7] over 1 classes",
    ),
    "group removed": (
        _remove_one_group, 4,
        lambda d: ((4, "delta+delta^e"), {"count": None, "classes": 0}),
        lambda d: "k=4: class delta+delta^e missing",
    ),
}


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("name", list(PERTURBATIONS))
def test_perturbed_table_is_reported(monkeypatch, capsys, name, d):
    # every mismatch goes through the same comparison: a perturbed
    # enumeration gives the reference rows with one row broken (or none,
    # for an extra class), one diff line, match False and exit 1
    perturb, target, broken, diff = PERTURBATIONS[name]

    def perturbed_path_counts(k, dim):
        counts = dict(path_counts(k, dim).counts)  # the real table is memoized
        if k == target:
            perturb(counts, dim)
        return PathCountTable(k, dim, counts)

    monkeypatch.setattr(table_module, "path_counts", perturbed_path_counts)
    key, computed = broken(d)
    expected_rows = [
        {"k": r.k, "class": r.label, "count": r.count, "classes": r.classes,
         "expected_count": r.count, "expected_classes": r.classes, "match": True}
        for r in reference_rows(d)
    ]
    for row in expected_rows:
        if (row["k"], row["class"]) == key:
            row.update(computed, match=False)

    verification = verify_reference_table(d)
    assert verification.match is False
    assert verification.rows == expected_rows
    assert verification.diffs == [diff(d)]

    assert main(["verify-table", "--d", str(d)]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out == {"schema_version": 1, **verification.to_json_dict()}
