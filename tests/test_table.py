from __future__ import annotations

import pytest

from andersonstats import (
    MultiIndex,
    delta,
    fold_key,
    reference_rows,
    verify_reference_table,
)


@pytest.mark.parametrize("d", [1, 2, 3])
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
