"""Write ``pinned.json``: exact values the benchmark's checks compare against.

The values were computed once with the package as it stood when the
benchmark was defined, and are pinned so that a later change to the program
cannot move both the output and its reference. Rerunning this script is
only right when a pinned quantity is meant to change.

    python3 perfbench/make_pinned.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from andersonstats import (  # noqa: E402
    BoxSpec,
    balanced_census,
    covariance_entries,
    degenerate_basis,
    mean_trace_exact,
    parse_distribution,
    path_counts,
)
from checks import counts_digest  # noqa: E402


def main() -> None:
    pinned: dict = {"path_counts": {}, "mean_trace": {}, "exact_means": {}}
    for size in workloads.SIZES.values():
        for k, d in size["pathcount"]:
            table = path_counts(k, d).to_json_dict()["counts"]
            pinned["path_counts"][f"{k},{d}"] = {
                "classes": len(table),
                "with_pot": balanced_census(k, d).with_pot,
                "sha256": counts_digest(table),
            }
        k, d, L = size["mean_trace"]
        value = mean_trace_exact(k, BoxSpec(d, L), parse_distribution("gaussian:1"))
        pinned["mean_trace"][f"{k},{d},{L},gaussian:1"] = str(value)
        for name, dist, d, degree in (
            ("mc-d1", workloads.UNIFORM, 1, 5),
            ("mc-d3", workloads.THREE_POINT, 3, 3),
        ):
            L = size[name][0]
            model = parse_distribution(dist)
            pinned["exact_means"][f"{dist},{d},{L}"] = [
                str(mean_trace_exact(k, BoxSpec(d, L), model)) for k in range(1, degree + 1)
            ]
    pinned["limiting_covariance"] = {
        f"{workloads.UNIFORM},2": {
            f"{e.k},{e.l}": str(e.value)
            for e in covariance_entries(8, parse_distribution(workloads.UNIFORM), 2)
        }
    }
    pinned["degenerate_basis"] = {
        f"{workloads.THREE_POINT},3": [
            q.format() for q in degenerate_basis(parse_distribution(workloads.THREE_POINT), 3)
        ]
    }
    (HERE / "pinned.json").write_text(json.dumps(pinned, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
