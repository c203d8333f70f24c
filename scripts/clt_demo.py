#!/usr/bin/env python3
"""Run one fluctuation experiment and print the report as JSON.

Example:
    python scripts/clt_demo.py --poly 0,0,1 --dist uniform:1 --d 1 --L 200 \
        --samples 4000 --seed 7 --out samples.csv
"""

from __future__ import annotations

import argparse
import contextlib
import json

from andersonstats import Poly, parse_distribution, run_experiment


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--poly", required=True, help="coefficients low to high, e.g. 0,0,1")
    parser.add_argument("--dist", required=True, help="uniform:w | gaussian:v | discrete:v@w,...")
    parser.add_argument("--d", type=int, default=1)
    parser.add_argument("--L", type=int, default=100)
    parser.add_argument("--samples", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", help="optional CSV dump of the samples")
    args = parser.parse_args()

    # opened before any sampling, so a path that cannot be written is a
    # usage error (exit 2) at once
    try:
        out = open(args.out, "w", encoding="utf-8") if args.out else contextlib.nullcontext()
    except OSError as exc:
        parser.error(f"cannot write --out {args.out!r}: {exc.strerror or exc}")
    with out:
        report = run_experiment(
            Poly.parse(args.poly), parse_distribution(args.dist),
            args.d, args.L, args.samples, args.seed,
        )
        if args.out:
            report.write_csv(out)
    payload = report.to_json_dict()
    payload.pop("samples")  # the CSV is the sample hand-off
    print(json.dumps(payload, indent=2))


if __name__ == "__main__":
    main()
