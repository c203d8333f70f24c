#!/usr/bin/env python3
"""Sweep the box radius and print empirical vs predicted variance as CSV.

Degenerate cubics and quintics (zero predicted variance) show the empirical
variance decaying with L; the degenerate quadratic of a two-point law is
constant on the support, so its empirical variance is exactly 0 at every L.
Nondegenerate polynomials stabilize at the prediction.

Example:
    python scripts/variance_decay_sweep.py --poly 0,-7,0,1 \
        --dist discrete:1@1/2,-1@1/2 --d 1 --radii 25,50,100,200
"""

from __future__ import annotations

import argparse

from andersonstats import Poly, parse_distribution, run_experiment, sigma_squared


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--poly", required=True)
    parser.add_argument("--dist", required=True)
    parser.add_argument("--d", type=int, default=1)
    parser.add_argument("--radii", default="25,50,100,200", help="comma-separated L values")
    parser.add_argument("--samples", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    if args.samples < 2:
        parser.error("--samples must be at least 2: the empirical variance needs two samples")

    p = Poly.parse(args.poly)
    model = parse_distribution(args.dist)
    predicted = sigma_squared(p, model, args.d)

    print("L,empirical_var,predicted_sigma2")
    for token in args.radii.split(","):
        L = int(token)
        report = run_experiment(p, model, args.d, L, args.samples, args.seed)
        print(f"{L},{report.empirical_var!r},{float(predicted)!r}")


if __name__ == "__main__":
    main()
