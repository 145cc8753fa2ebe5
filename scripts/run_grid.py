#!/usr/bin/env python3
"""Sweep the constructible (t, r) region and verify every model.

Each grid cell runs the product's verdict, `run_suite(model, "all", ...)`
(what `horocomb model verify --suite all` runs), and checks that the model's
recovered invariant equals r.  Prints one row per cell with its passed
check count and worst residual/tolerance, and exits 1 if any cell fails.

Usage: python scripts/run_grid.py [--nt 4] [--nr 4] [--seed 0]
"""

import argparse
import math
import sys

import numpy as np

from horocomb.combination import make_representation
from horocomb.invariants import geometric_schedule, model_arg
from horocomb.verification import run_suite


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--nt", type=int, default=4)
    ap.add_argument("--nr", type=int, default=4)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    schedule = geometric_schedule()
    failures = 0
    print(f"{'t':>6} {'r':>8} {'passed':>7} {'margin':>10} verdict")
    for t in np.linspace(0.2, 0.95, args.nt):
        for frac in np.linspace(0.0, 1.0, args.nr):
            r = frac * t * math.pi / 2
            model = make_representation(float(t), float(r))
            checks = run_suite(model, "all", rng, schedule)
            passed = sum(c["pass"] for c in checks)
            margin = np.max([c["residual"] / c["tolerance"] for c in checks])  # NaN shows
            ok = passed == len(checks) and abs(model_arg(model) - r) < 1e-12
            failures += 0 if ok else 1
            print(
                f"{t:6.3f} {r:8.4f} {passed:>3}/{len(checks):<3} {margin:10.2e} "
                f"{'ok' if ok else 'FAIL'}"
            )
    print(f"\n{failures} failing cells")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
