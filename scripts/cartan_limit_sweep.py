#!/usr/bin/env python3
"""Emit the angle sequences behind the invariant-recovery limit as CSV.

Columns: b, finite-dimensional angle (tends to -pi/2), model angle for each
requested r (tends to -r), so the slopes s = angle_model/angle_finite are
plottable directly.

A parameter or schedule that the models refuse exits 2 with one JSON line
{"error": ...} on stderr, as the horocomb CLI does.

Usage: python scripts/cartan_limit_sweep.py --t 0.5 --r 0.1 --r 0.3 > sweep.csv
"""

import argparse
import json
import sys

from horocomb.combination import make_representation
from horocomb.errors import ParameterError, ValidationError
from horocomb.invariants import finite_cartan_at, geometric_schedule, model_cartan_at


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--t", type=float, default=0.5)
    ap.add_argument("--r", type=float, action="append", default=None)
    ap.add_argument("--b-start", type=float, default=1.0)
    ap.add_argument("--b-ratio", type=float, default=10.0)
    ap.add_argument("--steps", type=int, default=9)
    args = ap.parse_args()
    rs = args.r if args.r else [0.1, 0.2, 0.3]

    try:
        models = [make_representation(args.t, r) for r in rs]
        schedule = geometric_schedule(args.b_start, args.b_ratio, args.steps)
    except (ParameterError, ValidationError) as exc:
        sys.stderr.write(json.dumps({"error": str(exc)}) + "\n")
        return 2
    header = "b,finite," + ",".join(f"model_r={r!r}" for r in rs)
    sys.stdout.write(header + "\n")
    for b in schedule:
        row = [repr(float(b)), repr(finite_cartan_at(float(b)))]
        row += [repr(model_cartan_at(m, b)) for m in models]
        sys.stdout.write(",".join(row) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
