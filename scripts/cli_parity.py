#!/usr/bin/env python3
"""Print one SHA-256 over the exit code, stdout and stderr of a fixed list
of CLI runs, so that two trees can be compared byte for byte.  Stderr gets
one `<sha256> <argv>` line per run, so that two trees' stderr can be
diffed to name the runs whose bytes differ.

The probes cover all seven subcommands: `model verify --suite all --seed 7`
at four strata, `gns-check`, `cartan-limit` as CSV and as JSON (one of them
with `--steps 208`, whose schedule ends at b = 1e207), `maps`, `combine`,
`model verify --suite kernel` at seeds 0-5, `model verify --suite relations`
at seeds 0-2, whose group-law pairs are drawn from the seed, `classify` on
one element of P and two of PsP, `model build` at r = 0.3 and at
r = -1e-20, which builds the r = 0 model, and `model verify --suite gram` at
seeds 0-2, whose orbit Grams are embedded by `reconstruct_embedding`, and
`cartan-limit --b-start 1e306 --steps 3`, whose last b = 1e308 is above
half the largest float and is refused (exit 2), and `cartan-limit --t 1e-17
--r 0`, where b^t rounds to 1 and every step reads the limit 0.  Each
runs in this process through `horocomb.cli.main`, with
HOROCOMB_TOLERANCE_SCALE removed from the environment.  Probes were added to
the end of the list over time, so the digest differs from one taken with a
shorter list.

Usage: PYTHONPATH=src python scripts/cli_parity.py
"""

import contextlib
import hashlib
import io
import math
import os
import sys

from horocomb.cli import main

STRATA = [("0.5", "0.3"), ("0.3", "0"), ("0.7", repr(0.35 * math.pi)), ("1", "0.9")]
MODEL = ["--t", "0.5", "--r", "0.3"]

PROBES = [
    *(["model", "verify", "--t", t, "--r", r, "--suite", "all", "--seed", "7"] for t, r in STRATA),
    ["gns-check", *MODEL],
    ["cartan-limit", *MODEL],
    ["cartan-limit", *MODEL, "--format", "json"],
    ["cartan-limit", *MODEL, "--format", "json", "--steps", "208"],
    ["maps", "--lam", "3/2", "--b", "1/3"],
    ["maps", "--alpha", "1,1/2", "--beta", "1/2,0", "--sample", "5"],
    ["combine", "--t", "0.5", "--r1", "0.2", "--r2", "0.4", "--u", "0.3"],
    *(["model", "verify", *MODEL, "--suite", "kernel", "--seed", str(s)] for s in range(6)),
    *(["model", "verify", *MODEL, "--suite", "relations", "--seed", str(s)] for s in range(3)),
    ["classify", "--lam", "3/2", "--b", "-1/3"],
    ["classify", "--alpha", "0,1", "--beta", "0,0"],
    ["classify", "--alpha", "1,1", "--beta", "1,0"],
    ["model", "build", *MODEL],
    ["model", "build", "--t", "0.5", "--r", "-1e-20"],
    *(["model", "verify", *MODEL, "--suite", "gram", "--seed", str(s)] for s in range(3)),
    ["cartan-limit", *MODEL, "--b-start", "1e306", "--steps", "3"],
    ["cartan-limit", "--t", "1e-17", "--r", "0"],
]


def run(argv: list[str]) -> bytes:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return "\0".join([" ".join(argv), str(code), out.getvalue(), err.getvalue()]).encode() + b"\0"


def main_() -> int:
    os.environ.pop("HOROCOMB_TOLERANCE_SCALE", None)
    digest = hashlib.sha256()
    for argv in PROBES:
        data = run(argv)
        digest.update(data)
        print(hashlib.sha256(data).hexdigest(), " ".join(argv), file=sys.stderr)
    print(digest.hexdigest())
    return 0


if __name__ == "__main__":
    raise SystemExit(main_())
