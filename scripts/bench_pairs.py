#!/usr/bin/env python3
"""Paired parent/change runs of the benchmark, summarised per metric.

For each workload, runs ``perfbench/run.py --workload W --seed S --seconds
T`` from each of two checkouts, N times each, alternating which side runs
first (the parent in even pairs, the change in odd ones); T is the
``run_seconds`` of the change's BENCHMARK.json.  Writes one JSON file with
every run's provenance and last-line result and, for each end-to-end metric
declared there, both sides' values, median and quartiles and the number of
pairs the change won.  Each run's wall time, harness work outside the timed
window included, goes to stderr as it ends and into the report as ``wall_s``,
summarised per side like a metric.

Both checkouts must be git checkouts whose tracked files equal their HEAD;
the report names each by its commit and by the git tree id of its ``src/``,
which a later commit with the same sources shares
(``git rev-parse <commit>:src``).

Usage:
    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workload orbit_gram --workload cli_mix --seed 5 --pairs 10 \\
        --out BENCH_6.json

Standard library only, so it runs with any interpreter that can run the
benchmark itself.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("parent", "change")


def checkout_identity(root: Path) -> dict:
    """HEAD of a clean git checkout and the tree id of its src/; exits
    when the checkout has no HEAD or its tracked files differ from it."""
    def git(*args):
        proc = subprocess.run(["git", "-C", str(root), *args], capture_output=True, text=True)
        if proc.returncode != 0:
            raise SystemExit(f"{root}: git {' '.join(args)} failed: {proc.stderr.strip()}")
        return proc.stdout.strip()

    if git("status", "--porcelain", "--untracked-files=no"):
        raise SystemExit(f"{root}: tracked files differ from HEAD; commit them before measuring")
    return {"sha": git("rev-parse", "HEAD"), "src_tree": git("rev-parse", "HEAD:src")}


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run; its provenance line and last-line JSON result."""
    cmd = [sys.executable, str(root / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    provenance = next(
        (json.loads(line[len("provenance "):]) for line in lines if line.startswith("provenance ")), None
    )
    return {"wall_s": wall, "provenance": provenance, "result": json.loads(lines[-1])}


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"values": values, "q1": q1, "median": median, "q3": q3}


def paired_runs(roots: dict, workload: str, seed: int, seconds: float, pairs: int) -> list[dict]:
    runs = []
    for i in range(pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {"pair": i, "first": order[0]}
        for side in order:
            pair[side] = run_once(roots[side], workload, seed, seconds)
            metrics = pair[side]["result"]["metrics"]
            print(f"{workload} pair {i} {side}: throughput_ops_s "
                  f"{metrics['throughput_ops_s']['value']:.4g}, wall {pair[side]['wall_s']:.1f} s",
                  file=sys.stderr, flush=True)
        runs.append(pair)
    return runs


def compare(runs: list[dict], declared: list[dict]) -> dict:
    """Per end-to-end metric: both sides' values and quartiles, and the
    number of pairs in which the change was strictly better."""
    summary = {}
    for metric in declared:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        values = {s: [r[s]["result"]["metrics"][name]["value"] for r in runs] for s in SIDES}
        summary[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            **{s: summarise(values[s]) for s in SIDES},
            "change_wins": sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"])),
        }
    return summary


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, required=True, help="checkout of the change")
    ap.add_argument("--workload", action="append", required=True, help="repeat for several")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    if args.pairs < 2:
        ap.error("--pairs must be at least 2 for quartiles")
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    declared = json.loads((roots["change"] / "BENCHMARK.json").read_text())
    seconds = declared["run_seconds"]
    identity = {s: checkout_identity(roots[s]) for s in SIDES}

    workloads = {}
    for workload in args.workload:
        runs = paired_runs(roots, workload, args.seed, seconds, args.pairs)
        workloads[workload] = {
            "failed_ops": {s: sum(r[s]["result"]["failed"] for r in runs) for s in SIDES},
            "metrics": compare(runs, declared["end_to_end"]),
            "wall_s": {s: summarise([r[s]["wall_s"] for r in runs]) for s in SIDES},
            "runs": runs,
        }
        wall = workloads[workload]["wall_s"]
        print(f"{workload} wall_s: " + ", ".join(
            f"{s} {wall[s]['median']:.1f} [{wall[s]['q1']:.1f}-{wall[s]['q3']:.1f}]" for s in SIDES))
        for name, m in workloads[workload]["metrics"].items():
            print(f"{workload} {name}: parent {m['parent']['median']:.4g} "
                  f"[{m['parent']['q1']:.4g}-{m['parent']['q3']:.4g}] "
                  f"change {m['change']['median']:.4g} [{m['change']['q1']:.4g}-{m['change']['q3']:.4g}] "
                  f"(change wins {m['change_wins']} of {args.pairs})")

    report = {
        "command": f"perfbench/run.py --workload W --seed {args.seed} --seconds {seconds:g}",
        "pairs": args.pairs,
        "order": "parent first in even pairs, change first in odd pairs",
        "machine": {"python": platform.python_version(), "platform": platform.platform(),
                    "processor": platform.processor() or platform.machine()},
        **identity,
        "workloads": workloads,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0

if __name__ == "__main__":
    sys.exit(main())
