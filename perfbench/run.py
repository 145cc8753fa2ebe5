"""horocomb benchmark: verdict latency and throughput end to end, and
per-layer self time and call counts from a traced run.

    python3 perfbench/run.py --workload verify_grid --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 45 --trace 0

Each run is one process and one closed-loop caller (the next op starts when
the previous one returns), with BLAS threads pinned to 1.  horocomb is
imported from ``src/`` of the checkout this file sits in, never from an
installed copy; without it the run exits with code 2 and prints no result.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` times the same
stream untraced, then replays the workload's fixed cycle of ops with every
public horocomb function wrapped, prints the per-layer metrics and the
predictions, and writes the spans to ``.perfbench/spans-<workload>.npz``.
The last stdout line is always one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_ENV:  # before numpy is imported, here or by horocomb
    os.environ[_var] = "1"

import argparse
import importlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from layers import Counters, layer_metrics, metric_units, predictions
from tracer import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("hypgeo", "su11", "kernelspace", "blockrep", "invariants", "combination", "verification", "cli")
SETUP_REPEATS = 5  # at least, and until the set-ups add up to SETUP_SECONDS
SETUP_SECONDS = 1.0
E2E_UNITS = {
    "setup_s": "s",
    "throughput_ops_s": "1/s",
    "op_s_p50": "s",
    "op_s_tail": "s",
    "cpu_s_per_op": "s",
    "peak_rss_mb": "MB",
}


class SourceMissing(RuntimeError):
    pass


def load_horocomb(root: Path = ROOT) -> SimpleNamespace:
    """Import horocomb afresh from ``root/src``."""
    for name in [m for m in sys.modules if m == "horocomb" or m.startswith("horocomb.")]:
        del sys.modules[name]
    src = root / "src"
    if not (src / "horocomb" / "__init__.py").is_file():
        raise SourceMissing(f"no horocomb sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    pkg = importlib.import_module("horocomb")
    if not Path(pkg.__file__).resolve().is_relative_to(src.resolve()):
        raise SourceMissing(f"horocomb imported from {pkg.__file__}, not from {src}")
    return SimpleNamespace(**{m: importlib.import_module(f"horocomb.{m}") for m in MODULES})


def run_op(wl, hc, state, i, inp, tracer=None) -> dict:
    """Op ``i`` on its inputs ``inp``, drawn before the clock starts; the gate
    runs after it stops.  A raised exception fails the op."""
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        if tracer is None:
            out = wl.op(hc, state, inp)
        else:
            tracer.begin_op(i, inp["label"])
            out = tracer.span("op", wl.op, hc, state, inp)
        problems = None
    except Exception as exc:  # the op boundary: any error is a failed op
        problems = [f"raised {type(exc).__name__}: {exc}"]
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    if problems is None:
        problems = wl.gate(out, inp)
    return {"label": inp["label"], "wall": wall, "cpu": cpu,
            "problems": problems, "valid_input": inp.get("expected_code", 0) == 0}


def setup(wl, seed: int):
    """Import, prepare the seeded inputs and models, run one warm-up op; at
    least SETUP_REPEATS times and for SETUP_SECONDS, returning the last
    namespace and every set-up's time.  The warm-up op's inputs come from
    seed 0, so that its cost is the same at every seed."""
    times: list[float] = []
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_SECONDS:
        t0 = time.perf_counter()
        hc = load_horocomb()
        state = wl.prepare(hc, seed)
        run_op(wl, hc, state, 0, wl.inputs(hc, {**state, "seed": 0}, 0))
        times.append(time.perf_counter() - t0)
    return hc, state, times


def timed_ops(wl, hc, state, seconds: float) -> list[list[dict]]:
    """Closed loop in passes over slots ``0 .. wl.slots-1`` until the ops'
    wall time adds up to ``seconds``; every pass draws fresh inputs of the
    same kind for each slot.  Returns each slot's ops.

    The per-op metrics use each slot's fastest op: on a shared two-core VM
    the CPU speed swings by 1.1-2x over seconds (a fixed 0.25 ms loop, in
    250 ms windows), and CPU time swings with it, so one op's time mostly
    measures its neighbours."""
    slots: list[list[dict]] = [[] for _ in range(wl.slots)]
    busy, rep = 0.0, 0
    while busy < seconds:
        for i, ops in enumerate(slots):
            ops.append(run_op(wl, hc, state, i, wl.inputs(hc, state, i, rep)))
            busy += ops[-1]["wall"]
        rep += 1
    return slots


def fastest(slot: list[dict]) -> dict:
    return min(slot, key=lambda r: r["wall"])


def traced_cycle(wl, hc, state, n_ops: int):
    """Ops ``0 .. n_ops-1`` with every public function of ``hc`` wrapped.
    Their inputs are drawn first, so that every span lies inside an op."""
    inputs = [wl.inputs(hc, state, i) for i in range(n_ops)]
    tracer = Tracer()
    counters = Counters(tracer)
    tracer.install(vars(hc))
    records = [run_op(wl, hc, state, i, inp, tracer) for i, inp in enumerate(inputs)]
    return tracer, counters, records


def tail(walls: list[float]) -> tuple[float, float, int]:
    """(value, percentile, ops beyond): the highest percentile with at least
    ten ops beyond it; the maximum when there are fewer than eleven ops."""
    s = sorted(walls)
    if len(s) < 11:
        return s[-1], 100.0, 0
    k = len(s) - 11
    return s[k], 100.0 * (k + 1) / len(s), len(s) - k - 1


def e2e_metrics(slots: list[list[dict]], setup_times: list[float]) -> tuple[dict, dict]:
    best = [fastest(slot) for slot in slots]
    walls = [r["wall"] for r in best]
    value, pct, beyond = tail(walls)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "throughput_ops_s": len(walls) / sum(walls),
        "op_s_p50": statistics.median(walls),
        "op_s_tail": value,
        "cpu_s_per_op": sum(r["cpu"] for r in best) / len(best),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, {"tail_percentile": pct, "tail_ops_beyond": beyond, "slots": len(slots)}


def git_sha(root: Path = ROOT) -> str | None:
    """HEAD of the checkout, read from ``.git`` without leaving it."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(args, n_ops: int) -> dict:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": {v: os.environ[v] for v in BLAS_ENV},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": n_ops,
    }


def report_failures(records: list[dict]) -> None:
    kinds = Counter((r["label"], r["problems"][0][:120]) for r in records if r["problems"])
    for (label, problem), n in sorted(kinds.items()):
        print(f"failed {n} x {label}: {problem}")


def run_workload(args) -> int:
    wl = WORKLOADS[args.workload]
    try:
        hc, state, setup_times = setup(wl, args.seed)
    except SourceMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    slots = timed_ops(wl, hc, state, args.seconds)
    records = [r for slot in slots for r in slot]
    failed = sum(1 for r in records if r["problems"])
    if args.trace:
        # the same inputs as the traced cycle, from the first pass
        untraced = wl.cycle / sum(slots[i][0]["wall"] for i in range(wl.cycle))
        tracer, counters, traced = traced_cycle(wl, hc, state, wl.cycle)
        overhead = {"untraced": untraced, "traced": len(traced) / sum(r["wall"] for r in traced)}
        metrics = layer_metrics(tracer, counters, len(traced), overhead)
        units = metric_units()
        for name, held, evidence in predictions(tracer, wl.name):
            print(f"prediction {'held' if held else 'FAILED'}: {name} ({evidence})")
        for name, v in metrics.items():
            print(f"layer {name} {v!r} {units[name]}")
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        tracer.save(out_dir / f"spans-{wl.name}.npz")
        records += traced
        failed += sum(1 for r in traced if r["problems"])
    else:
        metrics, extra = e2e_metrics(slots, setup_times)
        units = E2E_UNITS
        print(f"metric setup_s {metrics['setup_s']!r} s (median of {len(setup_times)} set-ups)")
        for name in ("throughput_ops_s", "op_s_p50", "cpu_s_per_op", "peak_rss_mb"):
            print(f"metric {name} {metrics[name]!r} {units[name]}")
        print(f"metric op_s_tail {metrics['op_s_tail']!r} s (p{extra['tail_percentile']:.1f}, "
              f"{extra['tail_ops_beyond']} ops beyond, {extra['slots']} slots)")
        print(f"metric failed_ratio {failed / len(records)!r} ratio ({failed} of {len(records)} ops)")
    report_failures(records)
    print("provenance " + json.dumps(provenance(args, len(records)), sort_keys=True))
    result = {
        "correct": not any(r["problems"] for r in records if r["valid_input"]),
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def run_all(args) -> int:
    """Every workload in turn, each in its own process so that peak RSS and
    the import in set-up belong to that workload alone."""
    code = 0
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        code = max(code, subprocess.run(argv, check=False).returncode)
    return code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
