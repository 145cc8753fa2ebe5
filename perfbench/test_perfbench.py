"""Tests of the benchmark itself: the output gates reject doctored outputs,
traced call counts repeat at a fixed seed, and BENCHMARK.json names exactly
the metrics the runs print.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
from layers import layer_metrics, metric_units
from workloads import WORKLOADS, suite_ceilings

ROOT = Path(__file__).resolve().parent.parent


def suite_output(t: float) -> list[dict]:
    return [
        {"name": name, "residual": tol / 10, "tolerance": tol, "pass": True}
        for name, tol in suite_ceilings(t).items()
    ]


def test_verify_gate_accepts_honest_output():
    assert WORKLOADS["verify_grid"].gate(suite_output(0.5), {"t": 0.5}) == []


def test_verify_gate_rejects_missing_check_name():
    checks = [c for c in suite_output(0.5) if c["name"] != "relation_w_squared"]
    problems = WORKLOADS["verify_grid"].gate(checks, {"t": 0.5})
    assert any("relation_w_squared" in p for p in problems)


def test_verify_gate_recomputes_the_verdict():
    checks = suite_output(0.5)
    checks[0]["residual"] = checks[0]["tolerance"] * 2  # "pass" stays True
    problems = WORKLOADS["verify_grid"].gate(checks, {"t": 0.5})
    assert any("above tolerance" in p for p in problems)


def test_verify_gate_rejects_loosened_tolerance():
    checks = suite_output(0.5)
    checks[0]["tolerance"] *= 10
    problems = WORKLOADS["verify_grid"].gate(checks, {"t": 0.5})
    assert any("above ceiling" in p for p in problems)


def test_verify_gate_rejects_non_finite_residual():
    checks = suite_output(0.5)
    checks[0]["residual"] = float("nan")
    assert WORKLOADS["verify_grid"].gate(checks, {"t": 0.5})


@pytest.fixture(scope="module")
def hc():
    return run.load_horocomb()


def orbit_case(hc, n: int = 12):
    wl = WORKLOADS["orbit_gram"]
    state = wl.prepare(hc, 3)
    inp = wl.inputs(hc, state, 0)
    inp = {**inp, "n": n, "elements": inp["elements"][:n]}
    return wl, inp, wl.op(hc, state, inp)


def test_orbit_gate_accepts_real_output(hc):
    wl, inp, out = orbit_case(hc)
    assert wl.gate(out, inp) == []


def test_orbit_gate_rejects_two_positive_eigenvalues(hc):
    wl, inp, out = orbit_case(hc)
    eigs, vecs = np.linalg.eigh(out["gram"])
    v = vecs[:, 0]  # most negative direction, flipped to positive
    doctored = out["gram"] + 2 * abs(eigs[0]) * np.outer(v, v.conj())
    problems = wl.gate({**out, "gram": doctored}, inp)
    assert any("2 positive eigenvalues" in p for p in problems)


def test_orbit_gate_rejects_broken_embedding(hc):
    wl, inp, out = orbit_case(hc)
    points = [p * 1.001 for p in out["points"]]
    problems = wl.gate({**out, "points": points}, inp)
    assert any("embedding round trip" in p for p in problems)


def test_cli_gate_checks_exit_code():
    wl = WORKLOADS["cli_mix"]
    assert wl.gate((0, "{}"), {"argv": ["gns-check"], "expected_code": 2})
    assert wl.gate((2, ""), {"argv": ["model", "build"], "expected_code": 0})
    assert wl.gate((2, ""), {"argv": ["gns-check"], "expected_code": 2}) == []


def test_cli_gate_rejects_unparsable_or_failing_output():
    wl = WORKLOADS["cli_mix"]
    inp = {"argv": ["combine", "--t", "0.5"], "expected_code": 0}
    assert wl.gate((0, "not json"), inp)
    bad = {"checks": [{"name": "combination_affine_arg", "residual": 1.0, "tolerance": 1e-12, "pass": True}]}
    assert wl.gate((0, json.dumps(bad)), inp)
    assert wl.gate((0, "b,cartan\n"), {"argv": ["cartan-limit"], "expected_code": 0})


def test_cli_cycle_valid_ops_pass_the_gate(hc):
    wl = WORKLOADS["cli_mix"]
    state = wl.prepare(hc, 5)
    for i in range(wl.cycle):
        inp = wl.inputs(hc, state, i)
        if inp["expected_code"] == 0:
            assert wl.gate(wl.op(hc, state, inp), inp) == [], inp["argv"]


def test_inputs_repeat_at_a_seed(hc):
    for wl in WORKLOADS.values():
        a = wl.inputs(hc, wl.prepare(hc, 7), 5)
        b = wl.inputs(hc, wl.prepare(hc, 7), 5)
        keys = [k for k in a if k not in ("rng", "elements")]
        assert [a[k] for k in keys] == [b[k] for k in keys]


# workload -> ops replayed; verify_grid is cut to one op to keep this quick
TRACED_OPS = {"verify_grid": 1, "orbit_gram": 2, "cli_mix": WORKLOADS["cli_mix"].cycle}


def traced_counts(name: str) -> dict:
    wl = WORKLOADS[name]
    hc = run.load_horocomb()
    state = wl.prepare(hc, 11)
    tracer, counters, records = run.traced_cycle(wl, hc, state, TRACED_OPS[name])
    metrics = layer_metrics(tracer, counters, len(records), {"untraced": 1.0, "traced": 1.0})
    units = metric_units()
    counts = {k: v for k, v in metrics.items() if units[k] in ("count/op", "count")}
    counts["kernelspace.c_pair.distinct_ratio"] = metrics["kernelspace.c_pair.distinct_ratio"]
    return counts


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_repeat_at_a_seed(name):
    first, second = traced_counts(name), traced_counts(name)
    assert first == second
    assert first["trace.spans_per_op"] > 0


def test_benchmark_json_names_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metric_units()
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS) - {"verify_grid"}


def test_tail_leaves_ten_ops_beyond():
    walls = [float(i) for i in range(40)]
    value, pct, beyond = run.tail(walls)
    assert (value, beyond) == (29.0, 10)
    assert pct == pytest.approx(75.0)
    assert run.tail([1.0, 2.0]) == (2.0, 100.0, 0)


def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli_mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
