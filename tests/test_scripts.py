"""Smoke tests: the scripts in scripts/ run against the package API."""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str, *args: str, **extra_env: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **extra_env)
    env.pop("HOROCOMB_TOLERANCE_SCALE", None)
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_cartan_limit_sweep_writes_csv():
    proc = run_script("cartan_limit_sweep.py", "--steps", "3")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "b,finite,model_r=0.1,model_r=0.2,model_r=0.3"
    assert len(lines) == 4


@pytest.mark.parametrize("args", [["--steps", "400"], ["--b-ratio", "1"], ["--t", "1.5"]])
def test_cartan_limit_sweep_refuses_bad_parameters_in_one_line(args):
    proc = run_script("cartan_limit_sweep.py", *args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert "error" in json.loads(proc.stderr)


def test_run_grid_passes_one_cell():
    proc = run_script("run_grid.py", "--nt", "1", "--nr", "1")
    assert proc.returncode == 0, proc.stderr
    assert "0 failing cells" in proc.stdout


def test_cli_parity_prints_one_digest_that_two_runs_share():
    # two processes at once: the digest must not depend on the process (its hash seed)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    runs = [
        subprocess.Popen([sys.executable, str(ROOT / "scripts" / "cli_parity.py")], env=env,
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for _ in range(2)
    ]
    outs = [proc.communicate(timeout=120) for proc in runs]
    assert [proc.returncode for proc in runs] == [0, 0], [err for _, err in outs]
    (first, first_err), (second, second_err) = outs
    assert first == second and re.fullmatch(r"[0-9a-f]{64}\n", first)
    # one "<sha256> <argv>" line per probe, the same in both processes
    lines = first_err.splitlines()
    assert first_err == second_err and len(lines) == 30
    assert all(re.fullmatch(r"[0-9a-f]{64} [a-z].*", line) for line in lines)


def bench_pairs_args(parent: Path, change: Path, out: Path, pairs: str) -> list[str]:
    return ["--parent", str(parent), "--change", str(change), "--workload", "cli_mix",
            "--seed", "1", "--pairs", pairs, "--out", str(out)]


def test_bench_pairs_refuses_one_pair(tmp_path):
    out = tmp_path / "bench.json"
    proc = run_script("bench_pairs.py", *bench_pairs_args(ROOT, ROOT, out, "1"))
    assert proc.returncode == 2
    assert "--pairs must be at least 2" in proc.stderr
    assert not out.exists()


def test_bench_pairs_refuses_a_parent_that_is_not_a_git_checkout(tmp_path):
    parent, change, out = tmp_path / "parent", tmp_path / "change", tmp_path / "bench.json"
    parent.mkdir()
    change.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", change)
    # git must not find a repository above tmp_path either
    proc = run_script(
        "bench_pairs.py", *bench_pairs_args(parent, change, out, "2"),
        GIT_CEILING_DIRECTORIES=str(tmp_path),
    )
    assert proc.returncode == 1
    assert f"{parent}: git status --porcelain --untracked-files=no failed" in proc.stderr
    assert "pair 0" not in proc.stderr and not out.exists()
