"""Smoke tests: the scripts in scripts/ run against the package API."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
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


def test_run_grid_passes_one_cell():
    proc = run_script("run_grid.py", "--nt", "1", "--nr", "1")
    assert proc.returncode == 0, proc.stderr
    assert "0 failing cells" in proc.stdout
