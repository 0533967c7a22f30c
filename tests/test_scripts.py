"""Smoke runs of the experiment scripts, so API changes cannot break them
unnoticed."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import chaincast as cc

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    src = str(Path(cc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          env=env, capture_output=True, text=True, timeout=120)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_power_law_convergence(tmp_path):
    out = tmp_path / "deviations.csv"
    proc = run_script("power_law_convergence.py", "--s", "1", "--sites", "12",
                      "--residual-orders", "2", "--csv", str(out))
    assert proc.returncode == 0, proc.stderr
    rows = read_rows(out)
    assert rows[0] == ["s", "n", "alpha", "beta", "alpha_deviation"]
    assert len(rows) == 1 + 12


def test_residual_profiles(tmp_path):
    out = tmp_path / "profiles.csv"
    proc = run_script("residual_profiles.py", "--q", "1", "--orders", "2",
                      "--points", "21", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    rows = read_rows(out)
    assert rows[0] == ["omega", "J0", "J1", "J2"]
    assert len(rows) == 1 + 21
