import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *argv):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *argv], env=env, capture_output=True, text=True, check=True
    )
    return proc.stdout.splitlines()


def test_snr_sweep_header_splits_into_column_names():
    header, *rows = run_script("detector_snr_sweep.py", "--seed", "1", "--trials", "2", "--snrs", "5")
    assert header.split() == ["snr", "n", "fails", "within_1fr", "within_2fr", "median_ms", "p95_ms"]
    assert len(rows) == 1 and len(rows[0].split()) == 7
