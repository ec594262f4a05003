import os
import subprocess
import sys
from pathlib import Path

import pytest

import rtkit

SRC = Path(__file__).resolve().parents[1] / "src"


def test_every_export_resolves():
    missing = [name for name in rtkit.__all__ if not hasattr(rtkit, name)]
    assert missing == []


def scipy_modules_after(code: str) -> list[str]:
    """The scipy modules a fresh interpreter holds after running ``code``."""
    probe = code + "\nimport sys\nprint(' '.join(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    return proc.stdout.split()


def test_import_loads_no_scipy():
    assert scipy_modules_after("import rtkit, rtkit.cli") == []


@pytest.mark.parametrize(
    "code",
    [
        "from rtkit.stats import two_sided_p\ntwo_sided_p(2.0, 10.0)",
        "from rtkit.synth import BurstSpec, NoiseSpec, gen_pose_stream\n"
        "gen_pose_stream(2000, 30.0, [500.0], [BurstSpec(100.0, 50.0, 4.0)], NoiseSpec(0.004), seed=1)",
    ],
    ids=["p-value", "burst-synthesis"],
)
def test_first_use_loads_scipy(code):
    assert "scipy.special" in scipy_modules_after(code)
