"""Smoke test of the scripts in demos/: each runs to exit code 0 and prints its verdict.

Every script runs in its own interpreter, as ``python3 demos/NAME.py``
would, with the package sources on ``PYTHONPATH``.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_demo(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_flip_walkthrough():
    assert "\ncompatible: True\n" in run_demo("flip_walkthrough.py")


def test_dimension_growth():
    out = run_demo("dimension_growth.py")
    assert "certified through length" in out
    assert "NOT CERTIFIED" not in out


def test_absorb_powers():
    out = run_demo("absorb_powers.py")
    assert "phi(S + V) = S up to cyclic equivalence: True" in out


def test_every_demo_is_covered():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == [
        "absorb_powers.py", "dimension_growth.py", "flip_walkthrough.py"
    ]
