"""Smoke tests: the scripts under scripts/ run to completion."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=300)


def test_sweep_graphs():
    r = run_script("sweep_graphs.py", "--vertices", "3", "--bound", "4")
    assert r.returncode == 0, r.stderr
    assert "0 mismatches" in r.stdout


def test_run_models():
    r = run_script("run_models.py", "--bound", "3")
    assert r.returncode == 0, r.stderr
