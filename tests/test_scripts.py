import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "name, line",
    [
        # the only script that averages the fixed-length Jaccard sequence
        ("worked_examples.py", "fixed-length Cesaro = 0.500000  [per-residue]"),
        ("entropy_convergence.py", "(a|b)*    1.0000  1.0400"),
    ],
)
def test_script_runs(name, line):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    command = [sys.executable, str(ROOT / "scripts" / name)]
    done = subprocess.run(command, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert line in done.stdout
