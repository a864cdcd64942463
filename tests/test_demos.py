"""Smoke test of the guided tour: each quick demo runs to completion.

Demo 03 is left out: it runs the desk experiment (gstgec.desk), about
a minute of training, and acceptance gates 6 and 7 run that same
experiment.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", ["01_alignment.py", "02_sampling.py",
                                  "04_evaluation.py"])
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    result = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                            env=env, capture_output=True, text=True,
                            timeout=120)
    assert result.returncode == 0, result.stderr
