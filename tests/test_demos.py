"""Every demo script runs to completion from a scratch directory."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import anisoeit

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(os.path.dirname(anisoeit.__file__)),
         os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr[-2000:]
