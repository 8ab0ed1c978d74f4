"""Each demo script runs to completion against the library in src/."""

import os
import pathlib
import subprocess
import sys

import pytest

from barseg import features

DEMO_DIR = pathlib.Path(__file__).resolve().parent.parent / "demo"
SRC_DIR = os.path.dirname(os.path.dirname(features.__file__))


@pytest.mark.parametrize("script", sorted(p.name for p in DEMO_DIR.glob("*.py")))
def test_demo_exits_zero(script, tmp_path):
    env = {**os.environ, "PYTHONPATH": SRC_DIR}
    proc = subprocess.run(
        [sys.executable, str(DEMO_DIR / script)],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
