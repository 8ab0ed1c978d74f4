"""Each demo script, and the README's library snippet, runs to completion against the library in src/."""

import os
import pathlib
import re
import subprocess
import sys

import pytest

from barseg import features

DEMO_DIR = pathlib.Path(__file__).resolve().parent.parent / "demo"
README = DEMO_DIR.parent / "README.md"
SRC_DIR = os.path.dirname(os.path.dirname(features.__file__))


@pytest.mark.parametrize("script", sorted(p.name for p in DEMO_DIR.glob("*.py")))
def test_demo_exits_zero(script, tmp_path):
    env = {**os.environ, "PYTHONPATH": SRC_DIR}
    proc = subprocess.run(
        [sys.executable, str(DEMO_DIR / script)],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_readme_library_snippet_runs(tmp_path):
    section = README.read_text().split("\n## Library\n", 1)[1]
    snippet = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    env = {**os.environ, "PYTHONPATH": SRC_DIR}
    proc = subprocess.run(
        [sys.executable, "-c", snippet], cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
