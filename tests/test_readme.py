"""The README's Python examples run as documented: each fenced ``python`` block is
executed on its own in an empty directory, with the source tree on the path, so an
example that imports a removed name or calls a changed signature fails here."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                    re.DOTALL | re.MULTILINE)


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_python_example_runs(code, tmp_path):
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, capture_output=True,
                          text=True, timeout=300,
                          env=os.environ | {"PYTHONPATH": str(ROOT / "src")})
    assert done.returncode == 0, done.stderr
