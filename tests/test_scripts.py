"""The ready-made drivers in ``scripts/`` run and write the files they document."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# each script, and the files it documents under the working directory
OUTPUTS = {
    "run_scaling.py": [f"results/scaling/{preset}/scaling.{ext}"
                       for preset in ("quadratic", "logistic")
                       for ext in ("json", "csv", "svg")],
    "compare_straggler.py": [f"results/straggler_compare/{name}"
                             for name in ("comparison.json", "curves.csv", "compare.svg")],
    "speedup_example.py": ["results/speedup_table.csv"],
}


@pytest.mark.parametrize("script", sorted(OUTPUTS))
def test_script_runs_and_writes_its_outputs(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / script)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    for name in OUTPUTS[script]:
        assert (tmp_path / name).is_file(), name
