"""The mutant table stays replayable.

``scripts/mutants.py`` applies each entry of ``tests/mutants.json`` to a copy
of the tree and runs the entry's tests, which must fail.  A refactor that
moves or rewrites an anchor text has to carry its mutant along; these tests
catch the anchors that it left behind and the tests that it renamed, and
replay one cheap mutant so that the runner itself keeps working.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TABLE = json.loads((ROOT / "tests" / "mutants.json").read_text())


def test_mutant_ids_are_unique():
    ids = [mutant["id"] for mutant in TABLE]
    assert len(ids) == len(set(ids))


@pytest.mark.parametrize("mutant", TABLE, ids=[mutant["id"] for mutant in TABLE])
def test_every_anchor_occurs_exactly_once(mutant):
    text = (ROOT / mutant["file"]).read_text()
    assert text.count(mutant["old"]) == 1
    assert mutant["new"] != mutant["old"]
    assert mutant["tests"]
    for test in mutant["tests"]:
        assert (ROOT / test.split("::")[0]).is_file(), test


def test_every_named_test_exists():
    # pytest exits 4 when it cannot find a node id, and 0 when it collects them all
    ids = sorted({test for mutant in TABLE for test in mutant["tests"]})
    done = subprocess.run([sys.executable, "-m", "pytest", "--collect-only", "-q",
                           "-p", "no:cacheprovider", *ids],
                          cwd=ROOT, capture_output=True, text=True, timeout=600,
                          env=os.environ | {"PYTHONPATH": str(ROOT / "src")})
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]


def run_script(*ids):
    return subprocess.run([sys.executable, str(ROOT / "scripts" / "mutants.py"), *ids],
                          capture_output=True, text=True, timeout=600)


def test_the_runner_kills_one_cheap_mutant():
    done = run_script("tie-key-negated")
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1] == "1/1 mutants killed"


def test_the_runner_refuses_an_unknown_mutant():
    done = run_script("no-such-mutant")
    assert done.returncode != 0
    assert "unknown mutant ids" in done.stderr
