"""The mutant table stays replayable.

``scripts/mutants.py`` applies each entry of ``tests/mutants.json`` to a copy
of the tree and runs the entry's tests, which must fail.  A refactor that
moves or rewrites an anchor text has to carry its mutant along; this test
catches the anchors that it left behind.
"""

import json
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
