"""Config fuzz drawn from the key tables of ``asgdsim.cli``: no input ends in a traceback.

Every key of every block and kind in the tables (the kind tags and a key
outside the table included) is fuzzed in a config that is otherwise plain:
every required key at 2 (an int) or 1.0 (a float).  Each case sets its key
to every hostile value of the key's JSON kind in turn (the wrong type, a bool
for a number, huge and negative integers, floats at and past the ends of the
float range, NaN and Infinity literals), under kinds of the other blocks that
hypothesis draws.  Outside the stepsize block, the stepsize is the
theoretical one, the kind that reads the objective, the noise, the stop rule
and the policy at load.  ``cli.load_config`` must load the file or raise
``InvalidConfigError`` whose message starts with the ``config`` path.  A key
added to a table is fuzzed with no edit here.

Integers are small (-1 to 3) or at least 10^9, past every size bound, so a
size is never large and within its bound, and nothing large is allocated.
"""

import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asgdsim import cli
from asgdsim.errors import InvalidConfigError

# block -> (its kind tag, or None, and the key table of each kind)
BLOCKS = {
    "objective": ("family", cli.OBJECTIVES),
    "workers": ("time", cli.WORKER_KEYS),  # a list of worker groups
    "policy": ("kind", cli.POLICIES),
    "stop": (None, {None: cli.STOP_KEYS}),
    "stepsize": ("kind", cli.STEPSIZES),
    "tuning": (None, {None: cli.TUNING_KEYS}),
}
PLAIN = {int: 2, float: 1.0}

HUGE = [10**9, 2**63, 10**20, 10**400, -(10**400)]
WRONG_TYPE = [None, "1", [], {}, [1.0], {"x": 1}]
HOSTILE = {
    int: [-1, 0, 1, 2, 3, True, False, 2.0, math.nan] + HUGE + WRONG_TYPE,
    float: [0.0, -0.0, -1.0, 0.5, 1e154, 1e308, 1e-320, 5e-324, math.nan, math.inf,
            -math.inf, True] + HUGE + WRONG_TYPE,
    bool: [True, False, 0, 1, "true"] + WRONG_TYPE,
    str: ["", "scale", "drop", *cli.TUNING_CRITERIA, 1, True] + WRONG_TYPE,
    list: [[], [1.0], [1.0, 1.0], [1.0, math.nan], [0.1, 0.1], [1e308, 1e-320],
           [True, 2**63], [[1.0]], "[]", {}] + [None],
    dict: [{}, {"x": 1}, [], "x", 1.0, None],
}


def plain_block(table: dict) -> dict:
    return {key: PLAIN[kind] for key, (kind, default, _) in table.items()
            if default is cli.REQUIRED}


def plain_config(kinds: dict) -> dict:
    """Every block of the kind ``kinds[block]``, every required key at its plain value."""
    data = {}
    for block, (tag, tables) in BLOCKS.items():
        kind = kinds[block]
        spec = plain_block(tables[kind]) | ({tag: kind} if tag else {})
        data[block] = [spec] if block == "workers" else spec
    return data


def fuzzed_keys():
    """(block, kind, key) of every key of every table: block None for the config's own."""
    for key in cli.CONFIG_KEYS:
        yield None, None, key
    for block, (tag, tables) in BLOCKS.items():
        for kind, table in tables.items():
            for key in ([tag] if tag else []) + list(table) + ["not_a_key"]:
                yield block, kind, key


def hostile_values(block, kind, key) -> list:
    """What a fuzzed key is drawn from: the hostile values of its kind (an int's for a key
    outside the table), and the kind names for a kind tag."""
    if block is None:
        return HOSTILE[cli.CONFIG_KEYS[key][0]]
    tag, tables = BLOCKS[block]
    if key == tag:
        return HOSTILE[str] + list(tables)
    return HOSTILE[tables[kind].get(key, (int,))[0]]


KINDS = {block: st.sampled_from(list(tables)) for block, (_, tables) in BLOCKS.items()}


@pytest.fixture(scope="module")
def scratch():
    with tempfile.TemporaryDirectory(prefix="asgdsim-fuzz-") as tmp:
        yield Path(tmp) / "config.json"


# numpy warns when a value near the float range overflows while an objective is built or
# evaluated; the loader then refuses the objective, or the stepsize takes the overflow as inf
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("block,kind,key", list(fuzzed_keys()), ids=str)
@settings(max_examples=2, deadline=None, derandomize=True)
@given(data=st.data())
def test_every_key_loads_or_names_its_path(scratch, block, kind, key, data):
    kinds = {name: kind if name == block else "theoretical" if name == "stepsize"
             else data.draw(KINDS[name], name) for name in BLOCKS}
    escaped = []
    for value in hostile_values(block, kind, key):
        config = plain_config(kinds)
        if block is None:
            config[key] = value
        else:
            (config[block][0] if block == "workers" else config[block])[key] = value
        scratch.write_text(json.dumps(config))
        try:
            cli.load_config(str(scratch))
        except InvalidConfigError as exc:
            if not str(exc).startswith(("config.", "config:")):
                escaped.append((value, str(exc)))
        except Exception as exc:  # any other exception is the defect this test looks for
            escaped.append((value, repr(exc)))
    assert not escaped
