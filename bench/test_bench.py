"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest bench
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
import layers  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _command(problems=(), traced=False, layer=None, wall=1.0):
    usage = run.Usage(0, wall, wall, 10.0, "")
    return run.Command(traced, usage, list(problems), dict(layer or {}))


@pytest.fixture(scope="module")
def traced_record():
    try:
        yield run.measure("straggler-sweep", 1, 1.0, trace=True)
    finally:
        shutil.rmtree(run.WORK, ignore_errors=True)


def test_flipped_byte_in_one_output_is_a_failed_command(tmp_path):
    (tmp_path / "trace.csv").write_text("t,grad_norm\n0,1.25\n1,0.5\n")
    (tmp_path / "metrics.json").write_text(json.dumps({"delay_conservation": {"pass": True}}))
    reference = run.digest_outputs(tmp_path)
    assert run.judge(0, tmp_path, reference, reference) == []

    data = bytearray((tmp_path / "trace.csv").read_bytes())
    data[-3] ^= 0x01
    (tmp_path / "trace.csv").write_bytes(bytes(data))
    problems = run.judge(0, tmp_path, run.digest_outputs(tmp_path), reference)
    assert len(problems) == 1 and problems[0].startswith("trace.csv:")

    record = {"commands": [_command(), _command(problems)], "setup_times": [0.5]}
    result = run.result_line(record, trace=False)
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 2, 1)


def test_failed_self_check_and_exit_code_fail_the_command(tmp_path):
    (tmp_path / "metrics.json").write_text(json.dumps({"delay_conservation": {"pass": False}}))
    (tmp_path / "verify.json").write_text(json.dumps({"all_passed": False}))
    (tmp_path / "tuning.json").write_text("{truncated")
    problems = run.judge(2, tmp_path, run.digest_outputs(tmp_path), None)
    assert len(problems) == 4
    assert problems[0] == "exit code 2"


def test_count_mismatch_between_traced_commands_is_a_failure():
    counts = {key: 7 for key in layers.EXACT_COUNTS}
    first = _command(traced=True, layer=counts)
    second = _command(traced=True, layer=counts | {"engine.events": 8})
    run.check_exact_counts([first, _command(), second])
    assert not first.problems
    assert second.problems == ["engine.events = 8, first traced command had 7"]


def test_end_to_end_metrics_are_printed_with_name_and_unit():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "straggler-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    for name in result["metrics"]:
        assert f"  {name} = " in proc.stdout


def test_per_layer_metrics_are_printed_with_name_and_unit(traced_record):
    result = run.result_line(traced_record, trace=True)
    assert result["correct"], [c.problems for c in traced_record["commands"]]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def test_no_layer_self_time_exceeds_wall_time(traced_record):
    wall = statistics.median(c.usage.wall_s for c in traced_record["commands"] if not c.traced)
    for command in traced_record["commands"]:
        if not command.traced:
            continue
        selves = {layer: command.layer[f"{layer}.self_s"] for layer in layers.LAYERS}
        assert all(0.0 <= s <= wall for s in selves.values()), (selves, wall)
        assert sum(selves.values()) <= command.usage.wall_s


def test_delegating_objective_counts_one_gradient_per_event(tmp_path):
    config = run.fleet_config(3)
    config["workers"] = [{"time": "constant", "delta": 10.0, "count": 9},
                         {"time": "constant", "delta": 60.0}]
    config["objective"]["n_clients"] = 10
    config["policy"]["concurrency"] = 4
    config["stop"]["max_iterations"] = 200
    path = tmp_path / "fleet.json"
    path.write_text(json.dumps(config))
    trace = tmp_path / "trace.json"
    subprocess.run(
        [sys.executable, str(BENCH / "layers.py"), str(trace), "simulate", str(path),
         "--out", str(tmp_path / "out")],
        env=run.child_env(), check=True, capture_output=True, timeout=120)
    metrics = layers.layer_metrics(json.loads(trace.read_text()))
    assert metrics["engine.events"] == 200
    assert metrics["objectives.vg_calls"] == metrics["engine.events"] + metrics["engine.runs"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify-fuzz", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
