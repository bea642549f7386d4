"""Benchmark of the asgdsim command line: four fixed workloads, closed loop.

    python3 bench/run.py --workload straggler-sweep --seed 1 --seconds 25 --trace 0

It imports the program from ``src/`` next to this directory.  One client
issues one CLI command at a time, each in a fresh interpreter with BLAS and
OpenMP pinned to one thread, until ``--seconds`` have passed; the run's
first input is repeated at least once.  Every command's output files are
hashed: at the default seed they must match ``bench/digests.json``, and
otherwise each input's repeats must match its first command.  The program's
own checks (``delay_conservation.pass``, ``all_passed``) must hold too.

``--trace 0`` prints the end-to-end metrics (medians over the run's timed
commands); ``--trace 1`` alternates traced and untraced commands and prints
the per-layer metrics of ``bench/layers.py``.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--pin`` rewrites the pinned digests from one command at the
default seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DIGESTS = BENCH / "digests.json"

sys.path.insert(0, str(BENCH))
import layers  # noqa: E402

DEFAULT_SEED = 0
SETUPS = (5, 40)  # fresh-interpreter set-ups per run, at least and at most
SETUP_SECONDS = 2.0  # cheap set-ups repeat until this much time is spent
INPUT_STRIDE = 1_000_003  # input seeds of one run: seed, seed + stride, ...
MIN_TRACED_COMMANDS = 3  # traced, untraced, traced: counts are compared
DEADLINE_S = 170.0  # a run must end within 180 s whatever the program does
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
)

SLOW_FACTORS = "1,2,4,8,16,32,64,128,256"


def tune_config(seed: int) -> dict:
    """dim-1000 quadratic, 7 constant workers and one 10x straggler, 10 grid points."""
    return {
        "seed": seed,
        "objective": {"family": "quadratic", "dim": 1000,
                      "lambda_min": 1.0, "lambda_max": 2.0},
        "workers": [
            {"time": "constant", "delta": 1.0, "count": 7},
            {"time": "straggler", "delta": 1.0, "slow_factor": 10.0, "straggle_prob": 0.1},
        ],
        "policy": {"kind": "max_concurrency"},
        "stop": {"max_iterations": 2000, "grad_tol": 1e-3},
        "noise_sigma": 0.0,
        "stepsize": {"kind": "constant", "eta": 0.01},
        "tuning": {"low": 1e-3, "high": 1.0, "points_per_decade": 3},
    }


def fleet_config(seed: int) -> dict:
    """1,000 clients at dim 10 (900 with delta 10, 100 with delta 60), 5e4 events."""
    return {
        "seed": seed,
        "objective": {"family": "heterogeneous", "dim": 10, "lambda_min": 1.0,
                      "lambda_max": 2.0, "n_clients": 1000, "zeta": 1.0},
        "workers": [
            {"time": "constant", "delta": 10.0, "count": 900},
            {"time": "constant", "delta": 60.0, "count": 100},
        ],
        "policy": {"kind": "uniform_client_sampling", "concurrency": 100},
        "stop": {"max_iterations": 50_000},
        "noise_sigma": 0.1,
        "stepsize": {"kind": "constant", "eta": 0.01},
    }


@dataclass(frozen=True)
class Workload:
    """One CLI command; ``config`` builds its JSON input from the seed, if any."""

    args: Callable[[int, str], list[str]]  # (seed, config path) -> CLI arguments
    setup: str  # statement run after ``import asgdsim.cli as cli`` to build the inputs
    config: Optional[Callable[[int], dict]] = None
    # Input seeds per untraced run.  The amount of work verify's fuzz does
    # depends on its seed (IQR 13% of events over seeds), so a run averages
    # over several; the other workloads do about the same work at any seed.
    inputs: int = 1


WORKLOADS = {
    "straggler-sweep": Workload(
        args=lambda seed, _: ["scaling", "--preset", "quadratic",
                              "--slow-factors", SLOW_FACTORS, "--seed", str(seed)],
        setup="cli.make_quadratic(10, 1.0, 2.0, seed={seed})",
    ),
    "tune-dim1000": Workload(
        args=lambda _, path: ["tune", path],
        setup="cli.load_config({path!r})",
        config=tune_config,
    ),
    "client-fleet": Workload(
        args=lambda _, path: ["simulate", path],
        setup="cli.load_config({path!r})",
        config=fleet_config,
    ),
    "verify-fuzz": Workload(
        args=lambda seed, _: ["verify", "--seed", str(seed)],
        setup="pass",
        inputs=3,
    ),
}


# ---------------------------------------------------------------------------
# processes


@dataclass
class Usage:
    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    output: str


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC), **THREAD_ENV)


def run_process(argv: list[str], deadline: float) -> Usage:
    """Run one child to completion; wall, CPU and peak RSS are its own."""
    with open(WORK / "child.log", "w+") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=log,
                                stderr=subprocess.STDOUT)
        killer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        log.seek(0)
        output = log.read()
    return Usage(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss / 1024.0, output)


def machine_record() -> dict:
    """nproc, Python, numpy, BLAS vendor and threads as a workload process sees them."""
    probe = (
        "import ctypes, glob, json, os, platform, numpy, asgdsim.cli\n"
        "blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']\n"
        "threads = None\n"
        "libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__) + '.libs', '*blas*'))\n"
        "for lib in libs:\n"
        "    for sym in ('scipy_openblas_get_num_threads64_', 'openblas_get_num_threads64_',\n"
        "                'openblas_get_num_threads'):\n"
        "        fn = getattr(ctypes.CDLL(lib), sym, None)\n"
        "        if fn is not None and threads is None:\n"
        "            threads = fn()\n"
        "print(json.dumps({'python': platform.python_version(), 'numpy': numpy.__version__,\n"
        "                  'blas': blas.get('name'), 'blas_version': blas.get('version'),\n"
        "                  'blas_threads': threads, 'asgdsim': asgdsim.cli.__file__}))\n"
    )
    usage = run_process([sys.executable, "-c", probe], time.monotonic() + 60)
    if usage.code != 0:
        raise RuntimeError(f"cannot import asgdsim from {SRC}:\n{usage.output}")
    record = json.loads(usage.output.strip().splitlines()[-1])
    if not Path(record.pop("asgdsim")).resolve().is_relative_to(SRC):
        raise RuntimeError(f"asgdsim was not imported from {SRC}")
    record["nproc"] = os.cpu_count()
    record["platform"] = platform.platform()
    record["thread_env"] = THREAD_ENV
    record["commit"] = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=False)
        record["commit"] = git.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((SRC / "asgdsim").rglob("*.py")):
        source.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    record["src_sha256"] = source.hexdigest()
    return record


# ---------------------------------------------------------------------------
# correctness


def digest_outputs(out_dir: Path) -> dict[str, str]:
    return {path.relative_to(out_dir).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out_dir.rglob("*")) if path.is_file()}


def self_check_failures(out_dir: Path) -> list[str]:
    """Files whose own verdict is a failure: ``delay_conservation.pass`` or ``all_passed``."""
    bad = []
    for path in sorted(out_dir.rglob("*.json")):
        try:
            payload = json.loads(path.read_text())
        except ValueError as exc:
            bad.append(f"{path.name}: not JSON ({exc})")
            continue
        if not isinstance(payload, dict):
            continue
        if "delay_conservation" in payload and payload["delay_conservation"].get("pass") is not True:
            bad.append(f"{path.name}: delay_conservation.pass is not true")
        if "all_passed" in payload and payload["all_passed"] is not True:
            bad.append(f"{path.name}: all_passed is not true")
    return bad


def judge(code: int, out_dir: Path, digests: dict, reference: Optional[dict]) -> list[str]:
    """Reasons one command failed: exit code, digests against ``reference``, self-checks."""
    problems = [f"exit code {code}"] if code != 0 else []
    if reference is not None:
        for name in sorted(set(reference) | set(digests)):
            if reference.get(name) != digests.get(name):
                problems.append(f"{name}: sha256 {digests.get(name)} != {reference.get(name)}")
    return problems + self_check_failures(out_dir)


# ---------------------------------------------------------------------------
# measurement


@dataclass
class Command:
    traced: bool
    usage: Usage
    problems: list[str]
    layer: dict = field(default_factory=dict)


def prepare_inputs(name: str, seed: int) -> tuple[list[str], str]:
    """CLI arguments for ``name`` at ``seed`` and the set-up statement."""
    workload = WORKLOADS[name]
    path = ""
    if workload.config is not None:
        path = str(WORK / f"{name}-{seed}.json")
        Path(path).write_text(json.dumps(workload.config(seed), indent=2) + "\n")
    return workload.args(seed, path), workload.setup.format(seed=seed, path=path)


def measure_setup(setup: str, deadline: float) -> list[float]:
    code = f"import asgdsim.cli as cli\n{setup}\n"
    times: list[float] = []
    while len(times) < SETUPS[0] or (sum(times) < SETUP_SECONDS and len(times) < SETUPS[1]):
        usage = run_process([sys.executable, "-c", code], deadline)
        if usage.code != 0:
            raise RuntimeError(f"set-up failed:\n{usage.output}")
        times.append(usage.wall_s)
    return times


def run_command(cli_args: list[str], traced: bool, reference: Optional[dict],
                deadline: float) -> tuple[Command, dict]:
    out_dir = WORK / "out"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    trace_path = WORK / "trace.json"
    trace_path.unlink(missing_ok=True)
    if traced:
        argv = [sys.executable, str(BENCH / "layers.py"), str(trace_path)]
    else:
        argv = [sys.executable, "-m", "asgdsim.cli"]
    usage = run_process(argv + cli_args + ["--out", str(out_dir)], deadline)
    digests = digest_outputs(out_dir)
    problems = judge(usage.code, out_dir, digests, reference)
    layer = {}
    if traced:
        if trace_path.exists():
            layer = layers.layer_metrics(json.loads(trace_path.read_text()))
        else:
            problems.append("traced command wrote no trace")
    return Command(traced, usage, problems, layer), digests


def pinned_digests(name: str) -> dict:
    return json.loads(DIGESTS.read_text())[name]


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, then issue commands for ``seconds``; returns the result record."""
    deadline = time.monotonic() + DEADLINE_S
    WORK.mkdir(exist_ok=True)
    machine = machine_record()
    seeds = [seed + INPUT_STRIDE * j for j in range(1 if trace else WORKLOADS[name].inputs)]
    inputs = [prepare_inputs(name, s) for s in seeds]
    setup_times = [] if trace else measure_setup(inputs[0][1], deadline)

    # each input's first command is the reference for its repeats
    references: list[Optional[dict]] = [None] * len(inputs)
    if seed == DEFAULT_SEED:
        references[0] = pinned_digests(name)
    minimum = MIN_TRACED_COMMANDS if trace else len(inputs) + 1
    commands: list[Command] = []
    loop_end = time.monotonic() + seconds
    while time.monotonic() < deadline and (
            len(commands) < minimum or time.monotonic() < loop_end):
        traced = trace and len(commands) % 2 == 0
        index = len(commands) % len(inputs)
        command, digests = run_command(inputs[index][0], traced, references[index], deadline)
        if references[index] is None:
            references[index] = digests
        commands.append(command)
    check_exact_counts(commands)
    return {"machine": machine, "setup_times": setup_times, "commands": commands}


def check_exact_counts(commands: list[Command]) -> None:
    """A traced count that differs from the first traced command's is a failure."""
    traced = [c for c in commands if c.traced and c.layer]
    for command in traced[1:]:
        for key in layers.EXACT_COUNTS:
            if command.layer[key] != traced[0].layer[key]:
                command.problems.append(
                    f"{key} = {command.layer[key]}, first traced command had {traced[0].layer[key]}")


def timed(record: dict) -> list[Command]:
    """Commands whose times count.  The first command of a run is checked but
    not timed: it ran 10-25% slower than its own repeat on verify-fuzz."""
    return record["commands"][1:]


def end_to_end_metrics(record: dict) -> dict[str, float]:
    plain = [c.usage for c in timed(record) if not c.traced]
    return {
        "setup_s": statistics.median(record["setup_times"]),
        "wall_s": statistics.median(u.wall_s for u in plain),
        "cpu_s": statistics.median(u.cpu_s for u in plain),
        "peak_rss_mb": statistics.median(u.peak_rss_mb for u in plain),
    }


def per_layer_metrics(record: dict) -> dict[str, float]:
    traced = [c for c in timed(record) if c.traced and c.layer]
    plain = [c.usage.wall_s for c in timed(record) if not c.traced]
    out = {name: statistics.median(c.layer[name] for c in traced)
           for name, _, _ in layers.PER_LAYER}
    out["trace.overhead_s"] = (statistics.median(c.usage.wall_s for c in traced)
                               - statistics.median(plain))
    return out


PER_LAYER_UNITS = {name: unit for name, unit, _ in layers.PER_LAYER} | {"trace.overhead_s": "s"}


def result_line(record: dict, trace: bool) -> dict:
    commands = record["commands"]
    failed = sum(1 for c in commands if c.problems)
    if trace:
        values, units = per_layer_metrics(record), PER_LAYER_UNITS
    else:
        values, units = end_to_end_metrics(record), dict(END_TO_END)
    return {
        "correct": failed == 0,
        "attempted": len(commands),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def report(name: str, seed: int, record: dict, result: dict) -> None:
    """Human-readable lines; the result JSON is printed last by the caller."""
    print(f"machine: {json.dumps(record['machine'], sort_keys=True)}")
    commands = record["commands"]
    print(f"workload {name} seed {seed}: {len(commands)} commands, "
          f"{sum(c.traced for c in commands)} traced")
    for i, command in enumerate(commands):
        usage = command.usage
        kind = "traced" if command.traced else "plain"
        status = "ok" if not command.problems else "FAILED: " + "; ".join(command.problems)
        print(f"  command {i} {kind}: wall {usage.wall_s:.4f} s, cpu {usage.cpu_s:.4f} s, "
              f"rss {usage.peak_rss_mb:.1f} MiB, {status}")
    for metric, entry in result["metrics"].items():
        print(f"  {metric} = {entry['value']:.6g} {entry['unit']}")
    print(f"  fail_share = {result['failed']}/{result['attempted']} = "
          f"{result['failed'] / result['attempted']:.4g} share")


def pin(name: str) -> int:
    WORK.mkdir(exist_ok=True)
    cli_args, _ = prepare_inputs(name, DEFAULT_SEED)
    command, digests = run_command(cli_args, False, None, time.monotonic() + DEADLINE_S)
    if command.problems:
        print(f"pin: {name} failed: {command.problems}", file=sys.stderr)
        return 1
    table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    table[name] = digests
    DIGESTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    print(f"pin: wrote {len(digests)} digests for {name}")
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="rewrite the pinned digests of the workload and exit")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "asgdsim" / "cli.py").is_file():
        print(f"bench: no asgdsim sources under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.pin:
            return pin(args.workload)
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
        result = result_line(record, bool(args.trace))
        report(args.workload, args.seed, record, result)
        print(json.dumps(result))
        return 0
    except RuntimeError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(WORK, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
