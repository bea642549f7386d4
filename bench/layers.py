"""Outside-in layer trace of the asgdsim command line.

    python3 bench/layers.py TRACE_JSON CLI_ARG...

wraps the public functions of every module of ``src/asgdsim`` (and the
public methods that the event loop reaches through an instance), runs
``asgdsim.cli.main`` with the remaining arguments, writes the span totals
to TRACE_JSON and exits with the command's exit code.  Nothing inside the
program is changed: spans exist only at the boundaries a caller can see.

A span's self time is its duration minus the time of the spans it called.
A call that enters the same boundary it is already in (for example
``HeterogeneousFamily.value_and_gradient`` delegating to its base
objective) is one span, not two.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time

LAYERS = ("cli", "engine", "objectives", "stepsize", "metrics", "report", "rng",
          "speedup", "verify")

# Public methods that callers reach through an instance, so the wrapper has
# to sit on the class.  Keys merge across classes of one layer.
METHODS = {
    "objectives": {
        "QuadraticObjective": ("value", "gradient", "value_and_gradient"),
        "LogisticObjective": ("value", "gradient", "value_and_gradient"),
        "HeterogeneousFamily": ("value", "gradient", "value_and_gradient",
                                "client_value", "client_gradient"),
        "NoiseModel": ("sample",),
    },
    "stepsize": {
        "ConstantStepsize": ("at",),
        "DelayAdaptiveStepsize": ("at",),
        "TheoreticalConstantStepsize": ("at",),
    },
    "engine": {"RunTrace": ("to_csv",)},
}

VERIFY_CHECKS = ("gradient_finite_differences", "noise_calibration",
                 "heterogeneity_exactness", "delay_conservation_fuzz",
                 "minibatch_matches_direct", "speedup_oracle", "determinism")

# Per-layer metrics derived from one traced command: (name, unit, better).
PER_LAYER = (
    [
        ("cli.load_config_s", "s", "lower"),
        ("objectives.build_calls", "count", "lower"),
        ("objectives.build_s", "s", "lower"),
        ("objectives.vg_calls", "count", "lower"),
        ("objectives.vg_s", "s", "lower"),
        ("objectives.vg_us", "us", "lower"),
        ("engine.runs", "count", "lower"),
        ("engine.events", "count", "lower"),
        ("engine.run_s", "s", "lower"),
        ("engine.self_us_per_event", "us", "lower"),
        ("engine.to_csv_s", "s", "lower"),
        ("engine.csv_bytes", "B", "lower"),
        ("report.write_s", "s", "lower"),
        ("report.bytes_written", "B", "lower"),
        ("stepsize.tune_s", "s", "lower"),
        ("stepsize.grid_points_run", "count", "lower"),
        ("stepsize.grid_points_reached", "count", "higher"),
        ("stepsize.target_ratio", "ratio", "higher"),
        ("stepsize.at_s", "s", "lower"),
        ("metrics.summary_calls", "count", "lower"),
        ("metrics.summary_s", "s", "lower"),
        ("rng.streams_created", "count", "lower"),
        ("rng.stream_s", "s", "lower"),
        ("speedup.oracle_s", "s", "lower"),
    ]
    + [(f"verify.{check}_s", "s", "lower") for check in VERIFY_CHECKS]
    + [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
)

# Counts that must repeat exactly between two traced runs of one command.
EXACT_COUNTS = ("engine.events", "engine.runs", "objectives.vg_calls",
                "objectives.build_calls", "stepsize.grid_points_run")


class Tracer:
    """Span totals per boundary, kept in memory until the command ends."""

    def __init__(self):
        self.spans: dict[str, list] = {}  # key -> [calls, total_s, self_s]
        self.counts = {"engine.events": 0, "engine.csv_bytes": 0,
                       "report.bytes_written": 0, "stepsize.grid_points_run": 0,
                       "stepsize.grid_points_reached": 0}
        self._stack: list[list] = []  # open spans: [key, child_s]

    def span(self, key: str, fn):
        totals = self.spans.setdefault(key, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            enter = clock()
            if stack and stack[-1][0] == key:
                return fn(*args, **kwargs)
            frame = [key, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                totals[0] += 1
                totals[1] += elapsed
                totals[2] += elapsed - frame[1]
                if stack:
                    # the wrapper's own cost is charged to the caller's child
                    # time, so it does not inflate the caller's self time
                    stack[-1][1] += clock() - enter

        return wrapper

    def _counted(self, key: str, fn):
        """Attach the counts that one boundary reports on return."""
        counts = self.counts
        if key in ("engine.run_homogeneous", "engine.run_heterogeneous"):
            def run(*args, **kwargs):
                trace = fn(*args, **kwargs)
                counts["engine.events"] += len(trace)
                return trace
            return run
        if key in ("engine.to_csv", "report.write_json", "report.write_csv"):
            bucket = "engine.csv_bytes" if key == "engine.to_csv" else "report.bytes_written"
            path_index = 1 if key == "engine.to_csv" else 0

            def write(*args, **kwargs):
                fn(*args, **kwargs)
                counts[bucket] += os.path.getsize(args[path_index])
            return write
        if key == "stepsize.grid_tune":
            def grid_tune(run, *args, **kwargs):
                def counted_run(eta, budget):
                    outcome = run(eta, budget)
                    counts["stepsize.grid_points_run"] += 1
                    if outcome.iterations_to_target is not None and not outcome.diverged:
                        counts["stepsize.grid_points_reached"] += 1
                    return outcome
                return fn(counted_run, *args, **kwargs)
            return grid_tune
        return fn

    def install(self) -> None:
        """Wrap every public function wherever an asgdsim module binds it."""
        modules = [importlib.import_module("asgdsim")]
        modules += [importlib.import_module(f"asgdsim.{layer}") for layer in LAYERS]
        for layer, module in zip(LAYERS, modules[1:]):
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or not inspect.isfunction(obj) \
                        or obj.__module__ != module.__name__:
                    continue
                key = f"{layer}.{name}"
                wrapper = self.span(key, self._counted(key, obj))
                for other in modules:
                    for bound, value in list(vars(other).items()):
                        if value is obj:
                            setattr(other, bound, wrapper)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(module, cls_name)
                for method in methods:
                    key = f"{layer}.{method}"
                    setattr(cls, method, self.span(key, self._counted(key, vars(cls)[method])))

    def to_dict(self) -> dict:
        return {"spans": {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]}
                          for k, v in self.spans.items() if v[0]},
                "counts": dict(self.counts)}


def layer_metrics(raw: dict) -> dict[str, float]:
    """Per-layer metric values of one traced command, from ``Tracer.to_dict``."""
    spans, counts = raw["spans"], raw["counts"]

    def total(*keys):
        return sum(spans[k]["total_s"] for k in keys if k in spans)

    def calls(*keys):
        return sum(spans[k]["calls"] for k in keys if k in spans)

    builders = [k for k in spans if k.startswith("objectives.make_")]
    runs = ("engine.run_homogeneous", "engine.run_heterogeneous")
    writers = ("report.write_json", "report.write_csv")
    vg_calls = calls("objectives.value_and_gradient")
    vg_s = total("objectives.value_and_gradient")
    events = counts["engine.events"]
    at_s = total("stepsize.at")
    run_s = total(*runs)
    points = counts["stepsize.grid_points_run"]
    out = {
        "cli.load_config_s": total("cli.load_config"),
        "objectives.build_calls": calls(*builders),
        "objectives.build_s": total(*builders),
        "objectives.vg_calls": vg_calls,
        "objectives.vg_s": vg_s,
        "objectives.vg_us": 1e6 * vg_s / vg_calls if vg_calls else 0.0,
        "engine.runs": calls(*runs),
        "engine.events": events,
        "engine.run_s": run_s,
        "engine.self_us_per_event": 1e6 * (run_s - vg_s - at_s) / events if events else 0.0,
        "engine.to_csv_s": total("engine.to_csv"),
        "engine.csv_bytes": counts["engine.csv_bytes"],
        "report.write_s": total(*writers),
        "report.bytes_written": counts["report.bytes_written"],
        "stepsize.tune_s": total("stepsize.grid_tune"),
        "stepsize.grid_points_run": points,
        "stepsize.grid_points_reached": counts["stepsize.grid_points_reached"],
        "stepsize.target_ratio": counts["stepsize.grid_points_reached"] / points if points else 0.0,
        "stepsize.at_s": at_s,
        "metrics.summary_calls": calls("metrics.summary"),
        "metrics.summary_s": total("metrics.summary"),
        "rng.streams_created": calls("rng.named_stream"),
        "rng.stream_s": total("rng.named_stream"),
        "speedup.oracle_s": total("speedup.minibatch_time_oracle"),
    }
    for check in VERIFY_CHECKS:
        out[f"verify.{check}_s"] = total(f"verify.check_{check}")
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(v["self_s"] for k, v in spans.items()
                                     if k.startswith(layer + "."))
    return out


def main(argv: list[str]) -> int:
    trace_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    cli = importlib.import_module("asgdsim.cli")
    code = 1
    try:
        code = cli.main(cli_args)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        with open(trace_path, "w") as handle:
            json.dump(tracer.to_dict(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
