"""Command-line interface.

Subcommands:

* ``simulate``  run one configured simulation, write trace CSV + metrics JSON
* ``scaling``   straggler sweep: tuned iteration counts vs sqrt(max delay)
* ``compare``   async (constant + delay-adaptive) vs minibatch on one fleet
* ``speedup``   closed-form expected batch times for a fleet of speeds
* ``tune``      stepsize grid search for a configured run
* ``verify``    run the built-in verification checks

Exit codes: 0 success, 1 usage or invalid configuration, 2 a run or tuning
failed to reach its target, 3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, astuple, fields
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np

from . import metrics as metrics_mod
from . import speedup as speedup_mod
from .engine import (
    ConstantTime,
    LogNormalTime,
    MaxConcurrency,
    MiniBatch,
    SampledMiniBatch,
    StopRule,
    StragglerTime,
    UniformClientSampling,
    constant_fleet,
    race_grid,
    run_grid,
    run_heterogeneous,
    run_homogeneous,
)
from .errors import InvalidConfigError, InvalidSpecError, TuningFailedError
from .objectives import (
    HeterogeneousFamily,
    NoiseModel,
    make_heterogeneous,
    make_logistic,
    make_quadratic,
)
from .report import (
    LinearFit,
    ScalingPoint,
    ScalingReport,
    fit_line,
    line_chart_svg,
    write_csv,
    write_json,
)
from .stepsize import (
    MAX_GRID_POINTS,
    TUNING_CRITERIA,
    ConstantStepsize,
    DelayAdaptiveStepsize,
    TheoreticalConstantStepsize,
    TuningResult,
    adaptive_eta_bounds,
    default_log_grid,
    select_stepsize,
)


# ---------------------------------------------------------------------------
# configuration


# key tables, read by ``_block``: key -> (kind, default, bound); the flags share the bounds
REQUIRED = object()
NON_NEGATIVE = (lambda v: v >= 0, "must be non-negative")
POSITIVE = (lambda v: v > 0, "must be positive")
AT_LEAST_1 = (lambda v: v >= 1, "must be at least 1")
GRID_DENSITY = (lambda v: 1 <= v <= MAX_GRID_POINTS, f"must lie in [1, {MAX_GRID_POINTS}]")
NUMBER, OBJECT = (float, REQUIRED, None), (dict, REQUIRED, None)
# Counts are bounded before anything is built from them.  A fleet (workers, clients, jobs handed
# out at once, --deltas speeds) is at most 100 times the largest used here; in a noisy run each
# worker owns a noise stream of about 1.7 KB.  A dim or sample count is at most 10^8 (a quadratic
# of that dim has 10^16 entries): numpy refuses the largest shapes with an error naming no field.
MAX_FLEET = 100_000
FLEET_SIZE = (int, REQUIRED, (lambda v: 1 <= v <= MAX_FLEET, f"must lie in [1, {MAX_FLEET}]"))
SIZE = (int, REQUIRED, (lambda v: v <= 10**8, "must be at most 10^8"))
# A replica is a whole run writing two files: 1,000 is over 300 times the 3 used here.
MAX_REPLICAS = 1_000

CONFIG_KEYS = {
    "seed": (int, 0, NON_NEGATIVE),
    "objective": OBJECT,
    "workers": (list, REQUIRED, (len, "must describe at least one worker")),
    "policy": OBJECT,
    "stop": OBJECT,
    "noise_sigma": (float, 0.0, NON_NEGATIVE),
    "stepsize": (dict, None, None),
    "tuning": (dict, None, None),
    "x0": (list, None, None),
    "replicas": (int, 1, (lambda v: 1 <= v <= MAX_REPLICAS,
                          f"must lie in [1, {MAX_REPLICAS}]")),
}
SEED = {"seed": (int, None, NON_NEGATIVE)}  # defaults to the config's seed
QUADRATIC = {"dim": SIZE, "lambda_min": NUMBER, "lambda_max": NUMBER} | SEED
OBJECTIVES = {
    "quadratic": QUADRATIC,
    "logistic": {"n_samples": SIZE, "dim": SIZE} | SEED,
    "heterogeneous": QUADRATIC | {"n_clients": FLEET_SIZE, "zeta": NUMBER},
}
TIME_MODELS = {"constant": ConstantTime, "lognormal": LogNormalTime, "straggler": StragglerTime}
# a worker group gives every field of its time model, all numbers, and its count
WORKER_KEYS = {time: {f.name: NUMBER for f in fields(make)} | {"count": (int, 1, AT_LEAST_1)}
               for time, make in TIME_MODELS.items()}
POLICIES = {
    "max_concurrency": {},
    "minibatch": {"batch_size": (int, None, None)},  # must equal the fleet size
    "sampled_minibatch": {"batch_size": FLEET_SIZE},
    "uniform_client_sampling": {"concurrency": FLEET_SIZE},
}
STOP_KEYS = {
    "max_iterations": (int, REQUIRED, AT_LEAST_1),
    "grad_tol": (float, None, NON_NEGATIVE),
    "last_k_tol": (float, None, NON_NEGATIVE),
    "last_k": (int, None, AT_LEAST_1),
    # a non-positive threshold calls the first iterate diverged
    "diverge_above": (float, None, POSITIVE),
    "require_quiescent": (bool, None, None),
    "stall_window": (int, None, AT_LEAST_1),
    # a relative drop of 1 or more would call every run stalled
    "stall_improvement": (float, None, (lambda v: 0 <= v < 1, "must lie in [0, 1)")),
}
ETA = (float, None, None)  # checked by the rule; tune supplies it when it is left out
LIPSCHITZ = (float, None, POSITIVE)  # defaults to the objective's smoothness
CONCURRENCY = (int, None, AT_LEAST_1)  # defaults to the policy's
STEPSIZES = {
    "constant": {"eta": ETA},
    "delay_adaptive": {"eta": ETA, "lipschitz": LIPSCHITZ, "concurrency": CONCURRENCY,
                       "mode": (str, None, None)},
    "theoretical": {"lipschitz": LIPSCHITZ, "max_delay": (float, None, POSITIVE),
                    "concurrency": CONCURRENCY, "initial_gap": (float, None, NON_NEGATIVE)},
}
TUNING_KEYS = {
    "criterion": (str, TUNING_CRITERIA[0],
                  (TUNING_CRITERIA.__contains__, f"must be one of {list(TUNING_CRITERIA)}")),
    # each value is a lockstep column, as many as a log grid may have
    "values": (list, None, (lambda v: 1 <= len(v) <= MAX_GRID_POINTS,
                            f"must hold 1 to {MAX_GRID_POINTS} values")),
    "points_per_decade": (int, None, GRID_DENSITY),
    "low": (float, None, POSITIVE),
    "high": (float, None, None),
}


def _expect(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise InvalidConfigError(f"{path}: {message}")


def _value(value, path: str, kind, bound=None):
    """``value`` as a ``kind`` (an int stands in for a float), finite and within ``bound``."""
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        # an integer past the float range is as infinite as an inf
        value = float(value) if abs(value) <= sys.float_info.max else (
            math.inf if value > 0 else -math.inf)
    _expect(isinstance(value, kind) and (kind is bool or not isinstance(value, bool)),
            path, f"expected {kind.__name__}, got {type(value).__name__}")
    _expect(not isinstance(value, float) or math.isfinite(value),
            path, f"must be finite, got {value}")
    if bound is not None:
        ok, rule = bound
        shown = f"a list of {len(value)}" if isinstance(value, list) else repr(value)
        _expect(ok(value), path, f"{rule}, got {shown}")
    return value


def _block(spec, path: str, keys: dict) -> dict:
    """The config object ``spec`` at ``path``, read through the key table ``keys``.

    A key outside the table is refused.  A missing (or null) key is refused when its default
    is ``REQUIRED`` and left out when it is None, so that what the block builds keeps its own.
    """
    _expect(isinstance(spec, dict), path, "must be a JSON object")
    unknown = sorted(set(spec) - set(keys))
    _expect(not unknown, path, f"unknown keys {unknown}")
    out = {}
    for key, (kind, default, bound) in keys.items():
        if spec.get(key) is not None:
            out[key] = _value(spec[key], f"{path}.{key}", kind, bound)
        elif default is REQUIRED:
            raise InvalidConfigError(f"{path}.{key}: is required")
        elif default is not None:
            out[key] = default
    return out


def _kind(spec, path: str, tag: str, tables: dict) -> tuple[str, dict]:
    """``spec[tag]``, and the rest of ``spec`` read through the key table of that kind."""
    _expect(isinstance(spec, dict), path, "must be a JSON object")
    one_of = (tables.__contains__, f"must be one of {list(tables)}")
    kind = _block({tag: spec.get(tag)}, path, {tag: (str, REQUIRED, one_of)})[tag]
    return kind, _block({k: v for k, v in spec.items() if k != tag}, path, tables[kind])


def _at(path: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``, with ``path`` in front of the message of a domain error."""
    try:
        return make(*args, **kwargs)
    except (InvalidConfigError, InvalidSpecError, np.linalg.LinAlgError, MemoryError) as exc:
        raise InvalidConfigError(f"{path}: {exc}") from exc


class ExperimentConfig(NamedTuple):
    """One run's config, validated by building every block once.

    ``data`` is the JSON object with its defaults filled in (what ``simulate``
    writes as ``config.json``); the other fields are the parts built from it.
    """

    data: dict
    objective: object
    workers: list  # one time model per worker
    policy: object
    stop: StopRule
    noise: NoiseModel
    x0: np.ndarray
    grid: list[float]  # the tuning grid; the default grid without a tuning block
    criterion: str
    stepsize: object  # None when the stepsize block leaves eta to ``tune``

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        data = _block(data, "config", CONFIG_KEYS)
        _expect("stepsize" in data or "tuning" in data, "config",
                "needs a stepsize block (or a tuning block for the tune command)")
        problem = _build_objective(data["objective"], data["seed"])
        fleet = _build_workers(data["workers"])
        schedule = _build_policy(data["policy"], len(fleet))
        if isinstance(problem, HeterogeneousFamily):
            _expect(isinstance(schedule, UniformClientSampling), "config.policy",
                    "heterogeneous objectives run under uniform_client_sampling")
            _expect(len(fleet) == problem.n_clients, "config.workers",
                    f"need exactly {problem.n_clients} workers, one per client")
        x0 = data.get("x0", [0.0] * problem.dim)
        _expect(len(x0) == problem.dim, "config.x0",
                f"length {len(x0)} does not match objective dimension {problem.dim}")
        start = np.array([_value(v, f"config.x0[{i}]", float) for i, v in enumerate(x0)])
        grid, criterion = _build_tuning(data.get("tuning", {}))
        stop = _at("config.stop", StopRule, **_block(data["stop"], "config.stop", STOP_KEYS))
        cfg = cls(data, problem, fleet, schedule, stop, NoiseModel(data["noise_sigma"]),
                  start, grid, criterion, None)
        if "stepsize" in data:
            cfg = cfg._replace(stepsize=cfg.build_stepsize())
            if cfg.stepsize is None:  # tune supplies eta: check the block at a grid value
                cfg.build_stepsize(grid[0])
        return cfg

    def build_stepsize(self, eta: Optional[float] = None):
        """The configured stepsize rule at ``eta``, else at the block's eta; None without one."""
        path = "config.stepsize"
        kind, keys = _kind(self.data["stepsize"], path, "kind", STEPSIZES)
        # the policy's own concurrency: its jobs in flight, its batch size or the fleet
        concurrency = keys.pop("concurrency", getattr(
            self.policy, "concurrency", getattr(self.policy, "batch_size", len(self.workers))))
        lipschitz = keys.pop("lipschitz", self.objective.smoothness)
        if kind == "theoretical":
            _expect(eta is None, path, "the theoretical stepsize cannot be grid-tuned")
            keys = {"max_delay": concurrency, "initial_gap": self.objective.value(self.x0)} | keys
            return _at(path, TheoreticalConstantStepsize, lipschitz=lipschitz,
                       concurrency=concurrency, sigma=self.noise.sigma,
                       horizon=self.stop.max_iterations, **keys)
        if eta is not None:
            keys["eta"] = eta
        if "eta" not in keys:
            return None
        if kind == "constant":
            return _at(path, ConstantStepsize, **keys)
        return _at(path, DelayAdaptiveStepsize, lipschitz=lipschitz, concurrency=concurrency,
                   **keys)


def _build_objective(spec: dict, default_seed: int):
    path = "config.objective"
    family, keys = _kind(spec, path, "family", OBJECTIVES)
    seed = keys.get("seed", default_seed)
    if family == "logistic":
        return _at(path, make_logistic, keys["n_samples"], keys["dim"], seed)
    quadratic = _at(path, make_quadratic, keys["dim"], keys["lambda_min"], keys["lambda_max"], seed)
    if family == "quadratic":
        return quadratic
    return _at(path, make_heterogeneous, quadratic, keys["n_clients"], keys["zeta"], seed + 1)


def _build_workers(items: list) -> list:
    out = []
    for idx, item in enumerate(items):
        path = f"config.workers[{idx}]"
        time, keys = _kind(item, path, "time", WORKER_KEYS)
        count = keys.pop("count")
        _expect(len(out) + count <= MAX_FLEET, f"{path}.count", f"makes over {MAX_FLEET} workers")
        out.extend([_at(path, TIME_MODELS[time], **keys)] * count)
    return out


def _build_policy(spec: dict, n_workers: int):
    path = "config.policy"
    kind, keys = _kind(spec, path, "kind", POLICIES)
    if kind == "minibatch":
        size = keys.pop("batch_size", n_workers)
        _expect(size == n_workers, f"{path}.batch_size",
                f"must equal the fleet size {n_workers}, got {size}")
    makers = {"max_concurrency": MaxConcurrency, "minibatch": MiniBatch,
              "sampled_minibatch": SampledMiniBatch,
              "uniform_client_sampling": UniformClientSampling}
    return _at(path, makers[kind], **keys)


def _build_tuning(spec: dict) -> tuple[list[float], str]:
    """The stepsize grid and the criterion of a tuning block."""
    path = "config.tuning"
    keys = _block(spec, path, TUNING_KEYS)
    criterion, values = keys.pop("criterion"), keys.pop("values", None)
    if values is None:
        return _at(path, default_log_grid, **keys), criterion
    grid = [_value(v, f"{path}.values[{i}]", float, POSITIVE) for i, v in enumerate(values)]
    seen = set()
    for i, eta in enumerate(grid):
        _expect(eta not in seen, f"{path}.values[{i}]", f"repeats the value {eta}")
        seen.add(eta)
    return grid, criterion


def load_config(path: str) -> ExperimentConfig:
    try:
        data = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise InvalidConfigError(f"config file not found: {path}")
    # a JSONDecodeError, an integer of too many digits, or nesting too deep to decode
    except (ValueError, RecursionError) as exc:
        raise InvalidConfigError(f"config is not valid JSON: {exc}")
    return ExperimentConfig.from_dict(data)


def run_config(cfg: ExperimentConfig, master_seed: int, stepsize=None):
    """Run the built parts of ``cfg`` once, optionally under another stepsize."""
    stepsize = stepsize if stepsize is not None else cfg.stepsize
    if isinstance(cfg.objective, HeterogeneousFamily):
        return run_heterogeneous(cfg.objective, cfg.noise, cfg.workers, cfg.policy.concurrency,
                                 stepsize, cfg.x0, cfg.stop, master_seed=master_seed)
    return run_homogeneous(cfg.objective, cfg.noise, cfg.workers, cfg.policy, stepsize,
                           cfg.x0, cfg.stop, master_seed=master_seed)


# ---------------------------------------------------------------------------
# tuning


def tune(objective, noise, workers, policy, make_stepsize, x0, stop: StopRule, seed: int,
         grid, criterion: str) -> TuningResult:
    """``select_stepsize`` of ``make_stepsize(eta)`` over ``grid``, from the outcomes of one
    ``run_grid``: largest stepsize first and, under ``min_T_to_eps``, with its dominance."""
    etas = sorted((float(g) for g in grid), reverse=True)
    outcomes = run_grid(objective, noise, workers, policy, [make_stepsize(e) for e in etas], x0,
                        stop, master_seed=seed, dominance=criterion == "min_T_to_eps")
    return select_stepsize(etas, outcomes, criterion)


# ---------------------------------------------------------------------------
# commands


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    _expect(cfg.stepsize is not None, "config.stepsize.eta", "is required to simulate")
    seed = args.seed if args.seed is not None else cfg.data["seed"]
    replicas = cfg.data["replicas"]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    exit_code = 0
    for replica in range(replicas):
        master = seed + replica
        trace = run_config(cfg, master)
        suffix = f"_r{replica}" if replicas > 1 else ""
        trace.to_csv(out / f"trace{suffix}.csv")
        payload = metrics_mod.summary(trace)
        payload["master_seed"] = master
        write_json(out / f"metrics{suffix}.json", payload)
        if cfg.stop.has_target and not trace.converged:
            exit_code = 2
    write_json(out / "config.json", cfg.data | {"seed": seed})
    print(f"simulate: wrote {replicas} run(s) to {out}")
    return exit_code


def cmd_tune(args) -> int:
    cfg = load_config(args.config)
    _expect("stepsize" in cfg.data, "config.stepsize", "is required for tuning")
    _expect(not isinstance(cfg.stepsize, TheoreticalConstantStepsize), "config.stepsize",
            "the theoretical stepsize cannot be grid-tuned")
    if cfg.criterion == "min_T_to_eps":
        _expect(cfg.stop.has_target, "config.stop",
                "min_T_to_eps tuning needs grad_tol or last_k_tol")
    seed = args.seed if args.seed is not None else cfg.data["seed"]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        result = tune(cfg.objective, cfg.noise, cfg.workers, cfg.policy, cfg.build_stepsize,
                      cfg.x0, cfg.stop, seed, cfg.grid, cfg.criterion)
    except TuningFailedError as exc:
        print(f"tune: failed: {exc}", file=sys.stderr)
        write_json(out / "tuning.json", {"failed": True, "points": exc.points})
        return 2
    payload = result.to_dict()
    stepsize = cfg.build_stepsize(result.best_eta)
    if isinstance(stepsize, DelayAdaptiveStepsize):
        payload["adaptive_eta_bounds"] = adaptive_eta_bounds(stepsize.lipschitz,
                                                             stepsize.concurrency)
    best = run_config(cfg, seed, stepsize)
    best.to_csv(out / "best_trace.csv")
    write_json(out / "best_metrics.json", metrics_mod.summary(best))
    write_json(out / "tuning.json", payload)
    edge_note = " (on grid edge!)" if result.best_on_grid_edge else ""
    print(f"tune: best eta {result.best_eta:g}{edge_note}, metric {result.best_metric:g}")
    return 0


def _scaling_run(slow_factor: float, epsilon: float, max_iterations: int):
    """The fleet and the stop rule of the sweep point at ``slow_factor``."""
    workers = constant_fleet([1.0, float(slow_factor)])
    # quiescent stop: the sweep measures iterations until the accuracy is
    # reached for good, so a straggler gradient still in flight must not be
    # allowed to invalidate the certified error after the fact.  The stall
    # window has to outlast the flat stretch while the slow worker computes.
    stop = StopRule(max_iterations=max_iterations, last_k_tol=epsilon, last_k=30,
                    diverge_above=1e8, require_quiescent=True,
                    stall_window=max(2000, 4 * int(slow_factor)))
    return workers, stop


def _scaling_point(objective, slow_factor: float, epsilon: float, grid: list[float],
                   max_iterations: int, seed: int) -> ScalingPoint:
    """``min_T_to_eps`` tuning as a race: the first column to reach the target, largest
    stepsize first, is the point, and no column runs past its step."""
    workers, stop = _scaling_run(slow_factor, epsilon, max_iterations)
    etas = sorted(grid, reverse=True)
    race = race_grid(objective, NoiseModel(0.0), workers, MaxConcurrency(),
                     [ConstantStepsize(eta) for eta in etas], np.zeros(objective.dim), stop,
                     master_seed=seed)
    if race is None:
        raise TuningFailedError(f"slow factor {slow_factor:g}, epsilon {epsilon:g}: no stepsize "
                                f"on the grid reached the target")
    column, end, norms, schedule = race
    observed = metrics_mod.max_delay(schedule.close())
    return ScalingPoint(
        slow_factor=float(slow_factor),
        observed_max_delay=observed,
        sqrt_max_delay=math.sqrt(observed),
        tuned_eta=etas[column],
        eta_on_grid_edge=column in (0, len(etas) - 1),
        iterations_to_target=end,
        sim_time_to_target=schedule.finish_times[-1],
        final_error=metrics_mod.window_error(norms),
    )


def scaling_experiment(preset: str, slow_factors: list[float], epsilon: float = 1e-14,
                       points_per_decade: int = 4, max_iterations: int = 200_000,
                       seed: int = 0) -> ScalingReport:
    """The two-worker straggler sweep for one problem preset, one grid race per point."""
    if preset == "quadratic":
        objective = make_quadratic(10, 1.0, 2.0, seed=seed)
    elif preset == "logistic":
        objective = make_logistic(100, 20, seed=seed)
    else:
        raise InvalidConfigError(f"preset: unknown preset {preset!r}")
    grid = default_log_grid(points_per_decade=points_per_decade)
    points = [_scaling_point(objective, x, epsilon, grid, max_iterations, seed)
              for x in sorted(float(x) for x in slow_factors)]

    warnings = [
        f"tuned stepsize for slow factor {p.slow_factor:g} sits on the grid edge"
        for p in points if p.eta_on_grid_edge
    ]
    fit: Optional[LinearFit] = None
    try:
        fit = fit_line([p.sqrt_max_delay for p in points],
                       [p.iterations_to_target for p in points])
    except InvalidConfigError as exc:
        warnings.append(f"{exc}; no fit computed")
    return ScalingReport(preset=preset, epsilon=epsilon, points=points,
                         fit=fit, warnings=warnings)


def cmd_scaling(args) -> int:
    factors = _parse_numbers(args.slow_factors, "--slow-factors", counted=False)
    _expect(len(factors) >= 2, "--slow-factors", f"needs at least 2 values, got {len(factors)}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    report = scaling_experiment(
        args.preset, factors, epsilon=args.epsilon,
        points_per_decade=args.points_per_decade,
        max_iterations=args.max_iterations, seed=args.seed,
    )
    write_json(out / "scaling.json", asdict(report))
    write_csv(out / "scaling.csv", [f.name for f in fields(ScalingPoint)],
              [astuple(p) for p in report.points])
    xs = [p.sqrt_max_delay for p in report.points]
    ys = [float(p.iterations_to_target) for p in report.points]
    series = [("tuned runs", xs, ys)]
    if report.fit:
        series.append(
            ("least-squares fit", xs, [report.fit.slope * x + report.fit.intercept for x in xs])
        )
    (out / "scaling.svg").write_text(
        line_chart_svg(series, f"iterations to reach {report.epsilon:g} ({report.preset})",
                       "sqrt(max delay)", "iterations")
    )
    for warning in report.warnings:
        print(f"scaling: warning: {warning}", file=sys.stderr)
    if report.fit:
        print(f"scaling[{report.preset}]: slope {report.fit.slope:.1f}, "
              f"intercept {report.fit.intercept:.1f}, R^2 {report.fit.r_squared:.4f}")
    return 0


def cmd_compare(args) -> int:
    cfg = load_config(args.config)
    objective, workers, stop, noise, x0 = cfg.objective, cfg.workers, cfg.stop, cfg.noise, cfg.x0
    _expect(not isinstance(objective, HeterogeneousFamily), "config.objective",
            "compare runs homogeneous fleets")
    _expect(stop.has_target, "config.stop", "compare needs grad_tol or last_k_tol")
    seed = args.seed if args.seed is not None else cfg.data["seed"]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    n = len(workers)
    grid = cfg.grid if "tuning" in cfg.data else default_log_grid(points_per_decade=2)
    async_tuned, minibatch_tuned = (
        tune(objective, noise, workers, policy, ConstantStepsize, x0, stop, seed, grid,
             cfg.criterion)
        for policy in (MaxConcurrency(), MiniBatch()))
    eta = async_tuned.best_eta
    policies = {
        "async_constant": (MaxConcurrency(), ConstantStepsize(eta)),
        "async_adaptive_scale": (
            MaxConcurrency(),
            DelayAdaptiveStepsize(eta, objective.smoothness, n, "scale"),
        ),
        "async_adaptive_drop": (
            MaxConcurrency(),
            DelayAdaptiveStepsize(eta, objective.smoothness, n, "drop"),
        ),
        "minibatch": (MiniBatch(), ConstantStepsize(minibatch_tuned.best_eta)),
    }
    table: dict[str, dict] = {}
    curve_rows = []
    curve_series = []
    exit_code = 0
    for name, (policy, stepsize) in policies.items():
        trace = run_homogeneous(objective, noise, workers, policy, stepsize, x0, stop,
                                master_seed=seed)
        info = metrics_mod.summary(trace)
        info["eta"] = stepsize.eta
        table[name] = info
        print(f"compare[{name}]: eta {stepsize.eta:g}, iterations {len(trace)}, "
              f"sim time {trace.total_sim_time:g}, converged {trace.converged}")
        if not trace.converged:
            exit_code = 2
        for t in range(len(trace)):
            curve_rows.append((name, t, float(trace.sim_times[t]), float(trace.grad_norms[t])))
        curve_series.append((name, trace.sim_times.tolist(), trace.grad_norms.tolist()))

    write_json(out / "comparison.json", {
        "policies": table,
        "tuning": {"async": async_tuned.to_dict(), "minibatch": minibatch_tuned.to_dict()},
    })
    write_csv(out / "curves.csv", ("policy", "iteration", "sim_time", "grad_norm"), curve_rows)
    (out / "compare.svg").write_text(
        line_chart_svg(curve_series, "gradient norm vs simulated time", "sim time",
                       "grad norm (log)", log_y=True, markers=False)
    )
    return exit_code


def _parse_numbers(spec: str, flag: str, counted: bool) -> list[float]:
    """Finite positive numbers from a comma list; ``counted`` allows "value:count" groups.

    Errors are ``InvalidConfigError``s that name ``flag``.
    """
    out: list[float] = []
    for token in filter(None, (tok.strip() for tok in spec.split(","))):
        value, _, count = token.partition(":") if counted else (token, "", "")
        try:
            number, repeat = float(value), int(count) if count else 1
        except ValueError:
            raise InvalidConfigError(f"{flag}: {token!r} is not a number") from None
        _expect(math.isfinite(number) and number > 0, flag,
                f"{token!r} must be finite and positive")
        _expect(repeat >= 1, flag, f"count in {token!r} must be at least 1")
        _expect(len(out) + repeat <= MAX_FLEET, flag, f"{token!r} makes over {MAX_FLEET} numbers")
        out.extend([number] * repeat)
    _expect(bool(out), flag, "empty list")
    return out


def parse_deltas(spec: str) -> list[float]:
    """Parse a fleet spec like "10:900,60:100" (speed:count) or "1,3,5"."""
    return _parse_numbers(spec, "--deltas", counted=True)


def cmd_speedup(args) -> int:
    deltas = parse_deltas(args.deltas)
    inp = _at("--deltas", speedup_mod.SpeedupInput, tuple(deltas), args.concurrency)
    weights = speedup_mod.minibatch_weights(inp.n_clients, inp.concurrency)
    oracle = _at("--mc-samples", speedup_mod.minibatch_time_oracle, inp, method=args.oracle,
                 samples=args.mc_samples, seed=args.seed)
    payload = {
        "n_clients": inp.n_clients,
        "concurrency": inp.concurrency,
        "async_time": speedup_mod.async_time(inp),
        "minibatch_time": speedup_mod.minibatch_time(inp),
        "speedup_ratio": speedup_mod.speedup_ratio(inp),
        "oracle": {
            "estimate": oracle.estimate,
            "stderr": oracle.stderr,
            "method": oracle.method,
            "fell_back": oracle.fell_back,
        },
    }
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "speedup.json", payload)
    write_csv(out / "weights.csv", ("rank", "delta", "weight"),
              [(i + 1, d, float(w)) for i, (d, w) in enumerate(zip(inp.deltas, weights))])
    print(f"speedup: async {payload['async_time']:g}, minibatch "
          f"{payload['minibatch_time']:g}, ratio {payload['speedup_ratio']:.3f}")
    return 0


def cmd_verify(args) -> int:
    from .verify import run_all as run_all_checks

    results = run_all_checks(fuzz_configs=args.fuzz_configs, seed=args.seed)
    failed = [r for r in results if not r.passed]
    for result in results:
        tag = "PASS" if result.passed else "FAIL"
        print(f"[{tag}] {result.name}: {result.detail}")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_json(out / "verify.json", {
            "checks": [{"name": r.name, "passed": r.passed, "detail": r.detail}
                       for r in results],
            "all_passed": not failed,
        })
    return 3 if failed else 0


# ---------------------------------------------------------------------------
# argument parsing


# numeric flags checked before any command runs: destination -> (flag, bound)
FLAG_BOUNDS = {
    "seed": ("--seed", NON_NEGATIVE),
    "epsilon": ("--epsilon", NON_NEGATIVE),
    "max_iterations": ("--max-iterations", AT_LEAST_1),
    "points_per_decade": ("--points-per-decade", GRID_DENSITY),
    "mc_samples": ("--mc-samples", (lambda v: v >= 2, "must be at least 2")),
    "concurrency": ("--concurrency", AT_LEAST_1),
    "fuzz_configs": ("--fuzz-configs", AT_LEAST_1),
}


def _check_flags(args) -> None:
    for dest, (flag, bound) in FLAG_BOUNDS.items():
        value = getattr(args, dest, None)
        if value is not None:
            _value(value, flag, type(value), bound)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="asgdsim",
                     description="asynchronous SGD delay simulator and analysis tools")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", parents=[], help="run one configured simulation")
    p.add_argument("config", help="path to a JSON run configuration")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("scaling", help="two-worker straggler sweep with per-point tuning")
    p.add_argument("--preset", choices=("quadratic", "logistic"), required=True)
    p.add_argument("--slow-factors", default="1,4,16,64,256")
    p.add_argument("--epsilon", type=float, default=1e-14)
    p.add_argument("--points-per-decade", type=int, default=4)
    p.add_argument("--max-iterations", type=int, default=200_000)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_scaling)

    p = sub.add_parser("compare", help="async vs minibatch on one fleet")
    p.add_argument("config")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("speedup", help="expected batch times for a fleet of speeds")
    p.add_argument("--deltas", required=True,
                   help='fleet speeds, e.g. "10:900,60:100" or "1,3,5"')
    p.add_argument("--concurrency", type=int, required=True)
    p.add_argument("--oracle", choices=("exhaustive", "monte_carlo"), default="exhaustive")
    p.add_argument("--mc-samples", type=int, default=10**5)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_speedup)

    p = sub.add_parser("tune", help="grid-search the stepsize of a configured run")
    p.add_argument("config")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("verify", help="run the built-in verification checks")
    p.add_argument("--fuzz-configs", type=int, default=300)
    p.add_argument("--seed", type=int, default=20260816, help="seed of the fuzzed schedules")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_flags(args)
        return args.func(args)
    except (InvalidConfigError, InvalidSpecError) as exc:
        print(f"asgdsim: invalid configuration: {exc}", file=sys.stderr)
        return 1
    except TuningFailedError as exc:
        print(f"asgdsim: tuning failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
