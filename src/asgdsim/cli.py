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
    TUNING_CRITERIA,
    ConstantStepsize,
    DelayAdaptiveStepsize,
    TheoreticalConstantStepsize,
    TuneOutcome,
    TuningResult,
    adaptive_eta_bounds,
    default_log_grid,
    grid_tune,
)


# ---------------------------------------------------------------------------
# configuration


TIME_MODELS = {
    "constant": (ConstantTime, ("delta",)),
    "lognormal": (LogNormalTime, ("mu", "sigma")),
    "straggler": (StragglerTime, ("delta", "slow_factor", "straggle_prob")),
}


def _expect(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise InvalidConfigError(f"{path}: {message}")


def _value(value, path: str, kinds):
    if kinds is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    _expect(isinstance(value, kinds) and (kinds is bool or not isinstance(value, bool)),
            path, f"expected {kinds}, got {type(value).__name__}")
    _expect(not isinstance(value, float) or math.isfinite(value),
            path, f"must be finite, got {value}")
    return value


def _field(data: dict, key: str, path: str, kinds, required: bool = True, default=None):
    if key not in data or data[key] is None:
        _expect(not required, f"{path}.{key}", "is required")
        return default
    return _value(data[key], f"{path}.{key}", kinds)


def _at(path: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``, with ``path`` in front of the message of a domain error."""
    try:
        return make(*args, **kwargs)
    except (InvalidConfigError, InvalidSpecError, np.linalg.LinAlgError) as exc:
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

    KEYS = ("seed", "objective", "workers", "policy", "stop", "noise_sigma",
            "stepsize", "tuning", "x0", "replicas")

    @classmethod
    def from_dict(cls, data: dict, path: str = "config") -> "ExperimentConfig":
        _expect(isinstance(data, dict), path, "must be a JSON object")
        unknown = sorted(set(data) - set(cls.KEYS))
        _expect(not unknown, path, f"unknown keys {unknown}")
        seed = _field(data, "seed", path, int, required=False, default=0)
        _expect(seed >= 0, f"{path}.seed", "must be non-negative")
        objective = _field(data, "objective", path, dict)
        workers = _field(data, "workers", path, list)
        policy = _field(data, "policy", path, dict)
        stop = _field(data, "stop", path, dict)
        sigma = _field(data, "noise_sigma", path, float, required=False, default=0.0)
        _expect(sigma >= 0, f"{path}.noise_sigma", "must be non-negative")
        stepsize = _field(data, "stepsize", path, dict, required=False)
        tuning = _field(data, "tuning", path, dict, required=False)
        x0 = _field(data, "x0", path, list, required=False)
        replicas = _field(data, "replicas", path, int, required=False, default=1)
        _expect(replicas >= 1, f"{path}.replicas", "must be at least 1")
        _expect(stepsize is not None or tuning is not None, path,
                "needs a stepsize block (or a tuning block for the tune command)")
        values = (seed, objective, workers, policy, stop, sigma, stepsize, tuning, x0, replicas)
        filled = {key: value for key, value in zip(cls.KEYS, values) if value is not None}

        problem = _build_objective(objective, seed)
        fleet = _build_workers(workers)
        schedule = _build_policy(policy, len(fleet))
        if isinstance(problem, HeterogeneousFamily):
            _expect(isinstance(schedule, UniformClientSampling), f"{path}.policy",
                    "heterogeneous objectives run under uniform_client_sampling")
            _expect(len(fleet) == problem.n_clients, f"{path}.workers",
                    f"need exactly {problem.n_clients} workers, one per client")
        start = np.zeros(problem.dim)
        if x0 is not None:
            _expect(len(x0) == problem.dim, f"{path}.x0",
                    f"length {len(x0)} does not match objective dimension {problem.dim}")
            start = np.array([_value(v, f"{path}.x0[{i}]", float) for i, v in enumerate(x0)])
        grid, criterion = _build_tuning(tuning or {})
        cfg = cls(filled, problem, fleet, schedule, _build_stop(stop), NoiseModel(sigma),
                  start, grid, criterion, None)
        if stepsize is not None:
            # tune supplies eta itself: a block without one is checked at a grid value
            tuned = stepsize.get("eta") is None and stepsize.get("kind") != "theoretical"
            rule = cfg.build_stepsize(grid[0] if tuned else None)
            cfg = cfg if tuned else cfg._replace(stepsize=rule)
        return cfg

    def build_stepsize(self, eta: Optional[float] = None):
        """The configured stepsize rule, with base stepsize ``eta`` when one is given."""
        path = "config.stepsize"
        spec = self.data.get("stepsize")
        _expect(spec is not None, path, "is required to run")
        kind = _field(spec, "kind", path, str)
        # the policy's own concurrency: its jobs in flight, its batch size or the fleet
        concurrency = _field(spec, "concurrency", path, int, required=False,
                             default=getattr(self.policy, "concurrency",
                                             getattr(self.policy, "batch_size",
                                                     len(self.workers))))
        lipschitz = _field(spec, "lipschitz", path, float, required=False,
                           default=self.objective.smoothness)
        if kind == "constant":
            return _at(path, ConstantStepsize,
                       eta if eta is not None else _field(spec, "eta", path, float))
        if kind == "delay_adaptive":
            return _at(path, DelayAdaptiveStepsize,
                       eta if eta is not None else _field(spec, "eta", path, float),
                       lipschitz, concurrency,
                       _field(spec, "mode", path, str, required=False, default="scale"))
        if kind == "theoretical":
            _expect(eta is None, path, "the theoretical stepsize cannot be grid-tuned")
            gap = _field(spec, "initial_gap", path, float, required=False)
            return _at(
                path, TheoreticalConstantStepsize,
                lipschitz=lipschitz,
                max_delay=_field(spec, "max_delay", path, float, required=False,
                                 default=float(concurrency)),
                concurrency=float(concurrency),
                sigma=self.noise.sigma,
                initial_gap=gap if gap is not None else self.objective.value(self.x0),
                horizon=self.stop.max_iterations,
            )
        raise InvalidConfigError(f"{path}.kind: unknown stepsize {kind!r}")


def _build_objective(spec: dict, default_seed: int):
    path = "config.objective"
    family = _field(spec, "family", path, str)
    seed = _field(spec, "seed", path, int, required=False, default=default_seed)
    if family == "logistic":
        return _at(path, make_logistic, _field(spec, "n_samples", path, int),
                   _field(spec, "dim", path, int), seed)
    _expect(family in ("quadratic", "heterogeneous"), f"{path}.family",
            f"unknown family {family!r}")
    quadratic = _at(path, make_quadratic, _field(spec, "dim", path, int),
                    _field(spec, "lambda_min", path, float),
                    _field(spec, "lambda_max", path, float), seed)
    if family == "quadratic":
        return quadratic
    return _at(path, make_heterogeneous, quadratic, _field(spec, "n_clients", path, int),
               _field(spec, "zeta", path, float), seed + 1)


def _build_workers(items: list) -> list:
    out = []
    for idx, item in enumerate(items):
        path = f"config.workers[{idx}]"
        _expect(isinstance(item, dict), path, "must be an object")
        count = _field(item, "count", path, int, required=False, default=1)
        _expect(count >= 1, f"{path}.count", "must be at least 1")
        kind = _field(item, "time", path, str)
        _expect(kind in TIME_MODELS, f"{path}.time", f"unknown model {kind!r}")
        make, keys = TIME_MODELS[kind]
        model = _at(path, make, *(_field(item, key, path, float) for key in keys))
        out.extend([model] * count)
    _expect(len(out) >= 1, "config.workers", "must describe at least one worker")
    return out


def _build_policy(spec: dict, n_workers: int):
    path = "config.policy"
    kind = _field(spec, "kind", path, str)
    if kind == "max_concurrency":
        return MaxConcurrency()
    if kind == "minibatch":
        size = _field(spec, "batch_size", path, int, required=False, default=n_workers)
        _expect(size == n_workers, f"{path}.batch_size",
                f"must equal the fleet size {n_workers}, got {size}")
        return MiniBatch()
    if kind == "sampled_minibatch":
        size = _field(spec, "batch_size", path, int)
        return _at(f"{path}.batch_size", SampledMiniBatch, size)
    if kind == "uniform_client_sampling":
        concurrency = _field(spec, "concurrency", path, int)
        return _at(f"{path}.concurrency", UniformClientSampling, concurrency)
    raise InvalidConfigError(f"{path}.kind: unknown policy {kind!r}")


def _build_stop(spec: dict) -> StopRule:
    path = "config.stop"
    tolerances = {key: _field(spec, key, path, float, required=False)
                  for key in ("grad_tol", "last_k_tol")}
    for key, tol in tolerances.items():
        _expect(tol is None or tol >= 0, f"{path}.{key}", f"must be non-negative, got {tol}")
    diverge_above = _field(spec, "diverge_above", path, float, required=False, default=1e100)
    _expect(diverge_above > 0, f"{path}.diverge_above",
            f"must be positive, got {diverge_above}")
    improvement = _field(spec, "stall_improvement", path, float, required=False, default=1e-3)
    # a relative drop of 1 or more would call every run stalled
    _expect(0 <= improvement < 1, f"{path}.stall_improvement",
            f"must lie in [0, 1), got {improvement}")
    return _at(
        path, StopRule,
        max_iterations=_field(spec, "max_iterations", path, int),
        **tolerances,
        last_k=_field(spec, "last_k", path, int, required=False, default=30),
        diverge_above=diverge_above,
        require_quiescent=_field(spec, "require_quiescent", path, bool,
                                 required=False, default=False),
        stall_window=_field(spec, "stall_window", path, int, required=False),
        stall_improvement=improvement,
    )


def _build_tuning(spec: dict) -> tuple[list[float], str]:
    """The stepsize grid and the criterion of a tuning block."""
    path = "config.tuning"
    criterion = _field(spec, "criterion", path, str, required=False, default="min_T_to_eps")
    _expect(criterion in TUNING_CRITERIA, f"{path}.criterion",
            f"must be one of {list(TUNING_CRITERIA)}, got {criterion!r}")
    values = _field(spec, "values", path, list, required=False)
    if values is not None:
        _expect(len(values) > 0, f"{path}.values", "must be a non-empty list")
        grid = [_value(v, f"{path}.values[{i}]", float) for i, v in enumerate(values)]
        for i, eta in enumerate(grid):
            _expect(eta > 0, f"{path}.values[{i}]", f"must be positive, got {eta}")
        return grid, criterion
    points = _field(spec, "points_per_decade", path, int, required=False, default=4)
    low = _field(spec, "low", path, float, required=False, default=1e-5)
    high = _field(spec, "high", path, float, required=False, default=1e2)
    _expect(points >= 1, f"{path}.points_per_decade", f"must be at least 1, got {points}")
    _expect(low > 0, f"{path}.low", f"must be positive, got {low}")
    _expect(high > low, f"{path}.high", f"must exceed low ({low}), got {high}")
    return default_log_grid(points, low, high), criterion


def load_config(path: str) -> ExperimentConfig:
    try:
        data = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise InvalidConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
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
    """``grid_tune`` of ``make_stepsize(eta)`` over ``grid``, answered from one lockstep run.

    grid_tune's first ``run(eta, budget)`` call runs every stepsize at once
    with ``run_grid``, largest first and, under ``min_T_to_eps``, with the
    dominance budgets that grid_tune hands out; each call then takes the
    next outcome that the lockstep run did not skip.
    """
    pending = None

    def run(eta: float, budget: Optional[int]) -> TuneOutcome:
        nonlocal pending
        if pending is None:
            etas = sorted((float(g) for g in grid), reverse=True)
            outcomes = run_grid(objective, noise, workers, policy,
                                [make_stepsize(e) for e in etas], x0, stop, master_seed=seed,
                                dominance=criterion == "min_T_to_eps")
            pending = iter([(e, o) for e, o in zip(etas, outcomes) if o is not None])
        point, outcome = next(pending)
        if point != eta:
            raise RuntimeError(f"grid_tune asked for eta {eta}; the lockstep run's next "
                               f"point is {point}")
        return outcome

    return grid_tune(run, grid, criterion, stop.max_iterations)


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


def _scaling_point(objective, slow_factor: float, epsilon: float, grid: list[float],
                   max_iterations: int, seed: int) -> ScalingPoint:
    workers = constant_fleet([1.0, float(slow_factor)])
    # quiescent stop: the sweep measures iterations until the accuracy is
    # reached for good, so a straggler gradient still in flight must not be
    # allowed to invalidate the certified error after the fact.  The stall
    # window has to outlast the flat stretch while the slow worker computes.
    stop = StopRule(max_iterations=max_iterations, last_k_tol=epsilon, last_k=30,
                    diverge_above=1e8, require_quiescent=True,
                    stall_window=max(2000, 4 * int(slow_factor)))
    x0 = np.zeros(objective.dim)
    noise = NoiseModel(0.0)
    result = tune(objective, noise, workers, MaxConcurrency(), ConstantStepsize, x0, stop, seed,
                  grid, "min_T_to_eps")
    best = run_homogeneous(objective, noise, workers, MaxConcurrency(),
                           ConstantStepsize(result.best_eta), x0, stop, master_seed=seed)
    observed = metrics_mod.max_delay(best.ledger)
    return ScalingPoint(
        slow_factor=float(slow_factor),
        observed_max_delay=observed,
        sqrt_max_delay=math.sqrt(observed),
        tuned_eta=result.best_eta,
        eta_on_grid_edge=result.best_on_grid_edge,
        iterations_to_target=len(best),
        sim_time_to_target=best.total_sim_time,
        final_error=metrics_mod.last_k_error(best),
    )


def scaling_experiment(preset: str, slow_factors: list[float], epsilon: float = 1e-14,
                       points_per_decade: int = 4, max_iterations: int = 200_000,
                       seed: int = 0) -> ScalingReport:
    """Tune and run the two-worker straggler sweep for one problem preset."""
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
    if len(points) >= 3:
        fit = fit_line([p.sqrt_max_delay for p in points],
                       [p.iterations_to_target for p in points])
    else:
        warnings.append("fewer than 3 points; no fit computed")
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
        out.extend([number] * repeat)
    _expect(bool(out), flag, "empty list")
    return out


def parse_deltas(spec: str) -> list[float]:
    """Parse a fleet spec like "10:900,60:100" (speed:count) or "1,3,5"."""
    return _parse_numbers(spec, "--deltas", counted=True)


def cmd_speedup(args) -> int:
    deltas = parse_deltas(args.deltas)
    inp = speedup_mod.SpeedupInput(tuple(deltas), args.concurrency)
    weights = speedup_mod.minibatch_weights(inp.n_clients, inp.concurrency)
    oracle = speedup_mod.minibatch_time_oracle(inp, method=args.oracle,
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


# numeric flags with a bounded domain, checked before any command runs:
# destination -> (flag, test, what the test asks)
FLAG_BOUNDS = {
    "seed": ("--seed", lambda v: v >= 0, "must be non-negative"),
    "epsilon": ("--epsilon", lambda v: 0 <= v < math.inf, "must be finite and non-negative"),
    "max_iterations": ("--max-iterations", lambda v: v >= 1, "must be at least 1"),
    "points_per_decade": ("--points-per-decade", lambda v: v >= 1, "must be at least 1"),
    "mc_samples": ("--mc-samples", lambda v: v >= 2, "must be at least 2"),
    "fuzz_configs": ("--fuzz-configs", lambda v: v >= 1, "must be at least 1"),
}


def _check_flags(args) -> None:
    for dest, (flag, ok, rule) in FLAG_BOUNDS.items():
        value = getattr(args, dest, None)
        _expect(value is None or ok(value), flag, f"{rule}, got {value}")


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
