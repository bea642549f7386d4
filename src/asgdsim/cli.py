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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

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
    WorkerModel,
    constant_fleet,
    run_heterogeneous,
    run_homogeneous,
)
from .errors import InvalidConfigError, InvalidSpecError, SimulatorError, TuningFailedError
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
    ConstantStepsize,
    DelayAdaptiveStepsize,
    TheoreticalConstantStepsize,
    TuneOutcome,
    adaptive_eta_bounds,
    default_log_grid,
    grid_tune,
)
from .verify import run_all as run_all_checks


# ---------------------------------------------------------------------------
# configuration


def _expect(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise InvalidConfigError(f"{path}: {message}")


def _field(data: dict, key: str, path: str, kinds, required: bool = True, default=None):
    if key not in data or data[key] is None:
        _expect(not required, f"{path}.{key}", "is required")
        return default
    value = data[key]
    if kinds is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    _expect(isinstance(value, kinds) and (kinds is bool or not isinstance(value, bool)),
            f"{path}.{key}", f"expected {kinds}, got {type(value).__name__}")
    _expect(not isinstance(value, float) or math.isfinite(value),
            f"{path}.{key}", f"must be finite, got {value}")
    return value


@dataclass
class ExperimentConfig:
    """Plain-data description of one run; round-trips losslessly through JSON."""

    seed: int
    objective: dict
    workers: list
    policy: dict
    stop: dict
    noise_sigma: float = 0.0
    stepsize: Optional[dict] = None
    tuning: Optional[dict] = None
    x0: Optional[list] = None
    replicas: int = 1

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
        cfg = cls(seed, objective, list(workers), policy, stop, sigma,
                  stepsize, tuning, list(x0) if x0 is not None else None, replicas)
        # fail fast on bad sub-blocks
        cfg.build_workers()
        obj = cfg.build_objective()
        cfg.build_policy(n_workers=len(cfg.build_workers()))
        cfg.build_stop()
        if x0 is not None:
            _expect(len(x0) == obj.dim, f"{path}.x0",
                    f"length {len(x0)} does not match objective dimension {obj.dim}")
        return cfg

    def to_dict(self) -> dict:
        out = {
            "seed": self.seed,
            "objective": self.objective,
            "workers": self.workers,
            "policy": self.policy,
            "stop": self.stop,
            "noise_sigma": self.noise_sigma,
            "replicas": self.replicas,
        }
        if self.stepsize is not None:
            out["stepsize"] = self.stepsize
        if self.tuning is not None:
            out["tuning"] = self.tuning
        if self.x0 is not None:
            out["x0"] = self.x0
        return out

    # -- builders ----------------------------------------------------------

    def build_objective(self, seed: Optional[int] = None):
        spec = self.objective
        path = "config.objective"
        family = _field(spec, "family", path, str)
        seed = seed if seed is not None else _field(spec, "seed", path, int,
                                                    required=False, default=self.seed)
        try:
            return self._make_objective(spec, path, family, seed)
        except (InvalidSpecError, np.linalg.LinAlgError) as exc:
            raise InvalidConfigError(f"{path}: {exc}") from exc

    @staticmethod
    def _make_objective(spec: dict, path: str, family: str, seed: int):
        if family == "quadratic":
            return make_quadratic(
                _field(spec, "dim", path, int),
                _field(spec, "lambda_min", path, float),
                _field(spec, "lambda_max", path, float),
                seed,
            )
        if family == "logistic":
            return make_logistic(
                _field(spec, "n_samples", path, int),
                _field(spec, "dim", path, int),
                seed,
            )
        if family == "heterogeneous":
            base = make_quadratic(
                _field(spec, "dim", path, int),
                _field(spec, "lambda_min", path, float),
                _field(spec, "lambda_max", path, float),
                seed,
            )
            return make_heterogeneous(
                base,
                _field(spec, "n_clients", path, int),
                _field(spec, "zeta", path, float),
                seed + 1,
            )
        raise InvalidConfigError(f"{path}.family: unknown family {family!r}")

    def build_workers(self) -> list[WorkerModel]:
        out: list[WorkerModel] = []
        for idx, item in enumerate(self.workers):
            path = f"config.workers[{idx}]"
            _expect(isinstance(item, dict), path, "must be an object")
            count = _field(item, "count", path, int, required=False, default=1)
            _expect(count >= 1, f"{path}.count", "must be at least 1")
            kind = _field(item, "time", path, str)
            if kind == "constant":
                model = ConstantTime(_field(item, "delta", path, float))
            elif kind == "lognormal":
                model = LogNormalTime(
                    _field(item, "mu", path, float),
                    _field(item, "sigma", path, float),
                )
            elif kind == "straggler":
                model = StragglerTime(
                    _field(item, "delta", path, float),
                    _field(item, "slow_factor", path, float),
                    _field(item, "straggle_prob", path, float),
                )
            else:
                raise InvalidConfigError(f"{path}.time: unknown model {kind!r}")
            for _ in range(count):
                out.append(WorkerModel(len(out), model))
        _expect(len(out) >= 1, "config.workers", "must describe at least one worker")
        return out

    def build_policy(self, n_workers: int):
        spec = self.policy
        path = "config.policy"
        kind = _field(spec, "kind", path, str)
        if kind == "max_concurrency":
            return MaxConcurrency()
        if kind == "minibatch":
            return MiniBatch(_field(spec, "batch_size", path, int, required=False,
                                    default=n_workers))
        if kind == "sampled_minibatch":
            return SampledMiniBatch(_field(spec, "batch_size", path, int))
        if kind == "uniform_client_sampling":
            return UniformClientSampling(_field(spec, "concurrency", path, int))
        raise InvalidConfigError(f"{path}.kind: unknown policy {kind!r}")

    def build_stop(self) -> StopRule:
        spec = self.stop
        path = "config.stop"
        tolerances = {key: _field(spec, key, path, float, required=False)
                      for key in ("grad_tol", "last_k_tol")}
        for key, tol in tolerances.items():
            _expect(tol is None or tol >= 0, f"{path}.{key}", f"must be non-negative, got {tol}")
        return StopRule(
            max_iterations=_field(spec, "max_iterations", path, int),
            **tolerances,
            last_k=_field(spec, "last_k", path, int, required=False, default=30),
            diverge_above=_field(spec, "diverge_above", path, float,
                                 required=False, default=1e100),
            require_quiescent=_field(spec, "require_quiescent", path, bool,
                                     required=False, default=False),
            stall_window=_field(spec, "stall_window", path, int, required=False),
            stall_improvement=_field(spec, "stall_improvement", path, float,
                                     required=False, default=1e-3),
        )

    def _policy_concurrency(self, n_workers: int) -> int:
        kind = self.policy.get("kind")
        if kind == "uniform_client_sampling":
            return int(self.policy["concurrency"])
        if kind in ("minibatch", "sampled_minibatch"):
            return int(self.policy.get("batch_size", n_workers))
        return n_workers

    def build_stepsize(self, objective, x0: np.ndarray, eta: Optional[float] = None):
        spec = self.stepsize
        path = "config.stepsize"
        _expect(spec is not None, path, "is required to run")
        kind = _field(spec, "kind", path, str)
        n_workers = len(self.build_workers())
        concurrency = _field(spec, "concurrency", path, int, required=False,
                             default=self._policy_concurrency(n_workers))
        if kind == "constant":
            value = eta if eta is not None else _field(spec, "eta", path, float)
            return ConstantStepsize(value)
        if kind == "delay_adaptive":
            value = eta if eta is not None else _field(spec, "eta", path, float)
            return DelayAdaptiveStepsize(
                eta=value,
                lipschitz=_field(spec, "lipschitz", path, float, required=False,
                                 default=objective.smoothness),
                concurrency=concurrency,
                mode=_field(spec, "mode", path, str, required=False, default="scale"),
            )
        if kind == "theoretical":
            _expect(eta is None, path, "the theoretical stepsize cannot be grid-tuned")
            stop = self.build_stop()
            gap = _field(spec, "initial_gap", path, float, required=False)
            if gap is None:
                gap = objective.value(x0)
            return TheoreticalConstantStepsize(
                lipschitz=_field(spec, "lipschitz", path, float, required=False,
                                 default=objective.smoothness),
                max_delay=_field(spec, "max_delay", path, float, required=False,
                                 default=float(concurrency)),
                concurrency=float(concurrency),
                sigma=self.noise_sigma,
                initial_gap=gap,
                horizon=stop.max_iterations,
            )
        raise InvalidConfigError(f"{path}.kind: unknown stepsize {kind!r}")

    def initial_point(self, objective) -> np.ndarray:
        if self.x0 is None:
            return np.zeros(objective.dim)
        return np.asarray(self.x0, dtype=float)


def load_config(path: str) -> ExperimentConfig:
    try:
        data = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise InvalidConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise InvalidConfigError(f"config is not valid JSON: {exc}")
    return ExperimentConfig.from_dict(data)


def run_config(cfg: ExperimentConfig, master_seed: int, eta: Optional[float] = None,
               stop: Optional[StopRule] = None, record_iterates: bool = False):
    """Build every component of ``cfg`` and run it once."""
    objective = cfg.build_objective()
    workers = cfg.build_workers()
    policy = cfg.build_policy(len(workers))
    stop = stop if stop is not None else cfg.build_stop()
    x0 = cfg.initial_point(objective)
    stepsize = cfg.build_stepsize(objective, x0, eta=eta)
    noise = NoiseModel(cfg.noise_sigma)
    if isinstance(objective, HeterogeneousFamily):
        _expect(isinstance(policy, UniformClientSampling), "config.policy",
                "heterogeneous objectives run under uniform_client_sampling")
        _expect(len(workers) == objective.n_clients, "config.workers",
                f"need exactly {objective.n_clients} workers, one per client")
        return run_heterogeneous(objective, noise, workers, policy.concurrency,
                                 stepsize, x0, stop, master_seed=master_seed,
                                 record_iterates=record_iterates)
    return run_homogeneous(objective, noise, workers, policy, stepsize, x0, stop,
                           master_seed=master_seed, record_iterates=record_iterates)


# ---------------------------------------------------------------------------
# tuning plumbing


def make_tuning_runner(cfg: ExperimentConfig, master_seed: int):
    base_stop = cfg.build_stop()

    def run(eta: float, budget: Optional[int]) -> TuneOutcome:
        stop = base_stop
        if budget is not None and budget < stop.max_iterations:
            stop = replace(stop, max_iterations=budget)
        trace = run_config(cfg, master_seed, eta=eta, stop=stop)
        reached = trace.converged and stop.has_target
        return TuneOutcome(
            iterations_to_target=len(trace) if reached else None,
            final_error=metrics_mod.last_k_error(trace, warn_short=False) if len(trace) else math.inf,
            diverged=trace.diverged,
        )

    return run


def tuning_grid(cfg: ExperimentConfig) -> list[float]:
    spec = cfg.tuning or {}
    path = "config.tuning"
    if "values" in spec and spec["values"] is not None:
        values = spec["values"]
        _expect(isinstance(values, list) and values, f"{path}.values",
                "must be a non-empty list")
        return [float(v) for v in values]
    return default_log_grid(
        points_per_decade=int(spec.get("points_per_decade", 4)),
        low=float(spec.get("low", 1e-5)),
        high=float(spec.get("high", 1e2)),
    )


# ---------------------------------------------------------------------------
# commands


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    seed = args.seed if args.seed is not None else cfg.seed
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stop = cfg.build_stop()
    exit_code = 0
    for replica in range(cfg.replicas):
        master = seed + replica
        trace = run_config(cfg, master)
        suffix = f"_r{replica}" if cfg.replicas > 1 else ""
        trace.to_csv(out / f"trace{suffix}.csv")
        payload = metrics_mod.summary(trace)
        payload["master_seed"] = master
        write_json(out / f"metrics{suffix}.json", payload)
        if stop.has_target and not trace.converged:
            exit_code = 2
    write_json(out / "config.json", cfg.to_dict() | {"seed": seed})
    print(f"simulate: wrote {cfg.replicas} run(s) to {out}")
    return exit_code


def cmd_tune(args) -> int:
    cfg = load_config(args.config)
    _expect(cfg.stepsize is not None, "config.stepsize", "is required for tuning")
    seed = args.seed if args.seed is not None else cfg.seed
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    criterion = (cfg.tuning or {}).get("criterion", "min_T_to_eps")
    stop = cfg.build_stop()
    if criterion == "min_T_to_eps":
        _expect(stop.has_target, "config.stop",
                "min_T_to_eps tuning needs grad_tol or last_k_tol")
    grid = tuning_grid(cfg)
    runner = make_tuning_runner(cfg, seed)
    try:
        result = grid_tune(runner, grid, criterion=criterion,
                           max_iterations=stop.max_iterations)
    except TuningFailedError as exc:
        print(f"tune: failed: {exc}", file=sys.stderr)
        write_json(out / "tuning.json", {"failed": True, "points": exc.points})
        return 2
    payload = result.to_dict()
    if cfg.stepsize.get("kind") == "delay_adaptive":
        objective = cfg.build_objective()
        concurrency = cfg._policy_concurrency(len(cfg.build_workers()))
        payload["adaptive_eta_bounds"] = adaptive_eta_bounds(
            cfg.stepsize.get("lipschitz", objective.smoothness), concurrency
        )
    best = run_config(cfg, seed, eta=result.best_eta)
    best.to_csv(out / "best_trace.csv")
    write_json(out / "best_metrics.json", metrics_mod.summary(best))
    write_json(out / "tuning.json", payload)
    edge_note = " (on grid edge!)" if result.best_on_grid_edge else ""
    print(f"tune: best eta {result.best_eta:g}{edge_note}, metric {result.best_metric:g}")
    return 0


def _scaling_point(preset: str, objective, slow_factor: float, epsilon: float,
                   grid: list[float], max_iterations: int, seed: int) -> ScalingPoint:
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

    def run(eta: float, budget: Optional[int]) -> TuneOutcome:
        stop_eff = stop if budget is None or budget >= stop.max_iterations else replace(
            stop, max_iterations=budget)
        trace = run_homogeneous(objective, noise, workers, MaxConcurrency(),
                                ConstantStepsize(eta), x0, stop_eff, master_seed=seed)
        return TuneOutcome(
            iterations_to_target=len(trace) if trace.converged else None,
            final_error=metrics_mod.last_k_error(trace, warn_short=False),
            diverged=trace.diverged,
        )

    result = grid_tune(run, grid, criterion="min_T_to_eps")
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
                       seed: int = 0, threads: int = 1) -> ScalingReport:
    """Tune and run the two-worker straggler sweep for one problem preset."""
    if preset == "quadratic":
        objective = make_quadratic(10, 1.0, 2.0, seed=seed)
    elif preset == "logistic":
        objective = make_logistic(100, 20, seed=seed)
    else:
        raise InvalidConfigError(f"preset: unknown preset {preset!r}")
    if len(slow_factors) < 2:
        raise InvalidConfigError("scaling needs at least 2 slow factors")
    grid = default_log_grid(points_per_decade=points_per_decade)

    def one(x: float) -> ScalingPoint:
        return _scaling_point(preset, objective, x, epsilon, grid, max_iterations, seed)

    factors = sorted(float(x) for x in slow_factors)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            points = list(pool.map(one, factors))
    else:
        points = [one(x) for x in factors]

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
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    factors = [float(tok) for tok in args.slow_factors.split(",") if tok]
    report = scaling_experiment(
        args.preset, factors, epsilon=args.epsilon,
        points_per_decade=args.points_per_decade,
        max_iterations=args.max_iterations, seed=args.seed or 0,
        threads=args.threads,
    )
    write_json(out / "scaling.json", report.to_dict())
    write_csv(
        out / "scaling.csv",
        ("slow_factor", "observed_max_delay", "sqrt_max_delay", "tuned_eta",
         "eta_on_grid_edge", "iterations_to_target", "sim_time_to_target", "final_error"),
        [
            (p.slow_factor, p.observed_max_delay, p.sqrt_max_delay, p.tuned_eta,
             int(p.eta_on_grid_edge), p.iterations_to_target, p.sim_time_to_target,
             p.final_error)
            for p in report.points
        ],
    )
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
    seed = args.seed if args.seed is not None else cfg.seed
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    objective = cfg.build_objective()
    _expect(not isinstance(objective, HeterogeneousFamily), "config.objective",
            "compare runs homogeneous fleets")
    workers = cfg.build_workers()
    n = len(workers)
    stop = cfg.build_stop()
    _expect(stop.has_target, "config.stop", "compare needs grad_tol or last_k_tol")
    x0 = cfg.initial_point(objective)
    noise = NoiseModel(cfg.noise_sigma)
    grid = tuning_grid(cfg) if cfg.tuning else default_log_grid(points_per_decade=2)

    def tune_policy(policy):
        def run(eta: float, budget: Optional[int]) -> TuneOutcome:
            stop_eff = stop if budget is None or budget >= stop.max_iterations else replace(
                stop, max_iterations=budget)
            trace = run_homogeneous(objective, noise, workers, policy,
                                    ConstantStepsize(eta), x0, stop_eff, master_seed=seed)
            return TuneOutcome(len(trace) if trace.converged else None,
                               metrics_mod.last_k_error(trace, warn_short=False), trace.diverged)

        return grid_tune(run, grid, criterion="min_T_to_eps")

    async_tuned = tune_policy(MaxConcurrency())
    minibatch_tuned = tune_policy(MiniBatch(batch_size=n))
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
        "minibatch": (MiniBatch(batch_size=n), ConstantStepsize(minibatch_tuned.best_eta)),
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
    for name, info in table.items():
        print(f"compare[{name}]: eta {info['eta']:g}, iterations {info['iterations']}, "
              f"sim time {info['total_sim_time']:g}, converged {info['converged']}")
    return exit_code


def parse_deltas(spec: str) -> list[float]:
    """Parse a fleet spec like "10:900,60:100" (speed:count) or "1,3,5"."""
    out: list[float] = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        if ":" in token:
            value, _, count = token.partition(":")
            out.extend([float(value)] * int(count))
        else:
            out.append(float(token))
    if not out:
        raise InvalidConfigError("deltas: empty fleet specification")
    return out


def cmd_speedup(args) -> int:
    deltas = parse_deltas(args.deltas)
    inp = speedup_mod.SpeedupInput(tuple(deltas), args.concurrency)
    weights = speedup_mod.minibatch_weights(inp.n_clients, inp.concurrency)
    oracle = speedup_mod.minibatch_time_oracle(inp, method=args.oracle,
                                               samples=args.mc_samples, seed=args.seed or 0)
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
    results = run_all_checks(fuzz_configs=args.fuzz_configs, seed=args.seed or 20260816)
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
    p.add_argument("--threads", type=int, default=1)
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
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InvalidConfigError, InvalidSpecError) as exc:
        print(f"asgdsim: invalid configuration: {exc}", file=sys.stderr)
        return 1
    except TuningFailedError as exc:
        print(f"asgdsim: tuning failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
