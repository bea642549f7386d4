"""Lockstep grid tuning against the sequential oracle, and the grid race against tuning.

``Case.sequential_tune`` is the oracle: one ``run_homogeneous``/
``run_heterogeneous`` per grid point, as ``tune``, ``compare`` and
``scaling`` ran before the grid ran in lockstep, under its own
``min_T_to_eps`` budget loop (largest stepsize first; once a point reaches
the target in T steps, each later point is capped at T - 1 and skipped when
that is below 1).  ``cli.tune`` takes the budgets from one
``engine.run_grid``; both hand their outcomes to ``select_stepsize``, and
every ``TuningResult`` and every ``TuningFailedError`` point list must be
equal.

``scaling`` races its grid instead (``engine.race_grid``): the lockstep run
ends at the first column to reach the target, and that column is the sweep
point.  ``tuned_and_rerun_point`` is the path it took before, ``cli.tune``
and then a ``run_homogeneous`` rerun of the winner; every ``ScalingPoint``
must be equal, and the race's winner must be ``cli.tune``'s.
"""

import dataclasses
import math

import numpy as np
import pytest

from asgdsim import (
    ConstantStepsize,
    ConstantTime,
    DelayAdaptiveStepsize,
    LogNormalTime,
    MaxConcurrency,
    MiniBatch,
    NoiseModel,
    SampledMiniBatch,
    SimulatorError,
    StopRule,
    StragglerTime,
    TuneOutcome,
    TuningFailedError,
    UniformClientSampling,
    constant_fleet,
    default_log_grid,
    make_heterogeneous,
    make_logistic,
    make_quadratic,
    run_heterogeneous,
    run_homogeneous,
    select_stepsize,
)
from asgdsim import cli, engine, objectives, stepsize
from asgdsim.cli import _scaling_point, _scaling_run, scaling_experiment, tune
from asgdsim.engine import _window_mean, race_grid, run_grid
from asgdsim.metrics import last_k_error, max_delay
from asgdsim.objectives import HeterogeneousFamily
from asgdsim.report import ScalingPoint
from reference_engine import _run as reference_run


@dataclasses.dataclass
class Case:
    objective: object
    noise: NoiseModel
    workers: list
    policy: object
    make_stepsize: object
    x0: np.ndarray
    stop: StopRule
    seed: int
    grid: list
    criterion: str = "min_T_to_eps"

    def simulate(self, eta, stop):
        stepsize = self.make_stepsize(eta)
        if isinstance(self.objective, HeterogeneousFamily):
            return run_heterogeneous(self.objective, self.noise, self.workers,
                                     self.policy.concurrency, stepsize, self.x0, stop,
                                     master_seed=self.seed)
        return run_homogeneous(self.objective, self.noise, self.workers, self.policy,
                               stepsize, self.x0, stop, master_seed=self.seed)

    def lockstep_tune(self):
        return tune(self.objective, self.noise, self.workers, self.policy, self.make_stepsize,
                    self.x0, self.stop, self.seed, self.grid, self.criterion)

    def sequential_tune(self):
        """One run per grid point, largest stepsize first, under the ``min_T_to_eps``
        budgets: after a point reaches the target in T steps, later ones get T - 1."""
        etas = sorted(self.grid, reverse=True)
        outcomes, best = [], math.inf
        for eta in etas:
            stop = self.stop
            if self.criterion == "min_T_to_eps" and best < math.inf:
                if best - 1 < 1:
                    outcomes.append(None)  # cut before its first step
                    continue
                if best - 1 < stop.max_iterations:
                    stop = dataclasses.replace(stop, max_iterations=best - 1)
            trace = self.simulate(eta, stop)
            reached = trace.converged and self.stop.has_target
            outcomes.append(TuneOutcome(len(trace) if reached else None, last_k_error(trace),
                                        trace.diverged))
            if reached:
                best = len(trace)
        return select_stepsize(etas, outcomes, self.criterion)


def outcome(tuning):
    """The result of ``tuning()`` as text (repr keeps NaN apart from inf), or its error."""
    try:
        return repr(tuning())
    except TuningFailedError as exc:
        return ("failed", repr(exc.points))
    except SimulatorError as exc:
        return (type(exc).__name__, str(exc))


def assert_lockstep_matches_sequential(case: Case):
    expected = outcome(case.sequential_tune)
    assert outcome(case.lockstep_tune) == expected
    return expected


def random_case(seed: int) -> Case:
    """A small tuning problem drawn over every family, policy, time model and stop rule."""
    rng = np.random.default_rng(seed)
    family = ["quadratic", "logistic", "heterogeneous"][seed % 3]
    dim = int(rng.choice([2, 3, 10]))
    n = int(rng.integers(1, 5))
    if family == "logistic":
        objective = make_logistic(int(rng.integers(5, 40)), dim, seed)
    else:
        objective = make_quadratic(dim, 1.0, float(rng.uniform(1.5, 4.0)), seed)
    if family == "heterogeneous":
        objective = make_heterogeneous(objective, n, float(rng.uniform(0.0, 1.0)), seed + 1)
        policy = UniformClientSampling(int(rng.integers(1, 5)))
    else:
        policy = [MaxConcurrency(), MiniBatch(), SampledMiniBatch(int(rng.integers(1, 5))),
                  UniformClientSampling(int(rng.integers(1, 5)))][int(rng.integers(4))]
    times = [ConstantTime(float(rng.uniform(0.5, 3.0))),
             LogNormalTime(float(rng.uniform(-1.0, 1.0)), float(rng.uniform(0.0, 1.0))),
             StragglerTime(1.0, float(rng.uniform(2.0, 20.0)), 0.2)]
    workers = [times[int(rng.integers(3))] for _ in range(n)]
    noise = NoiseModel(float(rng.choice([0.0, 0.0, 0.01, 0.1])))

    target = int(rng.integers(4))  # none, grad_tol, last_k_tol, both
    grad_tol = float(10.0 ** rng.uniform(-4, -1)) if target in (1, 3) else None
    last_k_tol = float(10.0 ** rng.uniform(-4, -1)) if target >= 2 else None
    stall = last_k_tol is not None and rng.random() < 0.5
    stop = StopRule(
        max_iterations=int(rng.integers(20, 300)), grad_tol=grad_tol, last_k_tol=last_k_tol,
        last_k=int(rng.integers(1, 40)), diverge_above=float(rng.choice([1e100, 1e3])),
        require_quiescent=bool(rng.random() < 0.3),
        stall_window=int(rng.integers(5, 60)) if stall else None,
        stall_improvement=float(rng.choice([1e-3, 0.1])),
    )
    criterion = "min_final_error" if target == 0 or rng.random() < 0.3 else "min_T_to_eps"

    if rng.random() < 0.5:
        make_stepsize = ConstantStepsize
    else:
        lipschitz = objective.smoothness
        concurrency = int(rng.integers(1, 4))
        mode = ["scale", "drop"][int(rng.integers(2))]

        def make_stepsize(eta):
            return DelayAdaptiveStepsize(eta, lipschitz, concurrency, mode)
    if rng.random() < 0.7:
        grid = default_log_grid(int(rng.integers(1, 3)), 1e-3, float(rng.choice([1.0, 100.0])))
    else:  # an explicit list, duplicates allowed
        grid = [float(v) for v in rng.choice([0.01, 0.05, 0.1, 0.3, 1.0], size=4)]
    return Case(objective, noise, workers, policy, make_stepsize,
                rng.standard_normal(dim), stop, int(rng.integers(0, 1000)), grid, criterion)


@pytest.mark.parametrize("seed", range(90))
def test_lockstep_tuning_matches_sequential_oracle(seed):
    assert_lockstep_matches_sequential(random_case(seed))


def reference_outcome(case: Case, rule) -> TuneOutcome:
    """What one grid column must report: its full run through the engine that
    predates the schedule/iterate split."""
    trace = reference_run(case.objective, case.noise, case.workers, case.policy, rule, case.x0,
                          case.stop, case.seed)
    return TuneOutcome(len(trace) if trace.converged and case.stop.has_target else None,
                       last_k_error(trace), trace.diverged)


@pytest.mark.parametrize("seed", range(0, 90, 6))
def test_lockstep_columns_match_the_reference_engine(seed):
    case = random_case(seed)
    rules = [case.make_stepsize(eta) for eta in case.grid]

    def columns():
        return run_grid(case.objective, case.noise, case.workers, case.policy, rules,
                        case.x0, case.stop, master_seed=case.seed)

    def sequential():
        return [reference_outcome(case, rule) for rule in rules]

    assert outcome(columns) == outcome(sequential)


def test_block_shrinking_to_one_column_matches_the_reference_engine():
    """Noisy client sampling over a family, with a straggler: the block drops to one column
    while jobs are in flight, and the survivor (not the block's first row) then waits for
    them under ``require_quiescent``."""
    family = make_heterogeneous(make_quadratic(4, 1.0, 2.0, seed=5), 4, 0.05, seed=6)
    workers = [ConstantTime(1.0), ConstantTime(1.3), ConstantTime(1.7),
               StragglerTime(1.0, 30.0, 0.2)]
    stop = StopRule(max_iterations=600, last_k_tol=0.05, last_k=10, require_quiescent=True,
                    diverge_above=1e3)
    case = Case(family, NoiseModel(0.01), workers, UniformClientSampling(3), ConstantStepsize,
                np.ones(4), stop, 11, [2.0, 0.5, 0.02, 0.05, 0.2])
    rules = [ConstantStepsize(eta) for eta in case.grid]
    traces = [reference_run(family, case.noise, workers, case.policy, rule, case.x0, stop,
                            case.seed) for rule in rules]
    ends = [len(trace) for trace in traces]
    survivor = traces[-1]
    assert ends[-1] > max(ends[:-1]) and survivor.stop_reason == "target"
    assert survivor.ledger.concurrency_log[max(ends[:-1])] > 0  # jobs in flight at the switch
    hasty = case.simulate(case.grid[-1], dataclasses.replace(stop, require_quiescent=False))
    assert len(hasty) < ends[-1]

    def columns():
        return run_grid(family, case.noise, workers, case.policy, rules, case.x0, stop,
                        master_seed=case.seed)

    assert outcome(columns) == outcome(lambda: [reference_outcome(case, r) for r in rules])


def assert_panelled_columns_match_single_runs(panelled):
    """``run_grid``'s columns at dim 480 end as their single runs, whether the block
    kernel walks the matrix in its three panels (one BLAS thread) or not."""
    dim = 480
    assert (objectives._panel_edges(dim) is not None) == panelled
    case = Case(make_quadratic(dim, 1.0, 2.0, seed=8), NoiseModel(0.01),
                constant_fleet([1.0, 2.0, 3.0]), MaxConcurrency(), ConstantStepsize,
                np.ones(dim), StopRule(max_iterations=300, grad_tol=1e-2), 9,
                [1.0, 0.3, 0.1, 0.03])

    def columns():
        return run_grid(case.objective, case.noise, case.workers, case.policy,
                        [ConstantStepsize(eta) for eta in case.grid], case.x0, case.stop,
                        master_seed=case.seed)

    def single_runs():
        traces = [case.simulate(eta, case.stop) for eta in case.grid]
        return [TuneOutcome(len(t) if t.converged else None, last_k_error(t), t.diverged)
                for t in traces]

    assert outcome(columns) == outcome(single_runs)


def test_panelled_columns_match_single_runs(one_blas_thread):
    assert_panelled_columns_match_single_runs(panelled=True)


def test_columns_match_single_runs_under_threaded_blas(at_blas_threads):
    at_blas_threads(2, "import test_lockstep\n"
                       "test_lockstep.assert_panelled_columns_match_single_runs(panelled=False)")


QUAD = make_quadratic(4, 1.0, 2.0, seed=7)


def straggler_case(**stop_fields) -> Case:
    stop = StopRule(**({"max_iterations": 400, "grad_tol": 1e-6} | stop_fields))
    return Case(QUAD, NoiseModel(0.0), constant_fleet([1.0, 3.0]), MaxConcurrency(),
                ConstantStepsize, np.ones(4), stop, 0, default_log_grid(2, 1e-2, 1.0))


class TestEdgeCases:
    def test_equal_columns_leave_the_win_to_the_first(self):
        """Two columns reaching the target at the same step: the later one is capped at T - 1."""
        case = straggler_case()
        first, second = run_grid(case.objective, case.noise, case.workers, case.policy,
                                 [ConstantStepsize(0.1), ConstantStepsize(0.1)], case.x0,
                                 case.stop, dominance=True)
        capped = case.simulate(0.1, dataclasses.replace(
            case.stop, max_iterations=first.iterations_to_target - 1))
        assert first.iterations_to_target is not None
        assert second == TuneOutcome(None, last_k_error(capped), False)
        assert capped.stop_reason == "cap"

        case.grid = [0.03, 0.1, 0.1, 1.0]
        assert_lockstep_matches_sequential(case)

    def test_dominance_caps_only_the_points_after_the_winner(self):
        """The larger stepsizes keep their own ends, one of them past the winner's step T;
        every smaller one is capped at T - 1, one that would reach the target later too."""
        case = straggler_case(grad_tol=1e-3)
        etas = sorted(case.grid, reverse=True)
        outcomes = run_grid(case.objective, case.noise, case.workers, case.policy,
                            [ConstantStepsize(e) for e in etas], case.x0, case.stop,
                            dominance=True)
        full = [case.simulate(eta, case.stop) for eta in etas]
        win = next(k for k, trace in enumerate(full) if trace.stop_reason == "target")
        end = len(full[win])
        assert any(len(trace) > end for trace in full[:win])
        assert any(trace.stop_reason == "target" for trace in full[win + 1:])
        capped = [case.simulate(eta, dataclasses.replace(case.stop, max_iterations=end - 1))
                  for eta in etas[win + 1:]]
        assert outcomes == [
            TuneOutcome(len(trace) if trace.stop_reason == "target" else None,
                        last_k_error(trace), trace.diverged)
            for trace in full[:win + 1] + capped]
        assert all(trace.stop_reason == "cap" for trace in capped)
        assert_lockstep_matches_sequential(case)

    def test_target_at_step_one_skips_every_later_point(self):
        case = straggler_case(grad_tol=1e9)
        outcomes = run_grid(case.objective, case.noise, case.workers, case.policy,
                            [ConstantStepsize(e) for e in sorted(case.grid, reverse=True)],
                            case.x0, case.stop, dominance=True)
        assert outcomes[0].iterations_to_target == 1
        assert outcomes[1:] == [None] * (len(case.grid) - 1)
        result = case.lockstep_tune()
        assert [p.iterations_to_target for p in result.points] == \
            [None] * (len(case.grid) - 1) + [1]
        assert all(math.isnan(p.final_error) for p in result.points[:-1])
        assert_lockstep_matches_sequential(case)

    def test_min_final_error_runs_every_point_to_its_end(self):
        case = straggler_case(grad_tol=None, last_k_tol=1e-3, last_k=10)
        case.criterion = "min_final_error"
        outcomes = run_grid(case.objective, case.noise, case.workers, case.policy,
                            [ConstantStepsize(e) for e in case.grid], case.x0, case.stop)
        for eta, outcome in zip(case.grid, outcomes):
            trace = case.simulate(eta, case.stop)
            assert outcome.final_error == last_k_error(trace)
            assert outcome.diverged == trace.diverged
        assert_lockstep_matches_sequential(case)

    def test_noisy_heterogeneous_client_sampling(self):
        family = make_heterogeneous(make_quadratic(6, 1.0, 2.0, seed=2), 5, 0.5, seed=3)
        case = Case(family, NoiseModel(0.05), constant_fleet([1.0, 1.0, 2.0, 3.0, 8.0]),
                    UniformClientSampling(3), ConstantStepsize, np.zeros(6),
                    StopRule(max_iterations=300, last_k_tol=0.05, last_k=20), 4,
                    default_log_grid(4, 1e-3, 1.0))
        result = assert_lockstep_matches_sequential(case)
        assert "best_eta" in result

    def test_window_target_with_the_newest_norm_above_the_tolerance(self):
        """The lockstep screen skips a window only when its newest norm / k is above the
        tolerance; here the window mean reaches the tolerance while the newest norm is above it."""
        k = 5
        case = Case(QUAD, NoiseModel(0.3), constant_fleet([1.0, 1.3]), MaxConcurrency(),
                    ConstantStepsize, np.ones(4), StopRule(max_iterations=300), 1,
                    [0.02, 0.05, 0.1])
        ref = case.simulate(0.1, case.stop)
        norms = list(ref.grad_norms) + [ref.final_grad_norm]
        means = [_window_mean(norms[t - k + 1:t + 1]) for t in range(k - 1, len(norms))]
        step = next(t for t, mean in enumerate(means, start=k - 1)
                    if mean < min(means[:t - k + 1], default=math.inf) and norms[t] > mean)
        case.stop = StopRule(max_iterations=300, last_k=k, last_k_tol=means[step - k + 1])
        assert case.simulate(0.1, case.stop).stop_reason == "target"
        outcomes = run_grid(case.objective, case.noise, case.workers, case.policy,
                            [ConstantStepsize(0.1)], case.x0, case.stop, master_seed=1)
        assert outcomes[0].iterations_to_target == step
        assert_lockstep_matches_sequential(case)


def race(case: Case):
    """``race_grid`` over ``case.grid``, largest stepsize first: (eta, T) and the schedule."""
    etas = sorted(case.grid, reverse=True)
    won = race_grid(case.objective, case.noise, case.workers, case.policy,
                    [case.make_stepsize(eta) for eta in etas], case.x0, case.stop,
                    master_seed=case.seed)
    if won is None:
        return None
    column, end, _, schedule = won
    return (etas[column], end), schedule


def test_race_winner_is_the_tuned_winner():
    """Every min_T_to_eps case of ``random_case`` 0-89: the race's (eta, T) is ``cli.tune``'s
    (best_eta, best_metric), and a race that no column wins is a failed tuning."""
    won = failed = 0
    for seed in range(90):
        case = random_case(seed)
        if case.criterion != "min_T_to_eps" or len(set(case.grid)) < len(case.grid):
            continue
        try:
            result = case.lockstep_tune()
        except TuningFailedError:
            assert race(case) is None, seed
            failed += 1
            continue
        (eta, end), _ = race(case)
        assert (eta, float(end)) == (result.best_eta, result.best_metric), seed
        won += 1
    assert won >= 10 and failed >= 1


def test_race_tie_goes_to_the_largest_stepsize():
    case = straggler_case(grad_tol=1e9)  # every column reaches it at step 1
    (eta, end), schedule = race(case)
    result = case.lockstep_tune()
    assert (eta, end) == (max(case.grid), 1) == (result.best_eta, result.best_metric)
    assert len(schedule.delays) == 1


def tuned_and_rerun_point(objective, slow_factor, epsilon, grid, max_iterations, seed):
    """The sweep point through ``cli.tune`` and a ``run_homogeneous`` rerun of its winner."""
    workers, stop = _scaling_run(slow_factor, epsilon, max_iterations)
    x0, noise = np.zeros(objective.dim), NoiseModel(0.0)
    result = tune(objective, noise, workers, MaxConcurrency(), ConstantStepsize, x0, stop, seed,
                  grid, "min_T_to_eps")
    best = run_homogeneous(objective, noise, workers, MaxConcurrency(),
                           ConstantStepsize(result.best_eta), x0, stop, master_seed=seed)
    observed = max_delay(best.ledger)
    return ScalingPoint(float(slow_factor), observed, math.sqrt(observed), result.best_eta,
                        result.best_on_grid_edge, len(best), float(best.sim_times[-1]),
                        last_k_error(best))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("preset", ["quadratic", "logistic"])
def test_raced_scaling_points_equal_tuned_and_rerun_points(preset, seed):
    objective = make_quadratic(10, 1.0, 2.0, seed=seed) if preset == "quadratic" \
        else make_logistic(100, 20, seed=seed)
    grid = default_log_grid(points_per_decade=4)
    for slow_factor in (1, 3, 16, 100):
        args = (objective, slow_factor, 1e-14, grid, 200_000, seed)
        assert _scaling_point(*args) == tuned_and_rerun_point(*args), slow_factor


def test_scaling_runs_no_tuning_and_no_rerun(monkeypatch):
    """The sweep steps only through its races: each stops its schedule at the winner's T."""
    def refuse(*args, **kwargs):
        raise AssertionError("called")

    for module in (cli, stepsize):
        monkeypatch.setattr(module, "select_stepsize", refuse)
    for module in (cli, engine):
        monkeypatch.setattr(module, "run_homogeneous", refuse)
    schedules = []

    class Recorded(engine.Schedule):
        def __init__(self, *args):
            super().__init__(*args)
            schedules.append(self)

    monkeypatch.setattr(engine, "Schedule", Recorded)
    report = scaling_experiment("quadratic", [1, 4, 16])
    assert len(schedules) == 3
    assert sum(len(schedule.delays) for schedule in schedules) == \
        sum(point.iterations_to_target for point in report.points)
