import csv
import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from asgdsim import (
    ConstantStepsize,
    ConstantTime,
    CustomSelection,
    InvalidConfigError,
    InvalidSelectionError,
    LogNormalTime,
    MaxConcurrency,
    MiniBatch,
    NoiseModel,
    QuadraticObjective,
    RunTrace,
    SampledMiniBatch,
    SimulationDeadlockError,
    StopRule,
    StragglerTime,
    UniformClientSampling,
    constant_fleet,
    make_heterogeneous,
    make_quadratic,
    run_heterogeneous,
    run_homogeneous,
)
from asgdsim import engine, metrics
from asgdsim.rng import named_stream


QUAD = make_quadratic(4, 1.0, 2.0, seed=7)
NO_NOISE = NoiseModel(0.0)
X0 = np.zeros(4)


class ScriptedTime:
    """A compute-time model that returns the given durations in turn."""

    def __init__(self, *durations):
        self.durations = iter(durations)

    def sample(self, rng):
        return next(self.durations)


def simple_run(workers, policy, max_iterations, stepsize=None, seed=0):
    return run_homogeneous(
        QUAD, NO_NOISE, workers, policy, stepsize or ConstantStepsize(0.1),
        X0, StopRule(max_iterations=max_iterations), master_seed=seed)


class TestTimeModels:
    def test_constant_needs_positive_delta(self):
        with pytest.raises(InvalidConfigError):
            ConstantTime(0.0)

    def test_lognormal_samples_positive(self):
        model = LogNormalTime(mu=0.0, sigma=1.5)
        rng = np.random.default_rng(0)
        assert all(model.sample(rng) > 0 for _ in range(100))

    def test_straggler_hits_slow_branch_at_given_rate(self):
        model = StragglerTime(delta=1.0, slow_factor=50.0, straggle_prob=0.25)
        rng = np.random.default_rng(1)
        draws = [model.sample(rng) for _ in range(4000)]
        slow = sum(1 for d in draws if d == 50.0)
        assert set(draws) == {1.0, 50.0}
        assert slow / 4000 == pytest.approx(0.25, abs=0.03)

    def test_straggler_validation(self):
        with pytest.raises(InvalidConfigError):
            StragglerTime(1.0, 0.5, 0.1)  # slowdown below 1 is not a straggler
        with pytest.raises(InvalidConfigError):
            StragglerTime(1.0, 2.0, 1.5)

    @pytest.mark.parametrize("make", [
        lambda: ConstantTime(math.nan),
        lambda: ConstantTime(math.inf),
        lambda: StragglerTime(math.nan, 2.0, 0.1),
        lambda: StragglerTime(1.0, math.nan, 0.1),
        lambda: StragglerTime(1.0, math.inf, 0.1),
        lambda: LogNormalTime(0.0, math.nan),
        lambda: LogNormalTime(math.nan, 0.1),
        lambda: LogNormalTime(0.0, math.inf),
        lambda: LogNormalTime(-math.inf, 0.1),
        # exp(710) exceeds the largest float, so every draw would be inf
        lambda: LogNormalTime(710.0, 0.1),
        # exp(-800) is below the smallest normal float; draws are 0.0 at sigma 0.1
        lambda: LogNormalTime(-800.0, 0.1),
    ])
    def test_non_finite_times_rejected(self, make):
        with pytest.raises(InvalidConfigError):
            make()

    @pytest.mark.parametrize("model", [LogNormalTime(709.0, 5.0), ConstantTime(1e308)])
    def test_overflowing_finish_time_names_the_worker(self, model):
        with pytest.raises(InvalidConfigError, match="worker 0"):
            simple_run([model], MaxConcurrency(), 50)

    @pytest.mark.parametrize("durations", [(0.0,), (1e17, 1.0)])
    @pytest.mark.parametrize("loop", ["single", "lockstep"])
    def test_finish_time_must_follow_its_start(self, durations, loop):
        """A zero duration, or one that the clock absorbs (1e17 + 1 == 1e17), is refused."""
        workers = [ScriptedTime(*durations)]
        with pytest.raises(InvalidConfigError, match="worker 0"):
            if loop == "single":
                simple_run(workers, MaxConcurrency(), 50)
            else:
                engine.run_grid(QUAD, NO_NOISE, workers, MaxConcurrency(),
                                [ConstantStepsize(0.1), ConstantStepsize(0.2)], X0,
                                StopRule(max_iterations=50))

    def test_constant_fleet_keeps_the_worker_order(self):
        fleet = constant_fleet([1.0, 2.5, 4.0])
        assert fleet == [ConstantTime(1.0), ConstantTime(2.5), ConstantTime(4.0)]


class TestHandSchedules:
    def test_serial_worker_has_zero_delays(self):
        trace = simple_run(constant_fleet([1.0]), MaxConcurrency(), 5)
        assert list(trace.delays) == [0, 0, 0, 0, 0]
        assert list(trace.concurrency) == [1, 1, 1, 1, 1]
        assert trace.total_sim_time == 5.0
        assert metrics.average_delay_exact(trace.ledger) == 0

    def test_two_equal_workers_alternate(self):
        trace = simple_run(constant_fleet([1.0, 1.0]), MaxConcurrency(), 6)
        # ties at every integer time break toward the lower worker id
        assert list(trace.worker_ids) == [0, 1, 0, 1, 0, 1]
        assert list(trace.delays) == [0, 1, 1, 1, 1, 1]
        assert list(trace.sim_times) == [1.0, 1.0, 2.0, 2.0, 3.0, 3.0]

    def test_straggler_delay_equals_slowdown(self):
        trace = simple_run(constant_fleet([1.0, 4.0]), MaxConcurrency(), 12)
        assert metrics.max_delay(trace.ledger) == 4
        # the slow worker lands every 4 iterations with delay exactly 4
        slow_rows = [t for t in range(12) if trace.worker_ids[t] == 1]
        assert all(trace.delays[t] == 4 for t in slow_rows)

    def test_minibatch_of_two_delays_alternate_zero_one(self):
        trace = simple_run(constant_fleet([1.0, 1.0]), MiniBatch(), 4)
        assert list(trace.delays) == [0, 1, 0, 1]
        assert metrics.average_delay_exact(trace.ledger) == Fraction(2, 5)
        # both jobs of a batch are handed out together, after the batch is done
        assert list(trace.n_assigned) == [0, 2, 0, 2]

    def test_minibatch_average_delay_approaches_half_batch(self):
        n = 4
        trace = simple_run(constant_fleet([1.0] * n), MiniBatch(), 400)
        # per full batch the delays are 0, 1, ..., n-1
        assert float(np.mean(trace.delays)) == pytest.approx((n - 1) / 2, abs=1e-12)


class TestConservation:
    @pytest.mark.parametrize("workers,policy,T", [
        (constant_fleet([1.0]), MaxConcurrency(), 3),
        (constant_fleet([1.0, 1.0]), MaxConcurrency(), 7),
        (constant_fleet([1.0, 3.0, 5.5]), MaxConcurrency(), 23),
        (constant_fleet([1.0, 1.0]), MiniBatch(), 4),
        (constant_fleet([2.0, 1.0, 1.0, 1.0]), SampledMiniBatch(batch_size=3), 31),
        (constant_fleet([1.0, 2.0, 3.0]), UniformClientSampling(concurrency=5), 40),
    ])
    def test_ledger_identity_holds(self, workers, policy, T):
        trace = simple_run(workers, policy, T, seed=5)
        check = metrics.delay_conservation(trace.ledger)
        assert check.passed, f"lhs={check.lhs} rhs={check.rhs}"

    def test_serial_constants(self):
        trace = simple_run(constant_fleet([1.0]), MaxConcurrency(), 3)
        check = metrics.delay_conservation(trace.ledger)
        assert (check.lhs, check.rhs) == (4, 4)

    def test_off_by_one_fault_breaks_identity(self):
        ledger = simple_run(constant_fleet([1.0, 1.0]), MaxConcurrency(), 6).ledger
        assert metrics.delay_conservation(ledger).passed
        shifted = dataclasses.replace(ledger,
                                      applied_delays=[d + 1 for d in ledger.applied_delays])
        assert not metrics.delay_conservation(shifted).passed


def table_policy(table):
    """A ``CustomSelection`` that hands out ``table[step]`` at each step, and
    nothing once the table runs dry."""
    return CustomSelection(select=lambda step, busy, rng: table[step] if step < len(table) else ())


class TestCustomSelection:
    def test_table_schedule_is_followed(self):
        # three workers seeded together; nobody reassigned at step 0, the two
        # now-idle workers handed fresh jobs at step 1, nobody at step 2
        policy = table_policy(((), (0, 1), ()))
        trace = simple_run(constant_fleet([1.0, 2.0, 3.0]), policy, 3)
        assert list(trace.n_assigned) == [0, 2, 0]

    def test_duplicate_selection_rejected(self):
        policy = table_policy(((0, 0),))
        with pytest.raises(InvalidSelectionError):
            simple_run(constant_fleet([1.0, 2.0]), policy, 2)

    def test_busy_worker_rejected(self):
        # worker 1 needs 5 time units; reassigning it at step 0 double-books it
        policy = table_policy(((1,),))
        with pytest.raises(InvalidSelectionError, match="still computing"):
            simple_run(constant_fleet([1.0, 5.0]), policy, 2)

    def test_unknown_worker_rejected(self):
        policy = table_policy(((9,),))
        with pytest.raises(InvalidSelectionError):
            simple_run(constant_fleet([1.0, 2.0]), policy, 2)

    def test_starved_queue_deadlocks(self):
        policy = table_policy(())  # never assign anything new
        with pytest.raises(SimulationDeadlockError):
            simple_run(constant_fleet([1.0, 1.0]), policy, 10)

    def test_callback_receives_state(self):
        seen = []

        def select(step, busy, rng):
            seen.append((step, sum(busy)))
            return [step % 2]

        trace = simple_run(constant_fleet([1.0, 1.0]), CustomSelection(select=select), 4)
        assert len(trace) == 4
        assert [s for s, _ in seen] == [0, 1, 2, 3]


class TestClientSampling:
    def test_pile_up_queues_jobs_fifo(self):
        # single very slow client sampled repeatedly: jobs must finish in
        # assignment order, spaced by the full compute time
        policy = UniformClientSampling(concurrency=3)
        trace = run_homogeneous(
            QUAD, NO_NOISE, constant_fleet([10.0]), policy, ConstantStepsize(0.01),
            X0, StopRule(max_iterations=5), master_seed=2)
        assert list(trace.sim_times) == [10.0, 20.0, 30.0, 40.0, 50.0]
        assert list(trace.worker_ids) == [0, 0, 0, 0, 0]

    def test_concurrency_is_preserved(self):
        policy = UniformClientSampling(concurrency=4)
        trace = simple_run(constant_fleet([1.0, 2.0, 3.0]), policy, 30, seed=9)
        assert list(trace.concurrency) == [4] * 30
        assert trace.ledger.concurrency_log == [4] * 31

    def test_sampling_counts_every_assignment(self):
        policy = UniformClientSampling(concurrency=2)
        trace = simple_run(constant_fleet([1.0, 1.0, 1.0]), policy, 20, seed=3)
        # 2 seed jobs plus one per applied gradient
        assert sum(trace.ledger.samples_per_client.values()) == 22

    def test_sampled_minibatch_draws_with_replacement(self):
        # batch size above the fleet size is legal for the sampled variant
        policy = SampledMiniBatch(batch_size=5)
        trace = simple_run(constant_fleet([1.0, 2.0]), policy, 10, seed=4)
        assert metrics.delay_conservation(trace.ledger).passed
        assert trace.ledger.concurrency_log[0] == 5


@pytest.fixture
def stop_run(monkeypatch):
    """``stop_run(loop, deltas, eta, stop, x0, noise, seed)``: the stop verdict of one
    constant-stepsize run of QUAD and the step it came at, through ``_run``
    ("single") or a one-column ``run_grid`` ("lockstep"), with the run's trace or
    tuning outcome."""
    seen = []
    check = engine.StopTracker.check

    def spy(self, t, *args):
        verdict = check(self, t, *args)
        if verdict is not None:
            seen.append((verdict, t))
        return verdict

    monkeypatch.setattr(engine.StopTracker, "check", spy)

    def run(loop, deltas, eta, stop, x0=X0, noise=NO_NOISE, seed=0):
        seen.clear()
        if loop == "single":
            result = run_homogeneous(QUAD, noise, constant_fleet(deltas), MaxConcurrency(),
                                     ConstantStepsize(eta), x0, stop, master_seed=seed)
            assert seen == [(result.stop_reason, len(result))]
        else:
            [result] = engine.run_grid(QUAD, noise, constant_fleet(deltas), MaxConcurrency(),
                                       [ConstantStepsize(eta)], x0, stop, master_seed=seed)
            [(verdict, steps)] = seen
            assert result.iterations_to_target == (steps if verdict == "target" else None)
            assert result.diverged == (verdict == "diverged")
        return seen[0], result

    return run


LOOPS = pytest.mark.parametrize("loop", ["single", "lockstep"])


class TestStopRules:
    @LOOPS
    def test_grad_tol_stops_early(self, loop, stop_run):
        (verdict, steps), result = stop_run(loop, [1.0], 0.2,
                                            StopRule(max_iterations=10_000, grad_tol=1e-8))
        assert verdict == "target" and steps < 10_000
        if loop == "single":
            assert result.converged
            assert result.final_grad_norm <= 1e-8

    @LOOPS
    def test_last_k_needs_a_full_window(self, loop, stop_run):
        # the window mean can only fire once last_k iterates exist, so a run
        # that starts at the optimum still performs last_k iterations
        x_star = np.linalg.solve(QUAD.matrix_a, QUAD.vector_b)
        stop = StopRule(max_iterations=100, last_k_tol=1e-10, last_k=30)
        # x_0 counts toward the window, so 29 updates complete it
        assert stop_run(loop, [1.0], 0.1, stop, x0=x_star)[0] == ("target", 29)

    @LOOPS
    def test_window_mean_stops_while_the_newest_norm_is_above_the_tolerance(
            self, loop, stop_run):
        """The window is skipped only when its newest norm / k is above the tolerance;
        here the mean reaches the tolerance while the newest norm is above it."""
        k = 5
        noise = NoiseModel(0.3)
        ref = run_homogeneous(QUAD, noise, constant_fleet([1.0, 1.3]), MaxConcurrency(),
                              ConstantStepsize(0.1), np.ones(4),
                              StopRule(max_iterations=300), master_seed=1)
        norms = list(ref.grad_norms) + [ref.final_grad_norm]
        means = [engine._window_mean(norms[t - k + 1:t + 1]) for t in range(k - 1, len(norms))]
        step = next(t for t, mean in enumerate(means, start=k - 1)
                    if mean < min(means[:t - k + 1], default=math.inf) and norms[t] > mean)
        stop = StopRule(max_iterations=300, last_k=k, last_k_tol=means[step - k + 1])
        assert stop_run(loop, [1.0, 1.3], 0.1, stop, x0=np.ones(4), noise=noise,
                        seed=1)[0] == ("target", step)

    @LOOPS
    def test_divergence_detected(self, loop, stop_run):
        (verdict, _), result = stop_run(loop, [1.0], 10.0,
                                        StopRule(max_iterations=10_000, diverge_above=1e8))
        assert verdict == "diverged"
        if loop == "single":
            assert result.diverged and not result.converged

    @LOOPS
    def test_cap_without_target_counts_as_complete(self, loop, stop_run):
        verdict, result = stop_run(loop, [1.0], 0.1, StopRule(max_iterations=7))
        assert verdict == ("cap", 7)
        if loop == "single":
            assert result.converged

    @LOOPS
    def test_cap_with_target_is_not_converged(self, loop, stop_run):
        verdict, result = stop_run(loop, [1.0], 1e-9,
                                   StopRule(max_iterations=50, grad_tol=1e-12))
        assert verdict == ("cap", 50)
        if loop == "single":
            assert not result.converged

    @LOOPS
    @pytest.mark.parametrize("tolerance", [{"last_k_tol": 1e-3, "last_k": 30},
                                           {"grad_tol": 1e-3}], ids=["window", "grad_tol"])
    def test_quiescent_stop_waits_for_inflight_straggler(self, loop, tolerance, stop_run):
        # without the quiescence requirement the run stops before the slow
        # worker's first (still huge) gradient lands at iteration 200
        plain, quiet = (
            stop_run(loop, [1.0, 200.0], 0.1,
                     StopRule(max_iterations=5_000, require_quiescent=required, **tolerance))
            for required in (False, True))
        (plain_verdict, plain_steps), plain_result = plain
        (quiet_verdict, quiet_steps), quiet_result = quiet
        assert plain_verdict == quiet_verdict == "target"
        assert plain_steps < 200 <= quiet_steps
        if loop == "single":
            assert metrics.max_delay(plain_result.ledger) < 200
            assert metrics.max_delay(quiet_result.ledger) == 200

    @LOOPS
    def test_quiescence_reads_the_whole_in_flight_gradient(self, loop):
        """The straggler's first gradient, taken at x0, is zero but in its last coordinate.
        In the lockstep loop the first column diverges at once, so the survivor is the
        block's second row."""
        diagonal = QuadraticObjective(np.diag([1.0, 2.0, 3.0]), np.zeros(3))
        fleet = [ConstantTime(1.0), ScriptedTime(200.0, *[1.0] * 1_000)]
        args = (diagonal, NO_NOISE, fleet, MaxConcurrency())
        x0 = np.array([0.0, 0.0, 1.0])
        stop = StopRule(max_iterations=1_000, grad_tol=1e-6, diverge_above=1e3,
                        require_quiescent=True)
        if loop == "single":
            trace = run_homogeneous(*args, ConstantStepsize(0.1), x0, stop)
            assert trace.stop_reason == "target"
            steps = len(trace)
        else:
            diverged, survivor = engine.run_grid(
                *args, [ConstantStepsize(10.0), ConstantStepsize(0.1)], x0, stop)
            assert diverged.diverged
            steps = survivor.iterations_to_target
        # the straggler's first gradient lands at iteration 200
        assert steps >= 200

    @LOOPS
    def test_stall_detector_ends_oscillating_run(self, loop, stop_run):
        # stepsize far above the stability threshold but kept finite by the
        # divergence guard being loose: the stall check must end the run.  The
        # window is full at step 9, so the checkpoints are steps 9, 209, 409, ...
        stop = StopRule(max_iterations=100_000, last_k_tol=1e-300, last_k=10,
                        diverge_above=1e280, stall_window=200)
        assert stop_run(loop, [1.0], 0.5000001, stop)[0] == ("stalled", 409)

    def test_stall_requires_window_tolerance(self):
        with pytest.raises(InvalidConfigError):
            StopRule(max_iterations=10, stall_window=5)


def sequential_mean(window):
    total = 0.0
    for value in window:
        total += value
    return total / len(window)


class TestStopVerdictSummation:
    def test_window_mean_does_not_follow_the_builtin_sum(self, monkeypatch):
        """Python 3.12 made float ``sum`` compensated; the verdict must not move with it.

        ``last_k_tol`` is set to the smaller of the sequential and the
        correctly rounded window mean at a step where they differ, and below
        every earlier mean, so exactly one of the two sums stops there.
        """
        k = 30

        def run(**tolerance):
            return run_homogeneous(QUAD, NO_NOISE, constant_fleet([1.0, 1.7, 2.9]),
                                   MaxConcurrency(), ConstantStepsize(0.05), X0,
                                   StopRule(max_iterations=600, last_k=k, **tolerance))

        ref = run()
        norms = list(ref.grad_norms) + [ref.final_grad_norm]
        lowest = math.inf
        for t in range(k - 1, len(norms)):
            window = norms[t - k + 1:t + 1]
            means = (sequential_mean(window), math.fsum(window) / k)
            if means[0] != means[1] and min(means) < lowest:
                tol = min(means)
                break
            lowest = min(lowest, *means)
        else:
            pytest.fail("no step where the two window means differ")

        plain = run(last_k_tol=tol)
        assert plain.stop_reason == "target"
        monkeypatch.setattr(engine, "sum", math.fsum, raising=False)
        shadowed = run(last_k_tol=tol)
        assert len(shadowed) == len(plain)
        np.testing.assert_array_equal(shadowed.grad_norms, plain.grad_norms)


class TestDeterminism:
    def test_same_seed_same_trace(self):
        fleet = [LogNormalTime(0.0, 0.5),
                 StragglerTime(1.0, 30.0, 0.1)]
        runs = [
            run_homogeneous(QUAD, NoiseModel(0.3), fleet, MaxConcurrency(),
                            ConstantStepsize(0.05), X0,
                            StopRule(max_iterations=60), master_seed=17)
            for _ in range(2)
        ]
        np.testing.assert_array_equal(runs[0].grad_norms, runs[1].grad_norms)
        np.testing.assert_array_equal(runs[0].sim_times, runs[1].sim_times)
        np.testing.assert_array_equal(runs[0].final_x, runs[1].final_x)

    def test_different_seed_differs(self):
        fleet = [LogNormalTime(0.0, 0.5)]
        a = run_homogeneous(QUAD, NoiseModel(0.3), fleet, MaxConcurrency(),
                            ConstantStepsize(0.05), X0,
                            StopRule(max_iterations=40), master_seed=1)
        b = run_homogeneous(QUAD, NoiseModel(0.3), fleet, MaxConcurrency(),
                            ConstantStepsize(0.05), X0,
                            StopRule(max_iterations=40), master_seed=2)
        assert not np.array_equal(a.grad_norms, b.grad_norms)

    def test_worker_noise_streams_are_independent_of_fleet_size(self):
        # adding a slow second worker must not change what the first one draws
        solo = run_homogeneous(QUAD, NoiseModel(0.2), constant_fleet([1.0]),
                               MaxConcurrency(), ConstantStepsize(0.05), X0,
                               StopRule(max_iterations=30), master_seed=11)
        pair = run_homogeneous(QUAD, NoiseModel(0.2), constant_fleet([1.0, 900.0]),
                               MaxConcurrency(), ConstantStepsize(0.05), X0,
                               StopRule(max_iterations=30), master_seed=11)
        np.testing.assert_array_equal(solo.grad_norms, pair.grad_norms)

    @pytest.mark.parametrize("sigma, streams", [(0.0, 2), (0.1, 1002)],
                             ids=["noiseless", "noisy"])
    def test_only_noisy_runs_open_noise_streams(self, sigma, streams, monkeypatch):
        # the delay-model and client-sampling streams, plus one noise stream per
        # worker when there is noise to draw
        names = []

        def counted(master_seed, name):
            names.append(name)
            return named_stream(master_seed, name)

        monkeypatch.setattr(engine, "named_stream", counted)
        run_homogeneous(QUAD, NoiseModel(sigma), constant_fleet([1.0] * 1000),
                        MaxConcurrency(), ConstantStepsize(0.05), X0,
                        StopRule(max_iterations=5), master_seed=3)
        assert len(names) == streams


def reference_csv(trace, path):
    """Row-at-a-time writer: the definition of the trace CSV format.  Worker i
    computes client i's gradient, so the worker id fills both id columns."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(trace.CSV_COLUMNS)
        for t in range(len(trace)):
            writer.writerow((
                t, int(trace.worker_ids[t]), int(trace.worker_ids[t]), int(trace.delays[t]),
                repr(float(trace.stepsizes[t])), repr(float(trace.grad_norms[t])),
                repr(float(trace.objective_values[t])), repr(float(trace.sim_times[t])),
                int(trace.n_assigned[t]), int(trace.concurrency[t]),
            ))


def noisy_client_run(max_iterations):
    fam = make_heterogeneous(QUAD, 5, 1.0, seed=4)
    fleet = [LogNormalTime(0.0, 0.7)] * 5
    return run_heterogeneous(fam, NoiseModel(0.3), fleet, 3, ConstantStepsize(0.05), X0,
                             StopRule(max_iterations=max_iterations), master_seed=9)


class TestCsvMatchesReference:
    def assert_same_bytes(self, trace, tmp_path):
        trace.to_csv(tmp_path / "fast.csv")
        reference_csv(trace, tmp_path / "reference.csv")
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()

    @pytest.mark.parametrize("chunk", [1, 7, 50, RunTrace.CSV_CHUNK_ROWS])
    def test_every_chunk_size(self, chunk, tmp_path, monkeypatch):
        monkeypatch.setattr(RunTrace, "CSV_CHUNK_ROWS", chunk)
        self.assert_same_bytes(noisy_client_run(50), tmp_path)

    def test_longer_than_one_chunk(self, tmp_path):
        trace = noisy_client_run(RunTrace.CSV_CHUNK_ROWS + 9)
        self.assert_same_bytes(trace, tmp_path)

    def test_empty_and_special_floats(self, tmp_path):
        trace = noisy_client_run(6)
        special = np.array([math.nan, math.inf, -math.inf, 5e-324, -0.0, 1e300])
        self.assert_same_bytes(dataclasses.replace(trace, grad_norms=special), tmp_path)
        empty = {f.name: getattr(trace, f.name)[:0] for f in dataclasses.fields(trace)
                 if isinstance(getattr(trace, f.name), np.ndarray) and f.name != "final_x"}
        self.assert_same_bytes(dataclasses.replace(trace, **empty), tmp_path)


class TestTraceAndState:
    def test_csv_round_trip_preserves_floats(self, tmp_path):
        trace = simple_run(constant_fleet([1.0, 2.0]), MaxConcurrency(), 8, seed=3)
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(trace.CSV_COLUMNS)
        assert len(lines) == 9
        row = lines[3].split(",")
        assert int(row[0]) == 2
        assert float(row[5]) == trace.grad_norms[2]

    def test_gradient_norm_column_is_pre_update(self):
        trace = simple_run(constant_fleet([1.0]), MaxConcurrency(), 3)
        assert trace.grad_norms[0] == pytest.approx(
            float(np.linalg.norm(QUAD.gradient(X0))), rel=1e-15)

    def test_bad_x0_rejected(self):
        with pytest.raises(InvalidConfigError):
            run_homogeneous(QUAD, NO_NOISE, constant_fleet([1.0]), MaxConcurrency(),
                            ConstantStepsize(0.1), np.zeros(3), StopRule(max_iterations=5))
        with pytest.raises(InvalidConfigError):
            run_homogeneous(QUAD, NO_NOISE, constant_fleet([1.0]), MaxConcurrency(),
                            ConstantStepsize(0.1), np.array([1.0, np.inf, 0.0, 0.0]),
                            StopRule(max_iterations=5))


class TestHeterogeneousRuns:
    def test_family_requires_one_worker_per_client(self):
        fam = make_heterogeneous(QUAD, 3, 0.5, seed=1)
        with pytest.raises(InvalidConfigError):
            run_heterogeneous(fam, NO_NOISE, constant_fleet([1.0, 1.0]), 2,
                              ConstantStepsize(0.05), X0, StopRule(max_iterations=5))

    def test_family_rejected_by_homogeneous_entry(self):
        fam = make_heterogeneous(QUAD, 2, 0.5, seed=1)
        with pytest.raises(InvalidConfigError):
            run_homogeneous(fam, NO_NOISE, constant_fleet([1.0, 1.0]), MaxConcurrency(),
                            ConstantStepsize(0.05), X0, StopRule(max_iterations=5))

    def test_plain_objective_rejected_by_heterogeneous_entry(self):
        with pytest.raises(InvalidConfigError):
            run_heterogeneous(QUAD, NO_NOISE, constant_fleet([1.0]), 1,
                              ConstantStepsize(0.05), X0, StopRule(max_iterations=5))

    def test_zero_heterogeneity_matches_base_objective(self):
        fam = make_heterogeneous(QUAD, 3, 0.0, seed=1)
        fleet = constant_fleet([1.0, 1.0, 1.0])
        het = run_heterogeneous(fam, NO_NOISE, fleet, 3, ConstantStepsize(0.05), X0,
                                StopRule(max_iterations=25), master_seed=6)
        hom = run_homogeneous(QUAD, NO_NOISE, fleet, UniformClientSampling(3),
                              ConstantStepsize(0.05), X0,
                              StopRule(max_iterations=25), master_seed=6)
        np.testing.assert_array_equal(het.grad_norms, hom.grad_norms)

    def test_per_client_delay_statistics_recorded(self):
        fam = make_heterogeneous(QUAD, 3, 1.0, seed=2)
        trace = run_heterogeneous(fam, NO_NOISE, constant_fleet([1.0, 2.0, 5.0]), 4,
                                  ConstantStepsize(0.02), X0,
                                  StopRule(max_iterations=60), master_seed=8)
        per_client = metrics.average_delay_per_client_exact(trace.ledger)
        assert set(per_client) <= {0, 1, 2}
        assert metrics.delay_conservation(trace.ledger).passed
