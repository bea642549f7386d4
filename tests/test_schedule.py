"""The schedule/iterate split of the engine.

``reference_engine._run`` is the single event loop that the split replaced;
every run must reproduce it bit for bit, over the conservation fuzz's config
space and over the noisy, heterogeneous and target- or stall-stopped runs
that the fuzz never reaches.  ``merged_order`` is an exact oracle that shares
no engine code: under ``MaxConcurrency`` on a constant fleet, worker i
finishes its k-th job at k * delta_i, so the applied order is the merge of
those progressions.
"""

import itertools
import tracemalloc

import numpy as np
import pytest
from reference_engine import _run as reference_run

from asgdsim import (
    ConstantStepsize,
    CustomSelection,
    DelayAdaptiveStepsize,
    MaxConcurrency,
    NoiseModel,
    SampledMiniBatch,
    StopRule,
    UniformClientSampling,
    constant_fleet,
    make_heterogeneous,
    make_logistic,
    make_quadratic,
    run_heterogeneous,
    run_homogeneous,
)
from asgdsim import engine
from asgdsim.engine import Schedule, _ClientPicks, _in_flight
from asgdsim.metrics import delay_conservation
from asgdsim.objectives import HeterogeneousFamily
from asgdsim.rng import named_stream
from asgdsim.verify import random_config, random_run

ARRAYS = ("stepsizes", "grad_norms", "objective_values", "sim_times", "final_x")
SCALARS = ("final_value", "final_grad_norm")
FLAGS = ("stop_reason", "converged", "diverged")


def assert_bitwise_equal(trace, ref):
    for name in ARRAYS:
        got, want = getattr(trace, name), getattr(ref, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name
    for name in SCALARS:
        assert np.float64(getattr(trace, name)).tobytes() == \
            np.float64(getattr(ref, name)).tobytes(), name
    for name in FLAGS:
        assert getattr(trace, name) == getattr(ref, name), name
    assert trace.ledger == ref.ledger
    # the ledger derives its counts; the reference loop counted every hand-out
    assert trace.ledger.samples_per_client == ref.samples_per_client
    # and per step, where the trace CSV derives n_t = |C_t| - |C_{t-1}| + 1 from the log
    handed = np.diff(trace.ledger.concurrency_log) + 1
    assert handed.dtype == ref.n_assigned.dtype and handed.tolist() == ref.n_assigned.tolist()


def fuzz_runs(config):
    """The run that ``random_run`` stands for, through the engine and the reference."""
    workers, policy, objective_seed, sigma, cap, master_seed = config
    args = (make_quadratic(2, 0.5, 2.0, seed=objective_seed), NoiseModel(sigma), workers,
            policy, ConstantStepsize(1e-3), np.zeros(2), StopRule(max_iterations=cap))
    return (run_homogeneous(*args, master_seed=master_seed),
            reference_run(*args, master_seed))


@pytest.mark.parametrize("seed", range(60))
def test_fuzz_configs_match_the_reference_engine(seed):
    trace, ref = fuzz_runs(random_config(np.random.default_rng(seed), max_iterations=2000))
    assert_bitwise_equal(trace, ref)
    assert trace.stop_reason == "cap"


@pytest.mark.parametrize("seed", range(60))
def test_the_schedule_alone_gives_the_run_ledger(seed):
    ledger = random_run(np.random.default_rng(seed), max_iterations=2000)
    trace, _ = fuzz_runs(random_config(np.random.default_rng(seed), max_iterations=2000))
    assert ledger == trace.ledger
    assert delay_conservation(ledger).passed


def rich_case(seed: int):
    """A run the fuzz never makes: noisy, heterogeneous, delay-adaptive,
    stopped by a target, a stall or divergence.

    It still makes the two draws that once chose the fault hooks, so seed s
    keeps its config; the draw that chose iterate recording came last."""
    rng = np.random.default_rng(seed)
    workers, policy, objective_seed, _, _, master_seed = random_config(rng, 10)
    dim = int(rng.integers(2, 6))
    if seed % 3 == 1:
        objective = make_logistic(20, dim, objective_seed)
    else:
        objective = make_quadratic(dim, 0.5, float(rng.uniform(1.0, 4.0)), objective_seed)
    if seed % 3 == 2:
        objective = make_heterogeneous(objective, len(workers), float(rng.uniform(0, 1)), seed)
        policy = UniformClientSampling(int(rng.integers(1, 2 * len(workers) + 1)))
    target = int(rng.integers(4))  # none, grad_tol, last_k_tol, both
    last_k_tol = float(10 ** rng.uniform(-3, 0)) if target >= 2 else None
    stop = StopRule(
        max_iterations=int(rng.integers(30, 600)),
        grad_tol=float(10 ** rng.uniform(-3, 0)) if target in (1, 3) else None,
        last_k_tol=last_k_tol, last_k=int(rng.integers(1, 30)),
        diverge_above=float(rng.choice([1e100, 1e4])),
        require_quiescent=bool(rng.random() < 0.4),
        stall_window=int(rng.integers(5, 50)) if last_k_tol and rng.random() < 0.5 else None,
        stall_improvement=float(rng.choice([1e-3, 0.2])),
    )
    eta = float(10 ** rng.uniform(-2.5, 0.5))
    if rng.random() < 0.5:
        stepsize = ConstantStepsize(eta)
    else:
        stepsize = DelayAdaptiveStepsize(eta, objective.smoothness, int(rng.integers(1, 4)),
                                         ["scale", "drop"][int(rng.integers(2))])
    rng.random(), rng.random()  # the two fault draws
    return (objective, NoiseModel(float(rng.choice([0.0, 0.05, 0.5]))), workers, policy,
            stepsize, rng.standard_normal(dim), stop, master_seed)


def test_noisy_heterogeneous_and_target_stopped_runs_match_the_reference_engine():
    reasons = set()
    quiescent_targets = noisy = heterogeneous = 0
    for seed in range(150):
        case = rich_case(seed)
        objective, noise, workers, policy, stepsize, x0, stop, master_seed = case
        if isinstance(objective, HeterogeneousFamily):
            trace = run_heterogeneous(objective, noise, workers, policy.concurrency, stepsize,
                                      x0, stop, master_seed)
            heterogeneous += 1
        else:
            trace = run_homogeneous(*case)
        assert_bitwise_equal(trace, reference_run(*case))
        reasons.add(trace.stop_reason)
        quiescent_targets += stop.require_quiescent and trace.stop_reason == "target"
        noisy += noise.sigma > 0
    assert reasons == {"target", "stalled", "diverged", "cap"}
    assert quiescent_targets and noisy and heterogeneous


def merged_order(deltas, steps: int):
    """Worker, delay and finish time of the first ``steps`` applied jobs under
    ``MaxConcurrency`` on constant times ``deltas``: the progressions
    k * delta_i merged by (time, worker)."""
    k = np.arange(1, steps + 1)
    times = np.concatenate([k * d for d in deltas])
    owners = np.repeat(np.arange(len(deltas)), steps)
    order = np.lexsort((owners, times))[:steps]
    applied_at: dict[int, int] = {}  # worker -> iteration its last job was applied
    delays = []
    for t, w in enumerate(owners[order].tolist()):
        # the next job of w was handed out right after its previous one was applied
        delays.append(t - (applied_at.get(w, -1) + 1))
        applied_at[w] = t
    return owners[order].tolist(), delays, times[order].tolist()


def drive(workers, policy, events: int, master_seed: int = 0):
    """The schedule alone, run for ``events`` applied jobs, and its ledger."""
    schedule = Schedule(workers, policy, master_seed)
    for _ in itertools.islice(schedule, events + 1):
        pass
    return schedule, schedule.close()


# dyadic compute times, so k * delta and the engine's running sums agree exactly;
# equal deltas and common multiples make ties at almost every step
FLEETS = [
    [1.0, 1.0, 1.0],
    [1.0, 2.0, 2.0, 4.0],
    [0.5, 1.5, 1.5, 3.0, 0.75],
    [2.0, 1.0, 2.0, 1.0, 3.0, 6.0],
    [7.0],
    [0.25, 4.0, 4.0, 4.0, 1.25, 2.5, 2.5, 0.25],
]


@pytest.mark.parametrize("deltas", FLEETS, ids=str)
def test_max_concurrency_applies_the_merged_progressions(deltas):
    steps = 200
    workers, want_delays, want_times = merged_order(deltas, steps)
    trace = run_homogeneous(make_quadratic(2, 1.0, 2.0, seed=1), NoiseModel(0.0),
                            constant_fleet(deltas), MaxConcurrency(), ConstantStepsize(0.01),
                            np.zeros(2), StopRule(max_iterations=steps))
    assert trace.ledger.applied_clients == workers
    assert trace.ledger.applied_delays == want_delays
    assert trace.sim_times.tolist() == want_times
    schedule, ledger = drive(constant_fleet(deltas), MaxConcurrency(), steps)
    assert (ledger.applied_clients, ledger.applied_delays) == (workers, want_delays)
    assert schedule.finish_times == want_times
    assert delay_conservation(ledger).passed


def test_the_oracle_sees_ties_between_equal_deltas():
    workers, _, times = merged_order([1.0, 1.0, 2.0], 6)
    assert workers[:3] == [0, 1, 0] and times[:3] == [1.0, 1.0, 2.0]


def test_the_schedule_stops_where_its_consumer_stops():
    schedule, ledger = drive(constant_fleet([1.0, 2.0]), MaxConcurrency(), 7)
    assert ledger.total_iterations == 7 == len(schedule.finish_times)
    assert len(ledger.concurrency_log) == 8


# ---------------------------------------------------------------------------
# draws in blocks: noise rows per worker and client picks per run


@pytest.mark.parametrize("rows", [1, 2, 32])
def test_a_noise_block_equals_its_rows_drawn_one_at_a_time(rows):
    noise, dim = NoiseModel(0.3), 7
    single, block = named_stream(5, "noise-worker-3"), named_stream(5, "noise-worker-3")
    one_at_a_time = np.stack([noise.sample(dim, single) for _ in range(rows)])
    assert noise.sample((rows, dim), block).tobytes() == one_at_a_time.tobytes()
    # the stream goes on from the same state, so the next block lines up too
    assert block.bit_generator.state == single.bit_generator.state


@pytest.mark.parametrize("n", [1, 2, 1000, 100_000])
@pytest.mark.parametrize("start", [1, 100])
def test_a_buffer_of_client_picks_equals_the_picks_drawn_one_at_a_time(n, start):
    single, buffer = (named_stream(9, "client-sampling") for _ in range(2))
    one_at_a_time = single.integers(0, n, size=start).tolist()
    one_at_a_time += [int(single.integers(0, n)) for _ in range(5000)]
    assert buffer.integers(0, n, size=start + 5000).tolist() == one_at_a_time
    assert buffer.bit_generator.state == single.bit_generator.state


@pytest.mark.parametrize("most", [3, engine._CLIENT_PICKS])
def test_buffered_picks_follow_the_stream(most, monkeypatch):
    # a policy's mix of single picks and batches, across many buffer refills
    monkeypatch.setattr(engine, "_CLIENT_PICKS", most)
    rng = named_stream(2, "client-sampling")
    picks = _ClientPicks(named_stream(2, "client-sampling"), 6)
    for size in [None, 4, None, None, 1, 13, None] * 300:
        if size is None:
            assert picks.integers(0, 6) == int(rng.integers(0, 6))
        else:
            assert picks.integers(0, 6, size=size).tolist() == \
                rng.integers(0, 6, size=size).tolist()
    with pytest.raises(ValueError):
        picks.integers(0, 7)


def test_block_edges_keep_the_reference_engine_bits(monkeypatch):
    # a buffer of 3 picks and noise blocks of 2 rows: every run crosses many edges
    dim, n = 3, 4
    monkeypatch.setattr(engine, "_CLIENT_PICKS", 3)
    monkeypatch.setattr(engine, "_NOISE_BLOCK_BYTES", 2 * 8 * dim * n)
    blocks = []
    sample = NoiseModel.sample

    def spy(self, size, rng):
        blocks.append(size)
        return sample(self, size, rng)

    family = make_heterogeneous(make_quadratic(dim, 0.5, 2.0, seed=3), n, 0.5, seed=4)
    fleet = [engine.LogNormalTime(0.0, 0.5)] * n
    x0 = np.ones(dim)
    cases = [(family, NoiseModel(0.2), fleet, UniformClientSampling(3)),
             (make_quadratic(dim, 0.5, 2.0, seed=5), NoiseModel(0.2), fleet, SampledMiniBatch(5))]
    for objective, noise, workers, policy in cases:
        args = (objective, noise, workers, policy, ConstantStepsize(0.05), x0,
                StopRule(max_iterations=400), 8)
        monkeypatch.setattr(NoiseModel, "sample", spy)
        trace = engine._run(*args)
        monkeypatch.setattr(NoiseModel, "sample", sample)
        assert_bitwise_equal(trace, reference_run(*args))
    assert set(blocks) == {(2, dim)} and len(blocks) > 300


def test_custom_selection_draws_from_the_raw_client_stream():
    picks = []

    def select(step, busy, rng):
        picks.append(int(rng.integers(0, 1000)))
        return [w for w, jobs in enumerate(busy) if not jobs]

    run_homogeneous(make_quadratic(2, 1.0, 2.0, seed=1), NoiseModel(0.1),
                    constant_fleet([1.0, 1.5, 2.5]), CustomSelection(select),
                    ConstantStepsize(0.01), np.zeros(2), StopRule(max_iterations=200),
                    master_seed=4)
    fresh = named_stream(4, "client-sampling")
    assert len(picks) == 200
    assert picks == [int(fresh.integers(0, 1000)) for _ in picks]


@pytest.mark.parametrize("n, dim, rows", [
    (1, 2, 32), (4, 3, 32), (1000, 10, 13), (64, 256, 8), (3, 20_000, 2),
    (100, 1000, 1), (1000, 1000, 1),
])
def test_noise_blocks_stay_within_the_budget(n, dim, rows):
    # hand every worker one job, apply them all, and count the array bytes still held
    grad = np.zeros(dim)
    jobs, hand_out = _in_flight(NoiseModel(0.1), n, dim, None, master_seed=0)
    arrays = [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot().filter_traces(arrays)
        hand_out(range(n), grad)
        jobs.clear()
        after = tracemalloc.take_snapshot().filter_traces(arrays)
    finally:
        tracemalloc.stop()
    held = sum(stat.size_diff for stat in after.compare_to(before, "filename"))
    assert held == (n * rows * dim * 8 if rows > 1 else 0)
    assert held <= engine._NOISE_BLOCK_BYTES
