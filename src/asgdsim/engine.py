"""Deterministic discrete-event simulator for asynchronous SGD with delays.

One server iteration applies exactly one finished gradient: the in-flight
job with the earliest simulated finish time (ties broken by lowest worker
id, then assignment order) is popped, the iterate moves by
``x <- x - eta_t * g`` where ``g`` was evaluated at the job's assignment
point, and the scheduling policy hands out new jobs evaluated at the fresh
iterate.  Server-side work takes zero simulated time; only worker compute
times advance the clock.

Delays are exact integers: a job assigned at iteration s and applied at
iteration t has delay t - s.  Jobs queued on a busy worker (sampled
policies allow that) wait FIFO behind it, and their delay keeps growing
while they wait, so the active set is a true multiset.

Worker i always computes client i's gradient.  A policy only decides who
gets the next jobs: ``start(n, rng)`` names the workers seeded before
iteration 0 and ``after(t, worker, busy, rng)`` those handed a job once
``worker``'s gradient has been applied as iteration t - 1, given the
in-flight job count per worker and the "client-sampling" stream.

* ``MaxConcurrency``         seed every worker; reassign the finishing
                             worker immediately.
* ``MiniBatch``              all n workers compute at the same point; the
                             batch is refilled only once every gradient of
                             the previous batch has been applied (t % n == 0).
* ``SampledMiniBatch``       like ``MiniBatch`` but each batch of
                             ``batch_size`` draws its clients uniformly with
                             replacement, so a batch may exceed the fleet.
* ``UniformClientSampling``  ``concurrency`` uniform draws at the start, then
                             one per applied gradient; busy clients simply
                             accumulate queued jobs.
* ``CustomSelection``        seed every worker; then a caller-provided table
                             or ``select(step, busy, rng)`` callback, which
                             may only pick idle workers.
"""

from __future__ import annotations

import csv
import math
from collections import deque
from dataclasses import dataclass, field
from heapq import heappop, heappush
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    InvalidConfigError,
    InvalidSelectionError,
    SimulationDeadlockError,
)
from .metrics import DelayLedger
from .objectives import HeterogeneousFamily, NoiseModel
from .rng import named_stream

Array = np.ndarray


# ---------------------------------------------------------------------------
# worker models


@dataclass(frozen=True)
class ConstantTime:
    delta: float

    def __post_init__(self):
        if not 0 < self.delta < math.inf:
            raise InvalidConfigError(f"compute time must be positive and finite, got {self.delta}")

    def sample(self, rng: np.random.Generator) -> float:
        return self.delta


@dataclass(frozen=True)
class LogNormalTime:
    mu: float
    sigma: float

    def __post_init__(self):
        if self.sigma < 0:
            raise InvalidConfigError(f"lognormal sigma must be non-negative, got {self.sigma}")

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.lognormal(self.mu, self.sigma))


@dataclass(frozen=True)
class StragglerTime:
    """Constant time ``delta`` that stretches by ``slow_factor`` with some probability."""

    delta: float
    slow_factor: float
    straggle_prob: float

    def __post_init__(self):
        if not 0 < self.delta < math.inf:
            raise InvalidConfigError(f"compute time must be positive and finite, got {self.delta}")
        if not 1 <= self.slow_factor < math.inf:
            raise InvalidConfigError(
                f"slow_factor must be finite and at least 1, got {self.slow_factor}"
            )
        if not 0 <= self.straggle_prob <= 1:
            raise InvalidConfigError(f"straggle_prob must lie in [0, 1], got {self.straggle_prob}")

    def sample(self, rng: np.random.Generator) -> float:
        if self.straggle_prob > 0 and rng.random() < self.straggle_prob:
            return self.delta * self.slow_factor
        return self.delta


@dataclass(frozen=True)
class WorkerModel:
    worker_id: int
    compute_time: ConstantTime | LogNormalTime | StragglerTime


def constant_fleet(deltas: Sequence[float]) -> list[WorkerModel]:
    """Workers 0..n-1 with the given constant compute times."""
    return [WorkerModel(i, ConstantTime(float(d))) for i, d in enumerate(deltas)]


# ---------------------------------------------------------------------------
# scheduling policies (the start/after interface is in the module docstring)


@dataclass(frozen=True)
class MaxConcurrency:
    """Keep every worker busy: the finishing worker is reassigned at once."""

    def start(self, n: int, rng) -> Sequence[int]:
        return range(n)

    def after(self, t: int, worker: int, busy: list[int], rng) -> Sequence[int]:
        return (worker,)


@dataclass(frozen=True)
class MiniBatch:
    """Synchronous minibatch over the fleet: refill every worker after a full batch."""

    def start(self, n: int, rng) -> Sequence[int]:
        return range(n)

    def after(self, t: int, worker: int, busy: list[int], rng) -> Sequence[int]:
        return range(len(busy)) if t % len(busy) == 0 else ()


@dataclass(frozen=True)
class SampledMiniBatch:
    """Minibatch whose members are drawn uniformly with replacement per batch."""

    batch_size: int

    def __post_init__(self):
        if self.batch_size < 1:
            raise InvalidConfigError(f"batch_size must be at least 1, got {self.batch_size}")

    def start(self, n: int, rng) -> Sequence[int]:
        return rng.integers(0, n, size=self.batch_size).tolist()

    def after(self, t: int, worker: int, busy: list[int], rng) -> Sequence[int]:
        return self.start(len(busy), rng) if t % self.batch_size == 0 else ()


@dataclass(frozen=True)
class UniformClientSampling:
    """Constant-concurrency sampling: one uniform client draw per applied gradient."""

    concurrency: int

    def __post_init__(self):
        if self.concurrency < 1:
            raise InvalidConfigError(f"concurrency must be at least 1, got {self.concurrency}")

    def start(self, n: int, rng) -> Sequence[int]:
        return rng.integers(0, n, size=self.concurrency).tolist()

    def after(self, t: int, worker: int, busy: list[int], rng) -> Sequence[int]:
        return (int(rng.integers(0, len(busy))),)


@dataclass(frozen=True)
class CustomSelection:
    """Assignments supplied by the caller; every worker is seeded before iteration 0.

    Exactly one of ``table`` (list indexed by applied step, exhausted steps
    assign nothing) or ``select`` (callback ``(step, busy, rng) -> worker
    ids``, where ``busy`` is a tuple of in-flight job counts per worker and
    ``rng`` the client-sampling stream) must be given.  Selecting a worker
    twice, an unknown worker or a busy one raises ``InvalidSelectionError``.
    """

    table: Optional[Sequence[Sequence[int]]] = None
    select: Optional[Callable[[int, tuple[int, ...], np.random.Generator], Sequence[int]]] = None

    def __post_init__(self):
        if (self.table is None) == (self.select is None):
            raise InvalidConfigError("custom policy needs exactly one of table or select")

    def start(self, n: int, rng) -> Sequence[int]:
        return range(n)

    def after(self, t: int, worker: int, busy: list[int], rng) -> Sequence[int]:
        step = t - 1
        if self.table is not None:
            chosen = self.table[step] if step < len(self.table) else ()
        else:
            chosen = self.select(step, tuple(busy), rng)
        chosen = sorted(int(w) for w in chosen)
        if len(set(chosen)) != len(chosen):
            raise InvalidSelectionError(f"duplicate workers selected at step {step}")
        for w in chosen:
            if not 0 <= w < len(busy):
                raise InvalidSelectionError(f"worker {w} does not exist")
            if busy[w]:
                raise InvalidSelectionError(
                    f"worker {w} selected at step {step} while still computing"
                )
        return chosen


# ---------------------------------------------------------------------------
# stop rules and fault hooks


@dataclass(frozen=True)
class StopRule:
    """When to stop a run.

    ``max_iterations`` always applies.  ``grad_tol`` stops on the
    instantaneous gradient norm; ``last_k_tol`` stops once the trailing mean
    of the last ``last_k`` gradient norms drops below it.  A run whose
    objective value or gradient norm exceeds ``diverge_above`` (or turns
    non-finite) stops immediately and is flagged diverged.

    ``require_quiescent`` withholds the target verdict while any in-flight
    job still carries a gradient whose norm exceeds the triggered tolerance.
    Without it, a run with a slow straggler can report convergence while a
    large stale gradient is still on its way, about to undo the accuracy the
    stop rule just certified.  Meant for noiseless runs; with stochastic
    noise the in-flight norms never fall below a tight tolerance.

    ``stall_window`` stops runs that are going nowhere: every that many
    iterations, the trailing-``last_k`` mean must have dropped by a relative
    ``stall_improvement`` since the previous checkpoint, or the run ends
    with reason "stalled".  Objectives with bounded values (logistic) never
    trip a divergence threshold, so an unstable stepsize would otherwise
    oscillate until the iteration cap.
    """

    max_iterations: int
    grad_tol: Optional[float] = None
    last_k_tol: Optional[float] = None
    last_k: int = 30
    diverge_above: float = 1e100
    require_quiescent: bool = False
    stall_window: Optional[int] = None
    stall_improvement: float = 1e-3

    def __post_init__(self):
        if self.max_iterations < 1:
            raise InvalidConfigError(
                f"max_iterations must be at least 1, got {self.max_iterations}"
            )
        if self.last_k < 1:
            raise InvalidConfigError(f"last_k must be at least 1, got {self.last_k}")
        if self.stall_window is not None:
            if self.last_k_tol is None:
                raise InvalidConfigError(
                    "stall_window needs last_k_tol: the stall check compares "
                    "trailing window means"
                )
            if self.stall_window < 1:
                raise InvalidConfigError(
                    f"stall_window must be at least 1, got {self.stall_window}"
                )

    @property
    def has_target(self) -> bool:
        return self.grad_tol is not None or self.last_k_tol is not None


@dataclass(frozen=True)
class FaultInjection:
    """Deliberate corruption hooks used by the verification suite's mutation tests."""

    invert_ties: bool = False
    delay_off_by_one: bool = False


# ---------------------------------------------------------------------------
# trace


@dataclass
class RunTrace:
    """Per-iteration record of a run plus its delay ledger.

    Row t holds the state just before server update t: the gradient norm and
    objective value at x^t, the applied job's worker/delay/stepsize (worker
    i computes client i's gradient, so ``client_ids`` repeats ``worker_ids``),
    the simulated clock at application, the number of jobs handed out at that
    step and |C_t|.
    """

    worker_ids: Array
    client_ids: Array
    delays: Array
    stepsizes: Array
    grad_norms: Array
    objective_values: Array
    sim_times: Array
    n_assigned: Array
    concurrency: Array
    final_x: Array
    final_value: float
    final_grad_norm: float
    total_sim_time: float
    stop_reason: str
    converged: bool
    diverged: bool
    ledger: DelayLedger
    iterates: Optional[list[Array]] = None

    def __len__(self) -> int:
        return self.worker_ids.shape[0]

    CSV_COLUMNS = (
        "t", "worker_id", "client_id", "delay", "stepsize", "grad_norm",
        "objective_value", "sim_time", "n_assigned", "concurrency",
    )

    CSV_CHUNK_ROWS = 1024  # rows converted to Python objects at a time

    def to_csv(self, path) -> None:
        columns = (self.worker_ids, self.client_ids, self.delays, self.stepsizes,
                   self.grad_norms, self.objective_values, self.sim_times,
                   self.n_assigned, self.concurrency)
        with Path(path).open("w", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(self.CSV_COLUMNS)
            for lo in range(0, len(self), self.CSV_CHUNK_ROWS):
                rows = slice(lo, lo + self.CSV_CHUNK_ROWS)
                # csv writes a Python float as its repr and an int as str
                writer.writerows(zip(range(lo, lo + self.CSV_CHUNK_ROWS),
                                     *(col[rows].tolist() for col in columns)))


@dataclass(frozen=True)
class InFlightJob:
    """Read-only view of one assigned-but-unapplied job."""

    worker_id: int
    start_iteration: int
    finish_time: float


# ---------------------------------------------------------------------------
# simulation state

# heap entries: (finish_time, tie_key, seq, worker_id, start_iteration, grad)


class SimState:
    """Mutable state of one simulation; advanced one server iteration at a time."""

    def __init__(
        self,
        objective,
        noise: NoiseModel,
        workers: Sequence[WorkerModel],
        policy,
        stepsize,
        x0: Array,
        master_seed: int = 0,
        record_iterates: bool = False,
        track_last_k: Optional[int] = None,
        faults: Optional[FaultInjection] = None,
    ):
        if not workers:
            raise InvalidConfigError("need at least one worker")
        ids = [w.worker_id for w in workers]
        if ids != list(range(len(workers))):
            raise InvalidConfigError("worker ids must be 0..n-1 in order")
        self.objective = objective
        self.noise = noise
        self.workers = list(workers)
        self.policy = policy
        self.stepsize = stepsize
        self.faults = faults or FaultInjection()

        self.x = np.array(x0, dtype=float)
        if self.x.ndim != 1:
            raise InvalidConfigError("x0 must be a 1-d vector")
        if not np.all(np.isfinite(self.x)):
            raise InvalidConfigError("x0 must be finite")
        if self.x.shape[0] != objective.dim:
            raise InvalidConfigError(
                f"x0 has dimension {self.x.shape[0]} but the objective expects {objective.dim}"
            )

        self._shifts = objective.shifts if isinstance(objective, HeterogeneousFamily) else None
        if self._shifts is not None and len(workers) != objective.n_clients:
            raise InvalidConfigError(
                f"{objective.n_clients} clients in the family but {len(workers)} workers"
            )

        self.t = 0
        self.sim_time = 0.0
        self.cur_value, self.cur_grad = objective.value_and_gradient(self.x)
        self.cur_grad_norm = math.sqrt(float(self.cur_grad @ self.cur_grad))

        self._heap: list = []
        self._seq = 0
        self._free_at = [0.0] * len(workers)
        self._busy = [0] * len(workers)
        self._delay_rng = named_stream(master_seed, "delay-model")
        self._client_rng = named_stream(master_seed, "client-sampling")
        self._noise_rngs = {
            w.worker_id: named_stream(master_seed, f"noise-worker-{w.worker_id}")
            for w in workers
        }

        # trace columns
        self._col_worker: list[int] = []
        self._col_delay: list[int] = []
        self._col_eta: list[float] = []
        self._col_grad_norm: list[float] = []
        self._col_value: list[float] = []
        self._col_sim_time: list[float] = []
        self._col_assigned: list[int] = []
        # the ledger shares _col_delay and _col_worker; concurrency_log[t] is
        # |C_t|, the trace's concurrency column before event t
        self._samples: dict[int, int] = {}
        self.concurrency_log: list[int] = []

        self.iterates: Optional[list[Array]] = [self.x] if record_iterates else None
        self._last_k = deque(maxlen=track_last_k) if track_last_k else None
        if self._last_k is not None:
            self._last_k.append(self.cur_grad_norm)
        self._stall_ref_mean: Optional[float] = None
        self._stall_next_t = 0

        for w in policy.start(len(self.workers), self._client_rng):
            self._assign(w)
        self.concurrency_log.append(len(self._heap))

    # -- assignment ---------------------------------------------------------

    def _tie_key(self, worker_id: int) -> int:
        return -worker_id if self.faults.invert_ties else worker_id

    def _assign(self, worker_id: int) -> None:
        model = self.workers[worker_id]
        duration = model.compute_time.sample(self._delay_rng)
        begin = max(self.sim_time, self._free_at[worker_id])
        finish = begin + duration
        self._free_at[worker_id] = finish
        grad = self.cur_grad if self._shifts is None else self.cur_grad + self._shifts[worker_id]
        if self.noise.sigma > 0.0:
            grad = grad + self.noise.sample(self.x.shape[0], self._noise_rngs[worker_id])
        heappush(self._heap,
                 (finish, self._tie_key(worker_id), self._seq, worker_id, self.t, grad))
        self._seq += 1
        self._busy[worker_id] += 1
        self._samples[worker_id] = self._samples.get(worker_id, 0) + 1

    # -- views ----------------------------------------------------------------

    @property
    def in_flight_count(self) -> int:
        return len(self._heap)

    def in_flight_jobs(self) -> list[InFlightJob]:
        return [
            InFlightJob(entry[3], entry[4], entry[0]) for entry in sorted(self._heap)
        ]

    # -- finalization -----------------------------------------------------------

    def finalize(self, stop_reason: str, converged: bool) -> RunTrace:
        remaining = sorted(self._heap)
        active_starts = [entry[4] for entry in remaining]
        active_clients = [entry[3] for entry in remaining]
        excluded = 0 if remaining else None
        ledger = DelayLedger(
            total_iterations=self.t,
            applied_delays=self._col_delay,
            applied_clients=self._col_worker,
            active_start_iterations=active_starts,
            active_clients=active_clients,
            concurrency_log=self.concurrency_log,
            samples_per_client=dict(sorted(self._samples.items())),
            excluded_active_index=excluded,
        )
        return RunTrace(
            worker_ids=np.array(self._col_worker, dtype=int),
            client_ids=np.array(self._col_worker, dtype=int),
            delays=np.array(self._col_delay, dtype=int),
            stepsizes=np.array(self._col_eta, dtype=float),
            grad_norms=np.array(self._col_grad_norm, dtype=float),
            objective_values=np.array(self._col_value, dtype=float),
            sim_times=np.array(self._col_sim_time, dtype=float),
            n_assigned=np.array(self._col_assigned, dtype=int),
            concurrency=np.array(self.concurrency_log[:-1], dtype=int),
            final_x=self.x,
            final_value=self.cur_value,
            final_grad_norm=self.cur_grad_norm,
            total_sim_time=self.sim_time,
            stop_reason=stop_reason,
            converged=converged,
            diverged=stop_reason == "diverged",
            ledger=ledger,
            iterates=self.iterates,
        )


def advance_event(state: SimState) -> SimState:
    """Apply the next finished gradient and hand out new work (one iteration)."""
    if not state._heap:
        raise SimulationDeadlockError(
            f"no jobs in flight at iteration {state.t}; the policy starved the queue"
        )
    finish, _, _, worker_id, start_iteration, grad = heappop(state._heap)
    state._busy[worker_id] -= 1
    t = state.t
    delay = t - start_iteration
    recorded_delay = delay + 1 if state.faults.delay_off_by_one else delay
    eta = state.stepsize.at(t, delay)

    state._col_worker.append(worker_id)
    state._col_delay.append(recorded_delay)
    state._col_eta.append(eta)
    state._col_grad_norm.append(state.cur_grad_norm)
    state._col_value.append(state.cur_value)
    state._col_sim_time.append(finish)

    state.sim_time = finish
    state.x = state.x - eta * grad
    state.t = t + 1
    state.cur_value, state.cur_grad = state.objective.value_and_gradient(state.x)
    state.cur_grad_norm = math.sqrt(float(state.cur_grad @ state.cur_grad))
    if state.iterates is not None:
        state.iterates.append(state.x)
    if state._last_k is not None:
        state._last_k.append(state.cur_grad_norm)

    selection = state.policy.after(state.t, worker_id, state._busy, state._client_rng)
    for w in selection:
        state._assign(w)
    state._col_assigned.append(len(selection))
    state.concurrency_log.append(len(state._heap))
    return state


def _stop_verdict(state: SimState, stop: StopRule) -> Optional[str]:
    if (
        not math.isfinite(state.cur_value)
        or state.cur_value > stop.diverge_above
        or state.cur_grad_norm > stop.diverge_above
    ):
        return "diverged"
    if stop.grad_tol is not None and state.cur_grad_norm <= stop.grad_tol:
        if _quiescent(state, stop, stop.grad_tol):
            return "target"
    if stop.last_k_tol is not None:
        window = state._last_k
        # a mean over the last k iterates needs a full window of k entries
        if window is not None and len(window) == window.maxlen and \
                sum(window) / len(window) <= stop.last_k_tol:
            if _quiescent(state, stop, stop.last_k_tol):
                return "target"
    if stop.stall_window is not None:
        window = state._last_k
        if window is not None and len(window) == window.maxlen \
                and state.t >= state._stall_next_t:
            current = sum(window) / len(window)
            reference = state._stall_ref_mean
            if reference is not None and math.isfinite(reference) \
                    and current > reference * (1.0 - stop.stall_improvement):
                return "stalled"
            state._stall_ref_mean = current
            state._stall_next_t = state.t + stop.stall_window
    if state.t >= stop.max_iterations:
        return "cap"
    return None


def _quiescent(state: SimState, stop: StopRule, tol: float) -> bool:
    if not stop.require_quiescent:
        return True
    return all(float(np.linalg.norm(entry[-1])) <= tol for entry in state._heap)


def _run(
    objective,
    noise: NoiseModel,
    workers: Sequence[WorkerModel],
    policy,
    stepsize,
    x0: Array,
    stop: StopRule,
    master_seed: int,
    record_iterates: bool,
    faults: Optional[FaultInjection],
) -> RunTrace:
    state = SimState(
        objective,
        noise,
        workers,
        policy,
        stepsize,
        x0,
        master_seed=master_seed,
        record_iterates=record_iterates,
        track_last_k=stop.last_k if stop.last_k_tol is not None else None,
        faults=faults,
    )
    while True:
        advance_event(state)
        verdict = _stop_verdict(state, stop)
        if verdict is not None:
            break
    converged = verdict == "target" or (verdict == "cap" and not stop.has_target)
    return state.finalize(verdict, converged)


def run_homogeneous(
    objective,
    noise: NoiseModel,
    workers: Sequence[WorkerModel],
    policy,
    stepsize,
    x0: Array,
    stop: StopRule,
    master_seed: int = 0,
    record_iterates: bool = False,
    faults: Optional[FaultInjection] = None,
) -> RunTrace:
    """Simulate a run where every worker shares one objective."""
    if isinstance(objective, HeterogeneousFamily):
        raise InvalidConfigError("use run_heterogeneous for client families")
    return _run(
        objective, noise, workers, policy, stepsize, x0, stop,
        master_seed, record_iterates, faults,
    )


def run_heterogeneous(
    family: HeterogeneousFamily,
    noise: NoiseModel,
    workers: Sequence[WorkerModel],
    concurrency: int,
    stepsize,
    x0: Array,
    stop: StopRule,
    master_seed: int = 0,
    record_iterates: bool = False,
    faults: Optional[FaultInjection] = None,
) -> RunTrace:
    """Simulate uniform client sampling over a family of client objectives."""
    if not isinstance(family, HeterogeneousFamily):
        raise InvalidConfigError("run_heterogeneous expects a HeterogeneousFamily")
    policy = UniformClientSampling(concurrency)
    return _run(
        family, noise, workers, policy, stepsize, x0, stop,
        master_seed, record_iterates, faults,
    )
