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

A fleet is a sequence of time models (``ConstantTime``, ``LogNormalTime``,
``StragglerTime`` or anything with ``sample(rng)``): worker i draws its
compute times from the model at position i, and always computes client i's
gradient.  A policy only decides who gets the next jobs: ``start(n, rng)``
names the workers seeded before iteration 0 and ``after(t, worker, busy,
rng)`` those handed a job once ``worker``'s gradient has been applied as
iteration t - 1, given the in-flight job count per worker and the
"client-sampling" stream.

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
* ``CustomSelection``        seed every worker; then a caller-provided
                             ``select(step, busy, rng)`` callback, which may
                             only pick idle workers.

A run has two phases.  Phase 1, the ``Schedule``, owns everything the
iterate cannot touch and writes the ``DelayLedger``.  Phase 2, ``_lockstep``,
consumes it with one column per stepsize: a single run is one column,
``run_grid`` runs a tuning grid as one column per point, and ``race_grid``
ends that run at the first column to reach the target.  It keeps the
in-flight jobs by job id, adds a noise draw at hand-out and takes each
column's stop verdicts from its own ``StopTracker``.  The conservation fuzz
in ``verify`` runs phase 1 alone: the code that writes every run's ledger.

Noise and client picks are drawn in blocks that equal the per-event draws
bit for bit.  Each worker takes its noise rows from a block of its own
stream, and the blocks of a fleet stay within ``_NOISE_BLOCK_BYTES``.  A
policy that declares ``buffer_picks`` reads the "client-sampling" stream
through a per-run buffer of ``integers(0, n)`` draws.  ``CustomSelection``
gets the stream itself, and the "delay-model" stream, which workers with
different time models share, is drawn one job at a time.
"""

from __future__ import annotations

import csv
import itertools
import math
import sys
from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    InvalidConfigError,
    InvalidSelectionError,
    SimulationDeadlockError,
)
from .metrics import ERROR_WINDOW, DelayLedger, window_error
from .objectives import HeterogeneousFamily, NoiseModel, _row_dots
from .rng import named_stream
from .stepsize import TuneOutcome

Array = np.ndarray
_LOG_FLOAT_MIN = math.log(sys.float_info.min)
_LOG_FLOAT_MAX = math.log(sys.float_info.max)
_NOISE_BLOCK_BYTES = 1 << 20  # the noise rows drawn ahead by the whole fleet
_NOISE_BLOCK_ROWS = 32        # and by one worker, at most
_CLIENT_PICKS = 4096          # the largest buffer of client picks drawn ahead


# ---------------------------------------------------------------------------
# worker models


@dataclass(frozen=True)
class ConstantTime:
    delta: float

    def __post_init__(self):
        if not 0 < self.delta < math.inf:
            raise InvalidConfigError(f"delta must be positive and finite, got {self.delta}")

    def sample(self, rng: np.random.Generator) -> float:
        return self.delta


@dataclass(frozen=True)
class LogNormalTime:
    mu: float
    sigma: float

    def __post_init__(self):
        # exp(mu) must lie between the smallest normal and the largest float,
        # or every draw is 0 (jobs take no time) or inf
        if not _LOG_FLOAT_MIN <= self.mu < _LOG_FLOAT_MAX:
            raise InvalidConfigError(
                f"lognormal mu must lie in [{_LOG_FLOAT_MIN:.2f}, {_LOG_FLOAT_MAX:.2f}), "
                f"got {self.mu}"
            )
        if not 0 <= self.sigma < math.inf:
            raise InvalidConfigError(
                f"lognormal sigma must be non-negative and finite, got {self.sigma}"
            )

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
            raise InvalidConfigError(f"delta must be positive and finite, got {self.delta}")
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


def constant_fleet(deltas: Sequence[float]) -> list[ConstantTime]:
    """Workers 0..n-1 with the given constant compute times."""
    return [ConstantTime(float(d)) for d in deltas]


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
    buffer_picks = True  # its only draws are integers(0, n): see _ClientPicks

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
    buffer_picks = True  # its only draws are integers(0, n): see _ClientPicks

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

    ``select(step, busy, rng)`` returns the worker ids handed a job once
    ``step`` + 1 gradients have been applied, where ``busy`` is a tuple of
    in-flight job counts per worker and ``rng`` the client-sampling stream.
    Selecting a worker twice, an unknown worker or a busy one raises
    ``InvalidSelectionError``.
    """

    select: Callable[[int, tuple[int, ...], np.random.Generator], Sequence[int]]

    def start(self, n: int, rng) -> Sequence[int]:
        return range(n)

    def after(self, t: int, worker: int, busy: list[int], rng) -> Sequence[int]:
        step = t - 1
        chosen = sorted(int(w) for w in self.select(step, tuple(busy), rng))
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
# stop rules


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


class StopTracker:
    """The stop verdict of one run, or of one column of a lockstep run.

    It holds the trailing window of gradient norms (the norm at x^0
    included), the stall reference mean and the next stall checkpoint.
    """

    __slots__ = ("stop", "window", "stall_ref", "stall_next_t")

    def __init__(self, stop: StopRule, grad_norm: float):
        self.stop = stop
        self.window = deque([grad_norm], maxlen=stop.last_k) \
            if stop.last_k_tol is not None else None
        self.stall_ref: Optional[float] = None
        self.stall_next_t = 0

    def check(self, t: int, value: float, grad_norm: float, quiescent) -> Optional[str]:
        """The verdict once step ``t`` has left the iterate at ``value`` and
        ``grad_norm``: "diverged", "target", "stalled", "cap" (tested in that
        order) or None to go on.  ``quiescent(tol)`` tells whether every
        in-flight gradient has norm at most ``tol``; only ``require_quiescent``
        asks it.
        """
        stop = self.stop
        if not math.isfinite(value) or value > stop.diverge_above \
                or grad_norm > stop.diverge_above:
            return "diverged"
        if stop.grad_tol is not None and grad_norm <= stop.grad_tol \
                and (not stop.require_quiescent or quiescent(stop.grad_tol)):
            return "target"
        window = self.window
        if window is not None:
            window.append(grad_norm)
            # a mean over the last k iterates needs a full window of k entries
            if len(window) == stop.last_k:
                stall_due = stop.stall_window is not None and t >= self.stall_next_t
                # the window sums non-negative norms left to right, so its mean is
                # at least newest / k: above the tolerance there, only a stall
                # checkpoint needs the mean
                if stall_due or grad_norm / stop.last_k <= stop.last_k_tol:
                    mean = _window_mean(window)
                    if mean <= stop.last_k_tol and (not stop.require_quiescent
                                                    or quiescent(stop.last_k_tol)):
                        return "target"
                    if stall_due:
                        ref = self.stall_ref
                        if ref is not None and math.isfinite(ref) \
                                and mean > ref * (1.0 - stop.stall_improvement):
                            return "stalled"
                        self.stall_ref = mean
                        self.stall_next_t = t + stop.stall_window
        if t >= stop.max_iterations:
            return "cap"
        return None


# ---------------------------------------------------------------------------
# trace


@dataclass
class RunTrace:
    """The iterate side of a run beside its delay ledger.

    Row t holds the state just before server update t: the stepsize of the
    applied job, the gradient norm and objective value at x^t and the
    simulated clock at application.  The applied job's worker and delay, and
    |C_t|, are in ``ledger``, the one record of the schedule, which
    ``to_csv`` and ``metrics.summary`` both read.
    """

    stepsizes: Array
    grad_norms: Array
    objective_values: Array
    sim_times: Array
    final_x: Array
    final_value: float
    final_grad_norm: float
    stop_reason: str
    converged: bool
    diverged: bool
    ledger: DelayLedger

    def __len__(self) -> int:
        return self.ledger.total_iterations

    CSV_COLUMNS = (
        "t", "worker_id", "client_id", "delay", "stepsize", "grad_norm",
        "objective_value", "sim_time", "n_assigned", "concurrency",
    )

    CSV_CHUNK_ROWS = 1024  # rows converted to Python objects at a time

    def to_csv(self, path) -> None:
        # worker i computes client i's gradient, so the worker id fills both id
        # columns; one job is applied per step, so n_t = |C_t| - |C_{t-1}| + 1
        ledger = self.ledger
        log = np.array(ledger.concurrency_log, dtype=np.int64)
        ids = (ledger.applied_clients, ledger.applied_clients, ledger.applied_delays)
        columns = (self.stepsizes, self.grad_norms, self.objective_values, self.sim_times,
                   np.diff(log) + 1, log[:-1])
        with Path(path).open("w", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(self.CSV_COLUMNS)
            for lo in range(0, len(self), self.CSV_CHUNK_ROWS):
                rows = slice(lo, lo + self.CSV_CHUNK_ROWS)
                # csv writes a Python float as its repr and an int as str
                writer.writerows(zip(range(lo, lo + self.CSV_CHUNK_ROWS),
                                     *(col[rows] for col in ids),
                                     *(col[rows].tolist() for col in columns)))


# ---------------------------------------------------------------------------
# the two phases of a run


def _window_mean(window) -> float:
    # summed left to right: the builtin float sum is compensated from Python
    # 3.12 on, so a verdict near its tolerance would depend on the version
    total = 0.0
    for value in window:
        total += value
    return total / len(window)


def _start_point(objective, workers: Sequence, x0: Array):
    """The checked start point of a run and the family's client shifts (or None)."""
    if not workers:
        raise InvalidConfigError("need at least one worker")
    x = np.array(x0, dtype=float)
    if x.ndim != 1:
        raise InvalidConfigError("x0 must be a 1-d vector")
    if not np.all(np.isfinite(x)):
        raise InvalidConfigError("x0 must be finite")
    if x.shape[0] != objective.dim:
        raise InvalidConfigError(
            f"x0 has dimension {x.shape[0]} but the objective expects {objective.dim}"
        )
    shifts = objective.shifts if isinstance(objective, HeterogeneousFamily) else None
    if shifts is not None and len(workers) != objective.n_clients:
        raise InvalidConfigError(
            f"{objective.n_clients} clients in the family but {len(workers)} workers"
        )
    return x, shifts


class _ClientPicks:
    """The "client-sampling" stream of one run, as a policy that declares
    ``buffer_picks`` reads it: ``integers(0, n)``, one pick or ``size``.

    The picks come from a buffer that one call refills with twice as many
    draws as the last (``_CLIENT_PICKS`` at most), so a short run draws little
    ahead.  The stream gives the same picks in the same order either way.
    """

    __slots__ = ("rng", "n", "picks", "size")

    def __init__(self, rng: np.random.Generator, n: int):
        self.rng, self.n, self.picks, self.size = rng, n, deque(), 8

    def integers(self, low: int, high: int, size: Optional[int] = None):
        if (low, high) != (0, self.n):
            raise ValueError(f"buffered picks are integers(0, {self.n}), not ({low}, {high})")
        picks, want = self.picks, 1 if size is None else size
        if len(picks) < want:
            self.size = min(2 * self.size, _CLIENT_PICKS)
            draws = self.rng.integers(0, self.n, size=max(self.size, want - len(picks)))
            picks.extend(draws.tolist())
        if size is None:
            return picks.popleft()
        return np.array([picks.popleft() for _ in range(size)], dtype=np.int64)


class Schedule:
    """Phase 1 of a run: the in-flight heap, the "delay-model" and
    "client-sampling" streams, the policy and the schedule columns.

    Iterating yields first the workers seeded before iteration 0, then per
    applied job ``(job_id, worker, delay, handed)``, where ``handed`` are the
    workers given a job once it is applied.  Job ids count hand-outs from 0.
    Iterate it once: it stops where its consumer stops, and ``close`` then
    gives the ledger.
    """

    def __init__(self, workers: Sequence, policy, master_seed: int):
        self.workers, self.policy, self.master_seed = workers, policy, master_seed
        self.heap = []  # (finish_time, tie_key, job_id, worker, start_iteration)
        # one entry per applied job, and concurrency_log[t] = |C_t| jobs in flight once t
        # jobs had been applied and that step's jobs handed out.  One job is applied per
        # step, so n_t = |C_t| - |C_{t-1}| + 1 jobs were handed out at step t >= 1
        self.worker_ids, self.delays, self.finish_times, self.concurrency_log = [], [], [], []

    def __iter__(self):
        heap, worker_ids, delays, finish_times, concurrency_log = (
            self.heap, self.worker_ids, self.delays, self.finish_times, self.concurrency_log)
        sample_time = [model.sample for model in self.workers]
        delay_rng = named_stream(self.master_seed, "delay-model")
        client_rng = named_stream(self.master_seed, "client-sampling")
        if getattr(self.policy, "buffer_picks", False):  # per run: a policy may be shared
            client_rng = _ClientPicks(client_rng, len(sample_time))
        after = self.policy.after
        free_at, busy = [0.0] * len(sample_time), [0] * len(sample_time)
        next_id = t = 0
        now = 0.0
        handed = self.policy.start(len(sample_time), client_rng)
        while True:
            for w in handed:
                start = max(now, free_at[w])
                finish = start + sample_time[w](delay_rng)
                if not start < finish < math.inf:
                    raise InvalidConfigError(
                        f"worker {w}: the job assigned at iteration {t} starts at {start!r} and "
                        f"finishes at {finish!r}; a finish time must be finite and after its start")
                free_at[w] = finish
                heappush(heap, (finish, w, next_id, w, t))
                next_id += 1
                busy[w] += 1
            concurrency_log.append(len(heap))
            yield (job_id, worker, delay, handed) if t else handed
            if not heap:
                raise SimulationDeadlockError(
                    f"no jobs in flight at iteration {t}; the policy starved the queue")
            now, _, job_id, worker, start = heappop(heap)
            busy[worker] -= 1
            delay = t - start
            worker_ids.append(worker)
            delays.append(delay)
            finish_times.append(now)
            t += 1
            handed = after(t, worker, busy, client_rng)

    def close(self) -> DelayLedger:
        """The ledger after the last applied job, in-flight jobs in application order."""
        remaining = sorted(self.heap)
        return DelayLedger(
            applied_delays=self.delays,
            applied_clients=self.worker_ids,
            active_start_iterations=[entry[4] for entry in remaining],
            active_clients=[entry[3] for entry in remaining],
            concurrency_log=self.concurrency_log,
        )


def _in_flight(noise: NoiseModel, n: int, dim: int, shifts, master_seed: int):
    """The in-flight job vectors of a run by job id, and ``hand_out(handed, grad)``,
    which files a job for each worker in ``handed`` under the next id: ``grad``
    (one vector, or one row per column of a lockstep run) plus client ``w``'s
    shift and the next draw of worker ``w``'s noise stream.

    Worker ``w`` takes its draws in order from a block of ``rows`` draws of its
    stream, which equal as many single draws.  The fleet's blocks stay within
    ``_NOISE_BLOCK_BYTES`` when ``rows`` > 1, and a block is released with its
    last row, so at ``rows`` 1 no block is kept."""
    # a noiseless run draws no noise, so it opens no noise streams
    noise_rngs = [named_stream(master_seed, f"noise-worker-{i}")
                  for i in range(n if noise.sigma > 0.0 else 0)]
    rows = min(max(_NOISE_BLOCK_BYTES // (8 * dim * n), 1), _NOISE_BLOCK_ROWS)
    blocks, used = [None] * len(noise_rngs), [0] * len(noise_rngs)  # per worker
    jobs: dict[int, Array] = {}
    ids = itertools.count()

    def hand_out(handed, grad: Array) -> None:
        for w in handed:
            job = grad if shifts is None else grad + shifts[w]
            if noise_rngs:
                if blocks[w] is None:
                    blocks[w], used[w] = noise.sample((rows, dim), noise_rngs[w]), 0
                job = job + blocks[w][used[w]]
                used[w] += 1
                if used[w] == rows:
                    blocks[w] = None
            jobs[next(ids)] = job

    return jobs, hand_out


def _norm(grad: Array) -> float:
    return math.sqrt(float(np.dot(grad, grad)))


def _lockstep(objective, noise: NoiseModel, schedule: Schedule, rules: Sequence, x0: Array,
              stop: StopRule, dominance: bool = False,
              record: Optional[tuple[list, list]] = None):
    """Phase 2: one stepsize rule per column, in lockstep over ``schedule``.

    The iterate is a (columns, dim) block and every in-flight job carries one
    gradient row per running column; a column that stops leaves the block and
    every job.  One column keeps the iterate, the gradient and the jobs as
    vectors and eta as a float: the step kernels, picked whenever the column
    count changes, give every row the bits of ``value_and_gradient``.

    ``dominance`` is the budget rule of ``min_T_to_eps`` tuning, with the
    columns largest stepsize first: a column that reaches the target at step
    T can only be beaten by a later column that reaches it sooner, so every
    later column still running stops by a cap at T - 1 (at step 0, before its
    first step, when T is 1).  Such a column yields the norms up to T - 1 but
    the iterate of step T.  ``record`` (one column) is a pair of lists that
    collects eta per step and the value per iterate.

    A generator: it yields ``(column, end, verdict, norms, x)`` for each column
    as it stops, in step order, then row order: the stop step and verdict, the
    gradient norms up to ``end`` (the last ``ERROR_WINDOW`` at least, all under
    ``record``) and the last iterate.  A consumer that stops early stops the
    run, and ``schedule`` with it, at that step.
    """
    workers, master_seed = schedule.workers, schedule.master_seed
    x, shifts = _start_point(objective, workers, x0)
    if not rules:
        return
    cols, rules = list(range(len(rules))), list(rules)  # the column of each row
    jobs, hand_out = _in_flight(noise, len(workers), x.shape[0], shifts, master_seed)
    t, row = 0, 0  # row: the row whose verdict is being checked
    value, grad = objective.value_and_gradient(x)  # every column starts here
    norm = _norm(grad)
    trackers = [StopTracker(stop, norm) for _ in cols]
    if len(cols) > 1:
        x, grad, norm = (np.tile(x, (len(cols), 1)), np.tile(grad, (len(cols), 1)),
                         np.full(len(cols), norm))
    # the newest norms (one per row), which final errors average; every norm under record
    history = [norm] if record else deque([norm], maxlen=ERROR_WINDOW + 1)
    if record:
        etas, values = record
        values.append(value)

    def quiescent(tol: float) -> bool:
        # every in-flight gradient of the row being checked: whole jobs in one column
        rows = jobs.values() if len(cols) == 1 else (job[row] for job in jobs.values())
        return all(_norm(g) <= tol for g in rows)

    def check_rows(t: int, block_values: Array, block_norms: Array, quiescent) -> Optional[dict]:
        """{row: (end, verdict)} of the rows that stop at step t, or None."""
        nonlocal row
        stops = {}
        for row, (tracker, value, norm) in enumerate(
                zip(trackers, block_values.tolist(), block_norms.tolist())):
            verdict = tracker.check(t, value, norm, quiescent)
            if verdict is not None:
                stops[row] = (t, verdict)
                if dominance and verdict == "target":
                    stops.update((later, (t - 1, "cap")) for later in range(row + 1, len(cols)))
                    break
        return stops or None

    events = iter(schedule)
    hand_out(next(events), grad)
    while True:
        # the norm is root(dot(g, g)): a block's row norms have the bits of _norm
        if len(cols) == 1:
            rate, evaluate, root, dot, check = (rules[0].at, objective.value_and_gradient,
                                                math.sqrt, np.dot, trackers[0].check)
        else:
            def rate(t, delay):
                return np.array([rule.at(t, delay) for rule in rules])[:, None]
            evaluate, root, dot, check = (objective.values_and_gradients, np.sqrt, _row_dots,
                                          check_rows)

        for job_id, worker, delay, handed in events:
            eta = rate(t, delay)
            x = x - eta * jobs.pop(job_id)
            t += 1
            value, grad = evaluate(x)
            norm = root(dot(grad, grad))
            history.append(norm)
            if record:
                etas.append(eta)
                values.append(value)
            hand_out(handed, grad)
            verdict = check(t, value, norm, quiescent)
            if verdict is not None:
                break

        if len(cols) == 1:
            yield cols[0], t, verdict, history, x
            return
        for r, (end, why) in verdict.items():
            norms = [step[r] for step in history]
            yield cols[r], end, why, norms[:len(norms) - (t - end)], x[r]
        keep = [r for r in range(len(cols)) if r not in verdict]
        if not keep:
            return
        cols, rules, trackers = ([seq[r] for r in keep] for seq in (cols, rules, trackers))
        pick = keep if len(keep) > 1 else keep[0]  # the survivor of a block is a vector
        x = x[pick]
        history = deque((step[pick] for step in history), maxlen=history.maxlen)
        for job_id, job in jobs.items():
            jobs[job_id] = job[pick]


def _run(objective, noise: NoiseModel, workers: Sequence, policy, stepsize,
         x0: Array, stop: StopRule, master_seed: int) -> RunTrace:
    """A one-column lockstep run, with its trace."""
    etas, values = [], []
    schedule = Schedule(workers, policy, master_seed)
    [(_, _, verdict, norms, x)] = _lockstep(objective, noise, schedule, [stepsize], x0, stop,
                                            record=(etas, values))
    return RunTrace(
        stepsizes=np.array(etas, dtype=float),
        grad_norms=np.array(norms, dtype=float)[:-1],
        objective_values=np.array(values, dtype=float)[:-1],
        sim_times=np.array(schedule.finish_times, dtype=float),
        final_x=x,
        final_value=values[-1],
        final_grad_norm=norms[-1],
        stop_reason=verdict,
        converged=verdict == "target" or (verdict == "cap" and not stop.has_target),
        diverged=verdict == "diverged",
        ledger=schedule.close(),
    )


def run_grid(objective, noise: NoiseModel, workers: Sequence, policy, stepsizes: Sequence,
             x0: Array, stop: StopRule, master_seed: int = 0,
             dominance: bool = False) -> list[Optional[TuneOutcome]]:
    """One stepsize rule per column of a ``_lockstep`` run (with its ``dominance``), so
    column k ends bit for bit as a single run under ``stepsizes[k]``.  Returns one
    ``TuneOutcome`` per column (``final_error`` its ``window_error``), or None
    for a column that dominance would cap before step 1.
    """
    stops = _lockstep(objective, noise, Schedule(workers, policy, master_seed), stepsizes, x0,
                      stop, dominance)
    return [TuneOutcome(end if verdict == "target" else None, window_error(norms),
                        verdict == "diverged")
            if end >= 1 else None for _, end, verdict, norms, _ in sorted(stops)]


def race_grid(objective, noise: NoiseModel, workers: Sequence, policy, stepsizes: Sequence,
              x0: Array, stop: StopRule,
              master_seed: int = 0) -> Optional[tuple[int, int, Sequence[float], Schedule]]:
    """The first column of a ``_lockstep`` run to stop at the target; the run ends there.

    Columns stop in step order, then row order, so with ``stepsizes`` largest
    first this is the ``min_T_to_eps`` winner that ``select_stepsize`` picks
    from ``run_grid`` (ties to the larger stepsize), and no other column runs
    past its step.  Returns ``(column, end, norms, schedule)``: the winner's
    index and stop step, its gradient norms up to ``end`` (the last
    ``ERROR_WINDOW`` at least) and the schedule, stopped at ``end``, whose
    ``close()`` is the winner's ledger and whose ``finish_times[-1]`` its total
    simulated time.  None when no column reaches the target.
    """
    schedule = Schedule(workers, policy, master_seed)
    for column, end, verdict, norms, _ in _lockstep(objective, noise, schedule, stepsizes, x0,
                                                    stop):
        if verdict == "target":
            return column, end, norms, schedule
    return None


def run_homogeneous(objective, noise: NoiseModel, workers: Sequence, policy, stepsize,
                    x0: Array, stop: StopRule, master_seed: int = 0) -> RunTrace:
    """Simulate a run where every worker shares one objective."""
    if isinstance(objective, HeterogeneousFamily):
        raise InvalidConfigError("use run_heterogeneous for client families")
    return _run(objective, noise, workers, policy, stepsize, x0, stop, master_seed)


def run_heterogeneous(family: HeterogeneousFamily, noise: NoiseModel, workers: Sequence,
                      concurrency: int, stepsize, x0: Array, stop: StopRule,
                      master_seed: int = 0) -> RunTrace:
    """Simulate uniform client sampling over a family of client objectives."""
    if not isinstance(family, HeterogeneousFamily):
        raise InvalidConfigError("run_heterogeneous expects a HeterogeneousFamily")
    policy = UniformClientSampling(concurrency)
    return _run(family, noise, workers, policy, stepsize, x0, stop, master_seed)
