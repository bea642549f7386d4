"""The event loop as it was before the schedule/iterate split: the oracle
that ``engine._run`` must reproduce bit for bit.

``_job_queue`` and ``_run`` are kept verbatim, except that the fault hooks
(tie inversion, off-by-one delays) and the recorded iterates are gone with
the run API's parameters for them, a fleet is a sequence of time models,
and the trace and ledger are built from the fields they keep.  The loop
still counts every hand-out itself, and the returned ``ReferenceTrace``
carries those counts, per client and per step, beside the trace.  Nothing
in ``src`` calls this module.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Sequence

import numpy as np

from asgdsim.engine import RunTrace, StopRule, StopTracker, _start_point
from asgdsim.errors import InvalidConfigError, SimulationDeadlockError
from asgdsim.metrics import DelayLedger
from asgdsim.objectives import NoiseModel
from asgdsim.rng import named_stream

Array = np.ndarray


@dataclass
class ReferenceTrace(RunTrace):
    samples_per_client: dict[int, int]  # the hand-outs the loop counted, by client
    n_assigned: Array  # and by step: the jobs handed out once row t was applied


def _job_queue(workers: Sequence, noise: NoiseModel, dim: int, shifts,
               master_seed: int):
    """The in-flight heap of a run and ``assign(w, t, now, grad)``, which hands
    worker ``w`` a job at iteration ``t`` and clock ``now``.

    ``grad`` is the gradient at the current iterate: one vector, or one row
    per column of a lockstep run.  Client ``w``'s shift and one noise draw
    are added to every row.  Returns ``(heap, busy, samples, assign)``.
    """
    n = len(workers)
    heap: list = []
    free_at = [0.0] * n
    busy = [0] * n
    samples: dict[int, int] = {}
    seq = itertools.count()
    sample_time = [model.sample for model in workers]
    delay_rng = named_stream(master_seed, "delay-model")
    noise_rngs = [named_stream(master_seed, f"noise-worker-{i}") for i in range(n)]
    noisy = noise.sigma > 0.0

    def assign(w: int, t: int, now: float, grad: Array) -> None:
        start = max(now, free_at[w])
        finish = start + sample_time[w](delay_rng)
        if not start < finish < math.inf:
            raise InvalidConfigError(
                f"worker {w}: the job assigned at iteration {t} starts at {start!r} and "
                f"finishes at {finish!r}; a finish time must be finite and after its start"
            )
        free_at[w] = finish
        job = grad if shifts is None else grad + shifts[w]
        if noisy:
            job = job + noise.sample(dim, noise_rngs[w])
        heappush(heap, (finish, w, next(seq), w, t, job))
        busy[w] += 1
        samples[w] = samples.get(w, 0) + 1

    return heap, busy, samples, assign


def _run(
    objective,
    noise: NoiseModel,
    workers: Sequence,
    policy,
    stepsize,
    x0: Array,
    stop: StopRule,
    master_seed: int,
) -> ReferenceTrace:
    x, shifts = _start_point(objective, workers, x0)
    heap, busy, samples, assign = _job_queue(workers, noise, x.shape[0], shifts, master_seed)
    client_rng = named_stream(master_seed, "client-sampling")

    t = 0
    sim_time = 0.0
    value, grad = objective.value_and_gradient(x)
    grad_norm = math.sqrt(float(np.dot(grad, grad)))

    col_worker: list[int] = []
    col_delay: list[int] = []
    col_eta: list[float] = []
    col_grad_norm: list[float] = []
    col_value: list[float] = []
    col_sim_time: list[float] = []
    col_assigned: list[int] = []
    # concurrency_log[t] is |C_t|, the trace CSV's concurrency column before event t
    concurrency_log: list[int] = []
    tracker = StopTracker(stop, grad_norm)

    def quiescent(tol: float) -> bool:
        return all(math.sqrt(float(np.dot(entry[-1], entry[-1]))) <= tol for entry in heap)

    for w in policy.start(len(workers), client_rng):
        assign(w, t, sim_time, grad)
    concurrency_log.append(len(heap))

    verdict = None
    while verdict is None:
        if not heap:
            raise SimulationDeadlockError(
                f"no jobs in flight at iteration {t}; the policy starved the queue"
            )
        finish, _, _, worker, start, job = heappop(heap)
        busy[worker] -= 1
        delay = t - start
        eta = stepsize.at(t, delay)
        col_worker.append(worker)
        col_delay.append(delay)
        col_eta.append(eta)
        col_grad_norm.append(grad_norm)
        col_value.append(value)
        col_sim_time.append(finish)

        sim_time = finish
        x = x - eta * job
        t += 1
        value, grad = objective.value_and_gradient(x)
        grad_norm = math.sqrt(float(np.dot(grad, grad)))

        selection = policy.after(t, worker, busy, client_rng)
        for w in selection:
            assign(w, t, sim_time, grad)
        col_assigned.append(len(selection))
        concurrency_log.append(len(heap))

        verdict = tracker.check(t, value, grad_norm, quiescent)

    remaining = sorted(heap)
    ledger = DelayLedger(
        applied_delays=col_delay,
        applied_clients=col_worker,
        active_start_iterations=[entry[4] for entry in remaining],
        active_clients=[entry[3] for entry in remaining],
        concurrency_log=concurrency_log,
    )
    return ReferenceTrace(
        stepsizes=np.array(col_eta, dtype=float),
        grad_norms=np.array(col_grad_norm, dtype=float),
        objective_values=np.array(col_value, dtype=float),
        sim_times=np.array(col_sim_time, dtype=float),
        final_x=x,
        final_value=value,
        final_grad_norm=grad_norm,
        stop_reason=verdict,
        converged=verdict == "target" or (verdict == "cap" and not stop.has_target),
        diverged=verdict == "diverged",
        ledger=ledger,
        samples_per_client=dict(sorted(samples.items())),
        n_assigned=np.array(col_assigned, dtype=int),
    )
