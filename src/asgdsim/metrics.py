"""Delay bookkeeping and trace statistics.

A run over T server iterations leaves behind a ``DelayLedger``: the applied
delays tau_t = t - (assignment iteration) for t = 0..T-1, the start
iterations of the jobs still in flight at T, and the concurrency log
|C_0|, ..., |C_T|.  All delay arithmetic here is exact integer/rational.

Every job handed out is either applied or still in flight, so the ledger
derives its iteration count and each client's hand-out count from these
columns.  The in-flight jobs are kept in application order, and two
conventions count them:

* Reported statistics (``average_delay_exact``, ``max_delay``) exclude the
  in-flight job that would have been applied next, matching the convention
  that the last step's job is not counted among the leftovers.
* The conservation check counts every job from its assignment step
  inclusive, i.e. each applied delay enters as tau_t + 1 and each in-flight
  job as (T - start + 1).  Under that bookkeeping the total equals the
  summed concurrency log exactly:

      sum_t (tau_t + 1) + sum_inflight (T - s_i + 1) = sum_{t=0}^{T} |C_t|

  This is an exact integer identity for every schedule, which makes it a
  cheap and sharp simulator bug detector.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional

import numpy as np

from .errors import UndefinedStatisticError


@dataclass
class DelayLedger:
    applied_delays: list[int]
    applied_clients: list[int]
    active_start_iterations: list[int]  # in application order
    active_clients: list[int]
    concurrency_log: list[int]

    def __post_init__(self):
        t = self.total_iterations
        if len(self.applied_clients) != t:
            raise ValueError("applied_clients length does not match applied_delays")
        if len(self.active_start_iterations) != len(self.active_clients):
            raise ValueError("active job lists disagree in length")
        if len(self.concurrency_log) != t + 1:
            raise ValueError(
                f"concurrency log must have {t + 1} entries, got {len(self.concurrency_log)}"
            )

    @property
    def total_iterations(self) -> int:
        return len(self.applied_delays)

    @property
    def samples_per_client(self) -> dict[int, int]:
        """Jobs handed to each client: its applied jobs plus its in-flight ones."""
        counts = Counter(self.applied_clients)
        counts.update(self.active_clients)
        return dict(sorted(counts.items()))

    def in_flight_delays_all(self) -> list[int]:
        t = self.total_iterations
        return [t - s for s in self.active_start_iterations]

    def in_flight_delays_reported(self) -> list[int]:
        """The in-flight delays without the job that would be applied next."""
        return self.in_flight_delays_all()[1:]


class ConservationCheck(NamedTuple):
    lhs: int
    rhs: int
    passed: bool


def average_delay_exact(ledger: DelayLedger) -> Fraction:
    """Mean delay over applied gradients and the reported in-flight set."""
    if ledger.total_iterations < 1:
        raise UndefinedStatisticError("average delay needs at least one iteration")
    in_flight = ledger.in_flight_delays_reported()
    total = sum(ledger.applied_delays) + sum(in_flight)
    return Fraction(total, ledger.total_iterations + len(in_flight))


def max_delay(ledger: DelayLedger) -> int:
    """Largest delay among applied gradients and the reported in-flight set."""
    candidates = list(ledger.applied_delays) + ledger.in_flight_delays_reported()
    if not candidates:
        raise UndefinedStatisticError("max delay of an empty ledger")
    return max(candidates)


def average_concurrency_exact(ledger: DelayLedger) -> Fraction:
    return Fraction(sum(ledger.concurrency_log), len(ledger.concurrency_log))


def max_concurrency(ledger: DelayLedger) -> int:
    return max(ledger.concurrency_log)


def delay_conservation(ledger: DelayLedger) -> ConservationCheck:
    """Exact conservation identity between delays and the concurrency log."""
    t = ledger.total_iterations
    lhs = (
        sum(ledger.applied_delays)
        + t
        + sum(ledger.in_flight_delays_all())
        + len(ledger.active_start_iterations)
    )
    rhs = sum(ledger.concurrency_log)
    return ConservationCheck(lhs, rhs, lhs == rhs)


def average_delay_per_client_exact(ledger: DelayLedger) -> dict[int, Fraction]:
    """Mean delay of each sampled client, in client order: its applied delays
    plus T - s for every one of its jobs still in flight (none excluded),
    divided by the number of times the client was handed work.  A client
    that was never sampled is absent."""
    t = ledger.total_iterations
    totals: dict[int, int] = {}
    for d, c in zip(ledger.applied_delays, ledger.applied_clients):
        totals[c] = totals.get(c, 0) + d
    for s, c in zip(ledger.active_start_iterations, ledger.active_clients):
        totals[c] = totals.get(c, 0) + t - s
    return {client: Fraction(totals[client], count)
            for client, count in ledger.samples_per_client.items()}


ERROR_WINDOW = 30  # last_k_error's default k: the final error that tuning compares


def window_error(norms, k: int = ERROR_WINDOW) -> float:
    """Mean of the last ``k`` of the gradient norms ``norms``, or of all of them
    when there are fewer."""
    return float(np.array(norms, dtype=float)[-k:].mean())


def last_k_error(trace, k: int = ERROR_WINDOW) -> float:
    """``window_error`` of the gradient norms at every iterate x^0 .. x^T
    (the trace rows plus the final point)."""
    if k < 1:
        raise UndefinedStatisticError("k must be at least 1")
    return window_error(np.append(np.asarray(trace.grad_norms, dtype=float),
                                  trace.final_grad_norm), k)


def _finite_or_none(value) -> Optional[float]:
    value = float(value)
    return value if math.isfinite(value) else None


def summary(trace) -> dict:
    """JSON-ready summary of a run: delay statistics, conservation check, errors.

    Non-finite floats (a diverged run's norms, an overflowed clock) become ``None``.
    """
    ledger = trace.ledger
    check = delay_conservation(ledger)
    avg = average_delay_exact(ledger)
    return {
        "iterations": ledger.total_iterations,
        "converged": bool(trace.converged),
        "diverged": bool(trace.diverged),
        "stop_reason": trace.stop_reason,
        "final_grad_norm": _finite_or_none(trace.final_grad_norm),
        "final_objective_value": _finite_or_none(trace.final_value),
        "error_last30": _finite_or_none(last_k_error(trace)),
        "tau_avg": float(avg),
        "tau_avg_exact": f"{avg.numerator}/{avg.denominator}",
        "tau_max": max_delay(ledger),
        "avg_concurrency": float(average_concurrency_exact(ledger)),
        "max_concurrency": max_concurrency(ledger),
        "tau_avg_per_client": {
            str(c): float(v) for c, v in average_delay_per_client_exact(ledger).items()
        },
        "delay_conservation": {"lhs": check.lhs, "rhs": check.rhs, "pass": check.passed},
        "in_flight_convention": "exclude-next-applied",
        "total_sim_time": _finite_or_none(trace.total_sim_time),
        "gradients_started": ledger.total_iterations + len(ledger.active_clients),
    }
