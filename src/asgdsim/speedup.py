"""Expected wall-time per gradient batch for asynchronous vs minibatch scheduling.

With n client speeds Delta_1 <= ... <= Delta_n and concurrency C:

* an asynchronous scheme sustains one applied gradient per Delta-bar
  time units and C lanes, where Delta-bar is the plain mean of the speeds;
* a sampled minibatch of C clients (uniform, with replacement) waits for
  the slowest draw, so its expected batch time is E max of C draws:

      Delta-tilde = sum_i alpha_i Delta_i,
      alpha_i = (i^C - (i-1)^C) / n^C.

The rank weights are computed in log space ((i/n)^C as exp(C log(i/n)))
because i^C and n^C overflow long before realistic fleet sizes do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvalidSpecError

ENUMERATION_BUDGET = 10**6


@dataclass(frozen=True)
class SpeedupInput:
    """Client speeds (sorted ascending on construction) and the concurrency."""

    deltas: tuple[float, ...]
    concurrency: int

    def __post_init__(self):
        if len(self.deltas) < 1:
            raise InvalidSpecError("need at least one client speed")
        if not all(0 < d < math.inf for d in self.deltas):
            raise InvalidSpecError("client speeds must be positive and finite")
        if self.concurrency < 1:
            raise InvalidSpecError(f"concurrency must be at least 1, got {self.concurrency}")
        object.__setattr__(self, "deltas", tuple(sorted(float(d) for d in self.deltas)))

    @property
    def n_clients(self) -> int:
        return len(self.deltas)


def async_time(inp: SpeedupInput) -> float:
    """Expected wall time per applied gradient, times the concurrency."""
    return float(np.mean(inp.deltas))


def minibatch_weights(n_clients: int, concurrency: int) -> np.ndarray:
    """Rank weights alpha_i = (i^C - (i-1)^C) / n^C, computed stably in log space."""
    if n_clients < 1 or concurrency < 1:
        raise InvalidSpecError("n_clients and concurrency must be at least 1")
    i = np.arange(0, n_clients + 1, dtype=float)
    with np.errstate(divide="ignore"):
        log_ratio = np.log(i / n_clients)
    cumulative = np.exp(concurrency * log_ratio)  # (i/n)^C, exact 0 at i=0
    return np.diff(cumulative)


def minibatch_time(inp: SpeedupInput) -> float:
    """Expected time of a batch of ``concurrency`` uniform draws (closed form)."""
    weights = minibatch_weights(inp.n_clients, inp.concurrency)
    return float(weights @ np.asarray(inp.deltas))


def speedup_ratio(inp: SpeedupInput) -> float:
    """How much longer the sampled minibatch waits per batch than the async scheme."""
    return minibatch_time(inp) / async_time(inp)


class OracleEstimate(NamedTuple):
    estimate: float
    stderr: float
    method: str
    fell_back: bool


def minibatch_time_oracle(
    inp: SpeedupInput,
    method: str = "exhaustive",
    samples: int = 10**5,
    seed: int = 0,
) -> OracleEstimate:
    """Independent estimate of the expected batch maximum.

    ``exhaustive`` enumerates all n^C draws (only when that count stays
    within a fixed budget; otherwise it falls back to Monte Carlo and says
    so).  ``monte_carlo`` averages ``samples`` random batches; its stderr is
    the sample standard error.
    """
    deltas = np.asarray(inp.deltas)
    n, c = inp.n_clients, inp.concurrency
    if method == "exhaustive":
        if n**c <= ENUMERATION_BUDGET:
            maxima = deltas.copy()
            for _ in range(c - 1):
                maxima = np.maximum.outer(maxima, deltas).ravel()
            return OracleEstimate(float(maxima.mean()), 0.0, "exhaustive", False)
        method, fell_back = "monte_carlo", True
    elif method == "monte_carlo":
        fell_back = False
    else:
        raise InvalidSpecError(f"unknown oracle method {method!r}")
    rng = np.random.default_rng(seed)
    draws = deltas[rng.integers(0, n, size=(samples, c))].max(axis=1)
    stderr = float(draws.std(ddof=1) / math.sqrt(samples)) if samples > 1 else math.inf
    return OracleEstimate(float(draws.mean()), stderr, "monte_carlo", fell_back)
