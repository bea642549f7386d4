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
MONTE_CARLO_BUDGET = 10**9  # rank draws, samples x concurrency
MONTE_CARLO_BLOCK = 2**18  # rank draws held at once


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
        with np.errstate(over="ignore"):  # the same sum as async_time's mean
            if not np.isfinite(np.sum(self.deltas)):
                raise InvalidSpecError("client speeds must have a finite sum")

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
    the sample standard error.  A one-client fleet's batches all take its
    only speed, whatever the concurrency.
    """
    deltas = np.asarray(inp.deltas)
    n = inp.n_clients
    c = inp.concurrency if n > 1 else 1
    if method == "exhaustive":
        # n >= 2 keeps n^C within the budget only for C below its bit length
        if c < ENUMERATION_BUDGET.bit_length() and n**c <= ENUMERATION_BUDGET:
            maxima = deltas.copy()
            for _ in range(c - 1):
                maxima = np.maximum.outer(maxima, deltas).ravel()
            return OracleEstimate(float(maxima.mean()), 0.0, "exhaustive", False)
        method, fell_back = "monte_carlo", True
    elif method == "monte_carlo":
        fell_back = False
    else:
        raise InvalidSpecError(f"unknown oracle method {method!r}")
    if samples * c > MONTE_CARLO_BUDGET:
        raise InvalidSpecError(
            f"monte carlo needs {samples:,} x {c:,} rank draws, "
            f"over the budget of {MONTE_CARLO_BUDGET:,}")
    draws = _batch_maxima(deltas, c, samples, np.random.default_rng(seed))
    stderr = float(draws.std(ddof=1) / math.sqrt(samples)) if samples > 1 else math.inf
    return OracleEstimate(float(draws.mean()), stderr, "monte_carlo", fell_back)


def _batch_maxima(deltas: np.ndarray, concurrency: int, samples: int,
                 rng: np.random.Generator) -> np.ndarray:
    """The slowest of ``concurrency`` uniform draws from sorted ``deltas``, per batch.

    Equals ``deltas[rng.integers(0, n, size=(samples, concurrency))].max(axis=1)``
    bit for bit, but holds at most ``MONTE_CARLO_BLOCK`` ranks at a time: the
    batches are drawn a block of rows (or, for a batch wider than a block, a
    block of one row's columns) per call, and numpy's bounded integers continue
    the stream draw for draw across calls.  A batch's slowest draw is the speed
    at its largest rank, because ``deltas`` is sorted.
    """
    draws = np.empty(samples)
    rows = max(1, MONTE_CARLO_BLOCK // concurrency)
    cols = min(concurrency, MONTE_CARLO_BLOCK)
    for lo in range(0, samples, rows):
        k = min(rows, samples - lo)
        top = np.zeros(k, dtype=np.int64)
        for col in range(0, concurrency, cols):
            ranks = rng.integers(0, len(deltas), size=(k, min(cols, concurrency - col)))
            np.maximum(top, ranks.max(axis=1), out=top)
        draws[lo:lo + k] = deltas[top]
    return draws
