"""Stepsize policies and grid tuning.

The delay-adaptive rule keeps the base stepsize for gradients whose delay is
at most the target concurrency and shrinks (or drops) the rest:

    eta_t = eta                                if tau_t <= concurrency
    eta_t < min(eta, 1 / (4 L tau_t))          otherwise ("scale" mode)
    eta_t = 0                                  otherwise ("drop" mode)

Scale mode realises the strict inequality by shaving a relative 1e-9 off the
min.  ``theoretical_constant_eta`` is the horizon-dependent constant stepsize
suggested by the convergence analysis,

    eta = min( 1 / (2 L sqrt(max_delay * concurrency)),
               sqrt(initial_gap / (2 L sigma^2 (horizon + 1))) ),

with the second branch dropping out entirely in the noiseless case.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import InvalidSpecError, TuningFailedError

STRICT_SHAVE = 1e-9
TUNING_CRITERIA = ("min_T_to_eps", "min_final_error")


@dataclass(frozen=True)
class ConstantStepsize:
    eta: float

    def __post_init__(self):
        if not 0 <= self.eta < math.inf:
            raise InvalidSpecError(f"eta must be finite and non-negative, got {self.eta}")

    def at(self, t: int, delay: int) -> float:
        return self.eta


@dataclass(frozen=True)
class DelayAdaptiveStepsize:
    """Delay-adaptive rule with "scale" or "drop" handling of stale gradients."""

    eta: float
    lipschitz: float
    concurrency: int
    mode: str = "scale"

    def __post_init__(self):
        if not 0 < self.eta < math.inf:
            raise InvalidSpecError(f"eta must be finite and positive, got {self.eta}")
        if not 0 < self.lipschitz < math.inf:
            raise InvalidSpecError(f"lipschitz must be finite and positive, got {self.lipschitz}")
        if self.concurrency < 1:
            raise InvalidSpecError(f"concurrency must be at least 1, got {self.concurrency}")
        if self.mode not in ("scale", "drop"):
            raise InvalidSpecError(f"mode must be 'scale' or 'drop', got {self.mode!r}")

    def at(self, t: int, delay: int) -> float:
        if delay <= self.concurrency:
            return self.eta
        if self.mode == "drop":
            return 0.0
        return min(self.eta, 1.0 / (4.0 * self.lipschitz * delay)) * (1.0 - STRICT_SHAVE)


def theoretical_constant_eta(
    lipschitz: float,
    max_delay: float,
    concurrency: float,
    sigma: float = 0.0,
    initial_gap: float = 0.0,
    horizon: int = 0,
) -> float:
    """Constant stepsize from the convergence analysis; see module docstring."""
    if lipschitz <= 0 or max_delay <= 0 or concurrency <= 0:
        raise InvalidSpecError("lipschitz, max_delay and concurrency must be positive")
    if sigma < 0 or initial_gap < 0 or horizon < 0:
        raise InvalidSpecError("sigma, initial_gap and horizon must be non-negative")
    first = 1.0 / (2.0 * lipschitz * math.sqrt(max_delay * concurrency))
    if sigma == 0.0:
        return first
    second = math.sqrt(initial_gap / (2.0 * lipschitz * sigma**2 * (horizon + 1)))
    return min(first, second)


@dataclass(frozen=True)
class TheoreticalConstantStepsize:
    """Constant policy whose value is ``theoretical_constant_eta`` of its fields."""

    lipschitz: float
    max_delay: float
    concurrency: float
    sigma: float = 0.0
    initial_gap: float = 0.0
    horizon: int = 0
    eta: float = field(init=False)

    def __post_init__(self):
        value = theoretical_constant_eta(
            self.lipschitz, self.max_delay, self.concurrency,
            self.sigma, self.initial_gap, self.horizon,
        )
        object.__setattr__(self, "eta", value)

    def at(self, t: int, delay: int) -> float:
        return self.eta


def adaptive_eta_bounds(lipschitz: float, concurrency: int) -> dict:
    """Candidate base-stepsize bounds for the delay-adaptive rule.

    The analysis supports both 1/(4L) and the concurrency-dependent
    1/(4 L concurrency); they coincide only at concurrency 1.  The tighter
    bound is returned as ``eta`` and both candidates are kept so reports can
    surface the discrepancy instead of hiding it.
    """
    if lipschitz <= 0 or concurrency < 1:
        raise InvalidSpecError("lipschitz must be positive and concurrency at least 1")
    loose = 1.0 / (4.0 * lipschitz)
    tight = 1.0 / (4.0 * lipschitz * concurrency)
    return {"plain_bound": loose, "concurrency_bound": tight, "eta": min(loose, tight)}


# every grid point is a column of the lockstep run; the default grid has 29
MAX_GRID_POINTS = 10_000


def default_log_grid(points_per_decade: int = 4, low: float = 1e-5, high: float = 1e2) -> list[float]:
    """Log-spaced stepsize grid from ``low`` to ``high`` inclusive, ``MAX_GRID_POINTS`` at most."""
    if not 1 <= points_per_decade <= MAX_GRID_POINTS:
        raise InvalidSpecError(f"points_per_decade must lie in [1, {MAX_GRID_POINTS}]")
    if not (0 < low < high):
        raise InvalidSpecError("need 0 < low < high")
    span = math.log10(high / low) * points_per_decade  # inf when high / low overflows
    n = int(round(span)) + 1 if span < MAX_GRID_POINTS else math.inf
    if n > MAX_GRID_POINTS:
        raise InvalidSpecError(f"{low} to {high} at {points_per_decade} points per decade "
                               f"is more than {MAX_GRID_POINTS} grid points")
    return [float(v) for v in np.logspace(math.log10(low), math.log10(high), n)]


class TuneOutcome(NamedTuple):
    """What a tuning runner reports back for one stepsize."""

    iterations_to_target: Optional[int]
    final_error: float
    diverged: bool


@dataclass(frozen=True)
class TunePoint:
    eta: float
    metric: float
    iterations_to_target: Optional[int]
    final_error: float
    diverged: bool

    def to_dict(self) -> dict:
        return {
            "eta": self.eta,
            "metric": None if math.isinf(self.metric) else self.metric,
            "iterations_to_target": self.iterations_to_target,
            "final_error": self.final_error if math.isfinite(self.final_error) else None,
            "diverged": self.diverged,
        }


@dataclass
class TuningResult:
    criterion: str
    grid: list[float]
    points: list[TunePoint]
    best_eta: float
    best_metric: float
    best_on_grid_edge: bool

    def to_dict(self) -> dict:
        return asdict(self) | {"points": [p.to_dict() for p in self.points]}


def grid_tune(
    run: Callable[[float, Optional[int]], TuneOutcome],
    grid: Sequence[float],
    criterion: str = "min_T_to_eps",
) -> TuningResult:
    """Evaluate ``run`` on every grid point and pick the best stepsize.

    ``run(eta, budget)`` must return a ``TuneOutcome``; ``budget`` is an
    iteration cap the runner may honour (None means the runner's default).

    Criteria:

    * ``min_T_to_eps``    smallest iteration count to the runner's target.
      Points are evaluated from the largest stepsize down, and once some
      point has reached the target in B iterations later points only get a
      budget of B - 1: they can no longer win, so cutting them short changes
      nothing about the winner.  Ties prefer the larger stepsize.
    * ``min_final_error`` smallest final error at the full budget.

    Raises ``TuningFailedError`` when no grid point produces a usable metric.
    """
    if criterion not in TUNING_CRITERIA:
        raise InvalidSpecError(f"unknown tuning criterion {criterion!r}")
    grid = sorted(float(g) for g in grid)
    if not grid or len(set(grid)) < len(grid):
        raise InvalidSpecError(f"tuning grid must be non-empty and hold no point twice, got {grid}")

    points: dict[float, TunePoint] = {}
    best_eta = None
    best_metric = math.inf
    for eta in reversed(grid):
        budget = None
        if criterion == "min_T_to_eps" and math.isfinite(best_metric):
            budget = int(best_metric) - 1
            if budget < 1:
                points[eta] = TunePoint(eta, math.inf, None, math.nan, False)
                continue
        outcome = run(eta, budget)
        if criterion == "min_T_to_eps":
            metric = (
                math.inf
                if outcome.iterations_to_target is None or outcome.diverged
                else float(outcome.iterations_to_target)
            )
        else:
            metric = (
                math.inf
                if outcome.diverged or not math.isfinite(outcome.final_error)
                else outcome.final_error
            )
        points[eta] = TunePoint(
            eta, metric, outcome.iterations_to_target, outcome.final_error, outcome.diverged
        )
        if metric < best_metric:
            best_metric = metric
            best_eta = eta

    if best_eta is None:
        raise TuningFailedError(
            "no stepsize on the grid produced a usable run",
            points=[points[g].to_dict() for g in grid],
        )
    ordered = [points[g] for g in grid]
    edge = best_eta == grid[0] or best_eta == grid[-1]
    return TuningResult(criterion, grid, ordered, best_eta, best_metric, edge)
