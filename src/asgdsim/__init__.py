"""Deterministic simulator and analysis tools for asynchronous SGD with delays."""

from .engine import (
    ConstantTime,
    CustomSelection,
    LogNormalTime,
    MaxConcurrency,
    MiniBatch,
    RunTrace,
    SampledMiniBatch,
    StopRule,
    StragglerTime,
    UniformClientSampling,
    constant_fleet,
    run_heterogeneous,
    run_homogeneous,
)
from .errors import (
    InvalidConfigError,
    InvalidSelectionError,
    InvalidSpecError,
    SimulationDeadlockError,
    SimulatorError,
    TuningFailedError,
    UndefinedStatisticError,
)
from .metrics import (
    DelayLedger,
    average_concurrency_exact,
    average_delay_exact,
    average_delay_per_client_exact,
    delay_conservation,
    last_k_error,
    max_concurrency,
    max_delay,
    summary,
)
from .objectives import (
    HeterogeneousFamily,
    LogisticObjective,
    NoiseModel,
    QuadraticObjective,
    finite_difference_gradient,
    make_heterogeneous,
    make_logistic,
    make_quadratic,
)
from .rng import named_stream, stream_seed
from .speedup import (
    OracleEstimate,
    SpeedupInput,
    async_time,
    minibatch_time,
    minibatch_time_oracle,
    minibatch_weights,
    speedup_ratio,
)
from .stepsize import (
    ConstantStepsize,
    DelayAdaptiveStepsize,
    TheoreticalConstantStepsize,
    TuneOutcome,
    TuningResult,
    adaptive_eta_bounds,
    default_log_grid,
    select_stepsize,
    theoretical_constant_eta,
)

__version__ = "0.1.0"

