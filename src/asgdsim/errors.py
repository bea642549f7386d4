"""Exception types shared across the simulator."""


class SimulatorError(Exception):
    """Base class for all errors raised by this package."""


class InvalidSpecError(SimulatorError):
    """A generator or constructor was given parameters outside its domain."""


class InvalidConfigError(SimulatorError):
    """A run configuration is inconsistent; the message carries the field path."""


class SimulationDeadlockError(SimulatorError):
    """The event queue drained while more iterations were requested."""


class InvalidSelectionError(SimulatorError):
    """A scheduling policy selected a worker that is not available."""


class UndefinedStatisticError(SimulatorError):
    """A statistic was requested that does not exist for this trace."""


class TuningFailedError(SimulatorError):
    """Every stepsize on the tuning grid produced an unusable run."""

    def __init__(self, message: str, points=None):
        self.points = points or []
        super().__init__(message)
