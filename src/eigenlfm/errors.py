"""Exception types shared across the package."""


class InvalidParameterError(ValueError):
    """A parameter violates its documented domain (e.g. a non-positive scale)."""


class NumericError(ArithmeticError):
    """A numerical operation failed (singular system, non-finite values, ...)."""


class NoStationaryDistributionError(RuntimeError):
    """The continuous-time block is not strictly stable, so no stationary
    covariance exists."""


class ContractViolationError(RuntimeError):
    """A caller broke an interface contract (e.g. a pass crosses a changepoint
    that is not on its step grid)."""
