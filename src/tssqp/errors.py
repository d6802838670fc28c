"""Exception types shared across the package, and the number checks behind ConfigError."""

import math
import numbers


class TssqpError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(TssqpError):
    """An array argument has the wrong length or shape."""


class EvaluationFailure(TssqpError):
    """A problem oracle produced non-finite values (overflow, domain error)."""


class UnknownProblem(TssqpError):
    """Requested registry name is not a built-in problem."""


class ParseError(TssqpError):
    """A problem file is malformed; the message carries field/line diagnostics."""


class RankDeficientJacobian(TssqpError):
    """sigma_min(J) fell below the rank tolerance."""


class IndefiniteReducedHessian(TssqpError):
    """Z^T H Z is not positive definite."""


class NonPositiveBeta(TssqpError):
    """A stepsize that must be positive is not: beta, or the lower end of the
    alpha range, was supplied <= 0 or underflowed to 0 (overflowing ||u||^2
    or ||c||_1, or a denormal eta)."""


class StepsizeOverflow(TssqpError):
    """A stepsize that must be finite is not: beta or the upper end of the
    alpha range overflowed to inf (or became NaN)."""


class InvalidLineSearchConfig(TssqpError):
    """Line-search parameters violate 0 < lower <= upper, xi in (0,1), rho in (0,1)."""


class EmptyInput(TssqpError):
    """An aggregation was asked to summarize zero rows."""


class ConfigError(TssqpError):
    """Invalid solver or experiment configuration."""


def check_count(name: str, value, minimum: int) -> None:
    """Raise ConfigError unless `value` is an integer (not a bool) >= `minimum`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {value!r}")


def check_real(name: str, value) -> None:
    """Raise ConfigError unless `value` is a finite real number (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a real number, got {value!r}")
    if not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value!r}")
