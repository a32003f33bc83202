"""Exception hierarchy shared by all flowtracker-lab modules."""

import numbers


class FlowtrackerError(Exception):
    """Base class for everything raised on purpose by this package."""


class InvalidInputError(FlowtrackerError, ValueError):
    """An argument violates a documented precondition."""


class CapabilityError(FlowtrackerError):
    """The request is well-formed but outside what this build supports."""


class NumericalFailureError(FlowtrackerError):
    """Computation produced non-finite values or broke a hard invariant."""

    def __init__(self, message: str, time: float | None = None):
        if time is not None:
            message = f"{message} (at t={time:.6g})"
        super().__init__(message)
        self.time = time


class DegenerateWeightsError(NumericalFailureError):
    """A ratio-consensus weight fell below the positivity floor.

    Raised instead of clamping: weights this small mean the underlying
    mixing flow is not keeping row sums away from zero, so continuing
    would silently change the dynamics being simulated.
    """


class ConfigError(InvalidInputError):
    """An experiment configuration failed validation."""


def check_known(key, options: tuple, what: str) -> None:
    """Raise InvalidInputError naming `key` and the options unless it is one."""
    if key not in options:
        raise InvalidInputError(f"unknown {what} {key!r}; options: {options}")


def check_integer(value, what: str) -> None:
    """Raise InvalidInputError unless value is an integer: not 1.5, [1, 2] or true."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidInputError(f"{what} must be an integer, got {value!r}")
