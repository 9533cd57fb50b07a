"""Shared exception types and argument checks."""

import math


class CapacityError(RuntimeError):
    """A requested basis, grid, or dense operation exceeds its configured limit."""


class NumericalError(RuntimeError):
    """A numerical invariant failed (non-monotone data, broken model assumption)."""


class ConvergenceError(NumericalError):
    """An iterative solver did not reach the requested tolerance."""


class ConfigError(ValueError):
    """A run configuration is malformed or inconsistent."""


def _check_int(name: str, value, least: int) -> None:
    """ValueError unless value is an int (a bool is not) of at least `least`."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ValueError(f"{name} must be an int of at least {least}, got {value!r}")


def _check_nonnegative(name: str, value) -> None:
    """ValueError unless value is non-negative and finite."""
    if not 0 <= value < math.inf:
        raise ValueError(f"{name} must be non-negative and finite, got {value!r}")


def _check_fiber(alpha, momenta) -> None:
    """ValueError unless alpha is non-negative and finite and every component
    of every momentum in `momenta` is finite."""
    _check_nonnegative("alpha", alpha)
    if not all(math.isfinite(x) for p in momenta for x in p):
        raise ValueError("momentum p must be finite")
