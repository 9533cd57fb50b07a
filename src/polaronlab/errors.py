"""Shared exception types and argument checks."""


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
