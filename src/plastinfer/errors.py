"""Exception types shared across the package, and the readers of numbers.

The command-line front end maps these onto exit codes: configuration
problems exit with 2, numerical breakdowns with 3.

The readers of numbers, ``_number``, ``_numbers`` and ``_integer``, live
here, below every other module, so that each object that owns a number
reads it as a config is read.
"""

import sys

import numpy as np


class ConfigurationError(ValueError):
    """Invalid configuration, inputs, or file contents."""


class DomainError(ValueError):
    """Parameter/strain combination outside a material model's domain."""


class NumericalError(RuntimeError):
    """A numerical procedure (root solve, quadrature) broke down."""


def _number(value: object, name: str, minimum: float | None = None) -> float:
    """``value`` as a float if it is a finite number (a numpy scalar
    included), at least ``minimum`` when given; a bool, string, null or any
    other value is a configuration error, never parsed."""
    value = value.item() if isinstance(value, np.generic) else value
    # bool is an int subclass; NaN fails the comparison, and so do an
    # infinity and an integer too large for a float.
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= sys.float_info.max:
        raise ConfigurationError(f"{name} must be a finite number, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigurationError(f"{name} must be >= {minimum}, got {value!r}")
    return float(value)


def _numbers(value: object, name: str, ndim: int = 1) -> np.ndarray:
    """``value``, a number or a rectangular list, tuple or array of numbers
    nested at most ``ndim`` deep, as a float array of 1 to ``ndim`` dimensions;
    each number is read by :func:`_number`, and nothing deeper is flattened."""

    def read(item: object) -> object:
        return [read(entry) for entry in item] if isinstance(item, (list, tuple)) else _number(item, name)

    numbers = read(value.tolist() if isinstance(value, np.ndarray) else value)
    try:
        array = np.atleast_1d(np.asarray(numbers, dtype=float))
    except ValueError:
        raise ConfigurationError(f"{name} must be a rectangular list, got {value!r}") from None
    if array.ndim > ndim:
        raise ConfigurationError(f"{name} must be at most {ndim}-D, got {value!r}")
    return array


def _integer(value: object, name: str, minimum: int | None = None) -> int:
    """``value`` as an int, at least ``minimum`` when given; a bool, float,
    string, null or any other non-integer is a configuration error, never
    truncated or parsed."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigurationError(f"{name} must be >= {minimum}, got {value!r}")
    return int(value)
