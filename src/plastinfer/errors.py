"""Exception types shared across the package, and the readers of numbers.

The command-line front end maps these onto exit codes: configuration
problems exit with 2, numerical breakdowns with 3.

The readers of numbers, ``_number``, ``_array``, ``_numbers`` and
``_integer``, live here, below every other module, so that each object
that owns a number reads it as a config is read.
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


def _array(value: object, name: str) -> np.ndarray:
    """``value``, a number or a rectangular list, tuple or array of finite
    numbers, as a float array of its own shape (0-D for a number). Each
    entry of a list or tuple is read by :func:`_number`; an array is read by
    its dtype, which must be an integer or float one, so a bool, string,
    None or object entry is a configuration error either way."""
    if isinstance(value, np.ndarray):
        if value.dtype.kind not in "iuf":
            raise ConfigurationError(f"{name} must hold numbers, got an array of dtype {value.dtype}")
        array = value.astype(float)
        finite = np.isfinite(array)
        if not finite.all():
            _number(array[~finite][0], name)  # raises, naming the entry
        return array

    def read(item: object) -> object:
        return [read(entry) for entry in item] if isinstance(item, (list, tuple)) else _number(item, name)

    numbers = read(value)
    try:
        return np.asarray(numbers, dtype=float)
    except ValueError:
        raise ConfigurationError(f"{name} must be a rectangular list, got {value!r}") from None


def _numbers(value: object, name: str, ndim: int = 1) -> np.ndarray:
    """``value`` read by :func:`_array`, nested at most ``ndim`` deep, as a
    float array of 1 to ``ndim`` dimensions; nothing deeper is flattened."""
    array = np.atleast_1d(_array(value, name))
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
