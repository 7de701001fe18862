"""Exception types raised by this package, and the type checks of a
setting that raise them.

Everything derives from LocalLearnError so callers can catch the whole family,
and from ValueError so sloppy call sites that only guard ValueError still work.
"""

import numbers


class LocalLearnError(ValueError):
    """Base class for all errors raised by locallearn."""


class ShapeError(LocalLearnError):
    """An array argument has the wrong rank, extent, or dtype family."""


class ConfigError(LocalLearnError):
    """A hyperparameter or configuration value is out of its legal range."""


class InputError(LocalLearnError):
    """Runtime data handed to an operation violates its contract (e.g. a
    label row that is not one-hot)."""


class DataError(LocalLearnError):
    """A dataset or checkpoint file is missing, truncated, or malformed."""


class NonFiniteError(LocalLearnError):
    """A loss or gradient stopped being finite; training must abort loudly."""


def require_ints(error, **settings) -> None:
    """Raise error(message), the message naming the first setting whose
    value is not an integer (a numpy one is, a bool is not)."""
    for name, value in settings.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise error(f"{name} must be an integer, got {value!r}")


def require_reals(error, **settings) -> None:
    """Raise error(message), the message naming the first setting whose
    value is not a real number (an integer or a numpy float is, a bool or a
    string is not)."""
    for name, value in settings.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise error(f"{name} must be a real number, got {value!r}")
