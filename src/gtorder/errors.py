"""Exception types shared across the library, and the two numpy-free
rules that check its integer and its (0,1) parameters."""

from numbers import Integral, Real


class InvalidParameterError(ValueError):
    """A parameter is outside its documented domain."""


class OracleError(RuntimeError):
    """Base class for failures of an external oracle process."""


class OracleSpawnError(OracleError):
    """The oracle subprocess could not be started."""


class OracleProtocolError(OracleError):
    """The oracle subprocess sent a reply that violates the wire protocol."""


class OracleTimeoutError(OracleError):
    """The oracle subprocess did not reply within the deadline."""


class OracleRejectedError(OracleError, InvalidParameterError):
    """The oracle subprocess answered a query with ``ERR``.

    It is an :class:`OracleError`, so the harness records the trial as an
    error row and goes on, and an :class:`InvalidParameterError`, so a
    direct caller can treat the rejected query as invalid input.
    """


def is_integer_type(kind: type) -> bool:
    """True for Python and numpy (``numbers.Integral``) integer types, not bool."""
    return kind is int or (kind is not bool and issubclass(kind, Integral))


def check_integer(name: str, value, low: int, high: int | None = None) -> None:
    """Raise InvalidParameterError unless ``value`` is an integer in low..high
    (with no upper end if ``high`` is None)."""
    if not (is_integer_type(type(value)) and low <= value
            and (high is None or value <= high)):
        span = f"at least {low}" if high is None else f"in {low}..{high}"
        raise InvalidParameterError(f"{name} must be an integer {span}, got {value!r}")


def check_unit(**values) -> None:
    """Raise InvalidParameterError unless each value is a real in (0,1), not NaN."""
    for name, value in values.items():
        if not (isinstance(value, Real) and 0.0 < value < 1.0):
            raise InvalidParameterError(f"{name} must lie in (0,1), got {value!r}")
