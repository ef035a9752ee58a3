"""Exception types shared across the library."""


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
