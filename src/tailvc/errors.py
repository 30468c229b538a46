"""Exception hierarchy and the CLI exit-code table.

Exit codes (documented in the README):
    0  success
    2  usage / configuration error
    3  data error (ties, malformed CSV)
    4  precondition / domain error (bound preconditions, out-of-range arguments;
       also a MemoryError that reaches the CLI)
    5  internal error
"""

from __future__ import annotations


class TailvcError(Exception):
    """Base class for all package errors."""

    exit_code = 5


class ConfigurationError(TailvcError):
    """Invalid configuration: bad tags, missing seed, malformed flags."""

    exit_code = 2


class DataError(TailvcError):
    """Data does not satisfy the input contract."""

    exit_code = 3


class TiesError(DataError):
    """Within-column ties, which rank machinery rejects.

    Carries the offending column and the colliding row indices so the
    caller can report them verbatim.
    """

    def __init__(self, column: int, rows):
        self.column = int(column)
        self.rows = [int(r) for r in rows]
        super().__init__(
            f"ties detected in column {self.column} at rows {self.rows}"
        )


class PreconditionError(TailvcError):
    """A stated precondition of an operation is violated."""

    exit_code = 4


EXIT_OK = 0
EXIT_USAGE = ConfigurationError.exit_code
EXIT_INTERNAL = TailvcError.exit_code
