"""Exception hierarchy shared across the harness."""

from __future__ import annotations


class Nl2SqlError(Exception):
    """Base class for all harness errors."""


class ParseError(Nl2SqlError):
    """SQL text could not be parsed or bound against the schema."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at offset {position})"
        super().__init__(message)


class UnsupportedSqlError(ParseError):
    """Syntactically valid SQL outside the supported SELECT dialect."""


class DatasetError(Nl2SqlError):
    """Dataset directory or split files are missing or malformed."""


class SchemaError(DatasetError):
    """A schema description entry violates its invariants."""


class DatabaseMissingError(Nl2SqlError):
    """The backing SQLite file is absent: a harness fault, not a query error."""


class DatabaseChangedError(DatabaseMissingError):
    """The backing SQLite file changed while one example ran on it."""


class NoSqlFoundError(Nl2SqlError):
    """A model reply contained nothing extractable as a SQL statement."""


class TransportError(Nl2SqlError):
    """A chat-completion request failed at the transport level."""


class RetriesExhaustedError(TransportError):
    """Transport kept failing after the configured retry budget."""


class ReplayMissError(TransportError):
    """No stored response for this request digest in the replay store."""

    def __init__(self, digest: str, hint: str = ""):
        self.digest = digest
        detail = f"no replay fixture for request digest {digest}"
        if hint:
            detail = f"{detail}: {hint}"
        super().__init__(detail)


class ConfigError(Nl2SqlError):
    """Run configuration file is invalid."""
