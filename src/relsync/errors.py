"""Exception types shared across the relsync package."""


class RelsyncError(Exception):
    """Base class for all relsync errors."""


class TokenError(RelsyncError):
    """A name is not a legal token (empty, whitespace, or reserved punctuation)."""


class UnknownIdError(RelsyncError):
    """A mutation references an object or link that does not exist."""


class DuplicateIdError(RelsyncError):
    """An object id is created twice, or resurrects a deleted id."""


class DuplicateLinkError(RelsyncError):
    """A link triple that already exists is created again."""


class AlreadyDeletedError(RelsyncError):
    """A delete names an element that is already deleted."""


class SchemaMismatchError(RelsyncError):
    """A link's endpoint classes do not match its association."""


class CommitError(RelsyncError):
    """Batch validation failed at commit; the staged version was dropped,
    so the store's data is unchanged."""


class NonMonotonicTimestampError(RelsyncError):
    """A change-log record carries a timestamp older than one already recorded."""


class ExpressionSyntaxError(RelsyncError):
    """Path expression text failed to parse.

    `position` is the 0-based character offset of the failure.
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnboundVariableError(RelsyncError):
    """An expression uses `{user}` but the evaluation was given no user."""


class UnknownClassError(RelsyncError):
    """An expression names a class the schema does not define."""


class PathBudgetError(RelsyncError):
    """Path enumeration exceeded the configured path cap."""


class IdReuseError(RelsyncError):
    """A delta create names an existing object of a different class."""


class OfflinePushError(RelsyncError):
    """A local change could not be sent because no server is reachable."""


class ScenarioParseError(RelsyncError):
    """A scenario file failed to parse.

    `line` is the 1-based line number of the failure, when known.
    """

    def __init__(self, message: str, line: int | None = None):
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)
        self.line = line


class ScenarioRuntimeError(RelsyncError):
    """A scenario step failed during execution."""

    def __init__(self, message: str, step_index: int):
        super().__init__(f"step {step_index}: {message}")
        self.step_index = step_index
