"""Exception types shared across the package."""

from __future__ import annotations


class EvinetError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(EvinetError):
    """A length or width does not match, or exceeds, what an operation supports."""


class InvalidNetError(EvinetError):
    """An operation requiring a structurally valid net received an invalid one."""

    def __init__(self, report):
        self.report = report
        lines = "; ".join(v.message for v in report.violations)
        super().__init__(f"invalid net: {lines}")


class ConflictError(EvinetError):
    """A receptivity vector enables two or more transitions sharing a pre-place."""

    def __init__(self, conflicts):
        self.conflicts = tuple(conflicts)
        detail = "; ".join(
            f"place {c.place} with transitions {sorted(c.true_transitions)}"
            for c in self.conflicts
        )
        super().__init__(f"receptivity enables conflicting transitions: {detail}")


class MassError(EvinetError):
    """A mass distribution violates the normalization or range constraints."""


class TrajectoryError(EvinetError):
    """A receptivity in a run sequence was rejected; carries the step index and cause."""

    def __init__(self, index: int, cause: Exception):
        self.index = index
        self.cause = cause
        super().__init__(f"receptivity {index} rejected: {cause}")


class TableCapError(EvinetError):
    """A table or equation stage would exceed a size limit; carries the cells it needs."""

    def __init__(self, message: str, required_cells: int):
        self.required_cells = required_cells
        super().__init__(message)


class ParseError(EvinetError):
    """A document could not be parsed; carries the source location."""

    def __init__(self, message: str, line: int, column: int | None = None):
        self.line = line
        self.column = column
        where = f"line {line}" if column is None else f"line {line}, column {column}"
        super().__init__(f"{where}: {message}")
