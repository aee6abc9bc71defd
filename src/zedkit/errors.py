"""Shared exception types and parse diagnostics."""

from dataclasses import dataclass


class ZedError(Exception):
    """Base class for all toolkit errors."""


class PreconditionViolatedError(ZedError):
    """An operation was invoked outside its documented special case."""


class CapExceededError(ZedError):
    """The instance exceeds a configured size cap for an exact search."""


class MissingWeightError(ZedError):
    """A family occurring in the input has no assigned weight."""


class SearchTimeoutError(ZedError):
    """An exact search exhausted its wall-clock budget (distinct from a NO answer)."""


@dataclass(frozen=True)
class ParseDiagnostic:
    """Location and stable machine code for a rejected input."""

    line: int
    column: int
    code: str
    message: str

    def __str__(self) -> str:
        return f"{self.line}:{self.column}: {self.code}: {self.message}"


class ParseError(ZedError):
    def __init__(self, diagnostic: ParseDiagnostic):
        super().__init__(str(diagnostic))
        self.diagnostic = diagnostic
