"""Exception types shared across the package.

The CLI maps these onto exit codes: spec parse errors -> 2, exhausted
search budgets -> 3, exceeded size caps -> 4.
"""


class AutRealizeError(Exception):
    """Base class for all package-specific errors."""


class SpecParseError(AutRealizeError):
    """A group specification or certificate file failed to parse."""


class BudgetExhaustedError(AutRealizeError):
    """A bounded search ran out of candidates before succeeding."""

    def __init__(self, message, transcript=None):
        super().__init__(message)
        self.transcript = transcript or []  # the search's records, in order


class CapExceededError(AutRealizeError):
    """A degree / order cap would be exceeded; refusing rather than thrash."""


class VerificationError(AutRealizeError):
    """An internal consistency check failed.

    These indicate implementation bugs (the underlying mathematics
    guarantees the checked property), so they abort loudly.
    """
