"""Shared error types.

DomainError subclasses signal well-formed requests whose answer does not
exist or cannot be produced within limits; the CLI maps them to exit code 1.
Malformed input is a ParseError, exit code 2.
"""


class ParseError(ValueError):
    """Malformed input: text that does not parse, or arguments that do not fit
    together.  position, when known, is an offset into the text."""

    def __init__(self, message, position=None):
        if position is not None:
            message = "%s (at position %d)" % (message, position)
        super().__init__(message)
        self.position = position


class DomainError(Exception):
    pass


class UndefinedError(DomainError, ArithmeticError):
    """The requested value does not exist (e.g. left difference with a > b)."""


class OrdinalOverflowError(DomainError):
    """Defensive guard: a construction would leave the supported segment."""


class InvalidCodeError(DomainError, ValueError):
    """A code or descriptor does not denote a normal-form object."""


class NotInFragmentError(DomainError):
    """Input lies outside the fragment the operation is defined on."""


class NotVariableFreeError(NotInFragmentError):
    """Operation requires a variable-free formula."""


class OutOfApplicabilityError(DomainError):
    """Requested level is outside a theory's cataloged applicability range."""


class UnsupportedError(DomainError):
    """No cataloged value for this theory/operation combination."""


class BudgetExceededError(DomainError):
    """Evaluation would exceed the step or magnitude budget."""
