"""Exception types shared across the package.

Every error raised on purpose by this package is one of the classes below,
so callers (and the command line driver) can map failures onto a small,
stable taxonomy instead of fishing for strings.
"""


class PtfFoolError(Exception):
    """Base class for all deliberate errors raised by this package."""


class InvalidOrderError(PtfFoolError, ValueError):
    """An independence order k is outside the range a construction supports."""


class ResourceBudgetError(PtfFoolError):
    """A requested computation exceeds a configured support/memory budget.

    The message names the offending size so the caller can decide whether
    to raise the budget or shrink the instance.
    """


class ConfigurationError(PtfFoolError, ValueError):
    """Parameters are individually legal but mutually inconsistent."""


class ContractViolationError(PtfFoolError, ValueError):
    """An input breaks a documented structural precondition (e.g. a
    non-symmetric matrix passed to the symmetric eigensolver)."""


class DegenerateInputError(PtfFoolError, ValueError):
    """An input is degenerate for the requested operation (e.g. a constant
    polynomial where a variable ordering by influence is required)."""


class ConvergenceError(PtfFoolError, RuntimeError):
    """An iterative kernel exhausted its sweep budget before reaching
    its termination tolerance."""


class FormatError(PtfFoolError, ValueError):
    """A text input does not conform to one of the documented file formats."""


class InconclusiveError(PtfFoolError, RuntimeError):
    """A numeric check could not be brought within its error budget and is
    reported as inconclusive rather than passed or failed."""
