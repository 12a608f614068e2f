"""Errors that freeprob raises for a request it will not carry out.

Every refusal is a FreeprobError, and the command line reports exactly
these (exit 1, one JSON object on stderr).  Any other exception escaping a
command is a bug in freeprob and is left to surface as one.  The domain
errors also keep the stdlib base that describes them, so a caller that
catches ValueError or ArithmeticError keeps working.
"""

from __future__ import annotations

__all__ = ["FreeprobError", "BoundExceededError", "InputError", "UsageError"]


class FreeprobError(Exception):
    """Base of the errors freeprob defines itself."""


class BoundExceededError(FreeprobError):
    """An enumeration request exceeded the documented resource bound."""


class InputError(FreeprobError, ValueError):
    """An argument outside the domain of the function it was passed to."""


class UsageError(FreeprobError):
    """A command line the parser cannot read: unknown or missing arguments."""
