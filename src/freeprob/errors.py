"""Errors that freeprob raises for a request it will not carry out."""

from __future__ import annotations

__all__ = ["FreeprobError", "BoundExceededError", "UsageError"]


class FreeprobError(Exception):
    """Base of the errors freeprob defines itself."""


class BoundExceededError(FreeprobError):
    """An enumeration request exceeded the documented resource bound."""


class UsageError(FreeprobError):
    """A command line the parser cannot read: unknown or missing arguments."""
