"""Errors shared across the package."""

__all__ = ["PreconditionError", "BudgetExceededError", "InvariantError"]


class PreconditionError(ValueError):
    """An operation was called outside its documented domain."""


class BudgetExceededError(RuntimeError):
    """An enumeration or search refused to start (or continue) past its budget."""


class InvariantError(RuntimeError):
    """A computed result failed its own certificate check: a bug, never bad input."""
