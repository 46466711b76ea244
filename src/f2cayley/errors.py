"""Errors shared across the package, and the one check of a budget."""

from numbers import Integral

__all__ = ["PreconditionError", "BudgetExceededError", "InvariantError"]


class PreconditionError(ValueError):
    """An operation was called outside its documented domain."""


class BudgetExceededError(RuntimeError):
    """An enumeration or search refused to start (or continue) past its budget."""


class InvariantError(RuntimeError):
    """A computed result failed its own certificate check: a bug, never bad input."""


def require_budget(budget: int) -> int:
    """A budget as an int; anything but an integer >= 0, a bool included, is
    refused."""
    if isinstance(budget, bool) or not isinstance(budget, Integral) or budget < 0:
        raise PreconditionError(f"budget must be an integer >= 0, got {budget!r}")
    return int(budget)
