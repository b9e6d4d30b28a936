"""Shared failure types: explicit budget exhaustion, never silent truncation."""


class BudgetError(RuntimeError):
    """A configured resource cap (nodes, states, basis size) was exceeded."""
