"""Resource budgets guarding exhaustive enumeration and large allocations.

The cap is read from the ``ANDERSON_BUDGET`` environment variable (a
positive decimal integer, default 10^9) on every check; it is the only
budget setting. A value that is not a positive integer is a usage error.
"""

from __future__ import annotations

import os

DEFAULT_BUDGET = 10**9
BUDGET_ENV_VAR = "ANDERSON_BUDGET"


class BudgetExceededError(RuntimeError):
    """A requested computation would exceed the configured budget."""

    def __init__(self, required: int, budget: int, what: str) -> None:
        super().__init__(
            f"{what} requires {required} units but the budget is {budget}; "
            f"set {BUDGET_ENV_VAR} to a larger value to proceed"
        )
        self.required = required
        self.budget = budget
        self.what = what


def resolve_budget() -> int:
    """Effective budget: the environment variable, else the default."""
    raw = os.environ.get(BUDGET_ENV_VAR)
    if raw is None:
        return DEFAULT_BUDGET
    try:
        budget = int(raw)
    except ValueError:
        budget = 0  # rejected below, like any other non-positive value
    if budget < 1:
        raise ValueError(
            f"{BUDGET_ENV_VAR} must be a positive decimal integer, got {raw!r}"
        )
    return budget


def check_budget(required: int, what: str) -> None:
    budget = resolve_budget()
    if required > budget:
        raise BudgetExceededError(required, budget, what)
