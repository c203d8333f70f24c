"""Resource budgets guarding exhaustive enumeration and large allocations.

The default cap can be overridden by the ``ANDERSON_BUDGET`` environment
variable (a decimal integer), or per call by passing an explicit budget.
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
            f"set {BUDGET_ENV_VAR} or pass a larger budget to proceed"
        )
        self.required = required
        self.budget = budget
        self.what = what


def resolve_budget(override: int | None = None) -> int:
    """Effective budget: explicit override, else environment, else default."""
    if override is not None:
        return int(override)
    raw = os.environ.get(BUDGET_ENV_VAR)
    if raw is not None:
        try:
            return int(raw)
        except ValueError:
            raise ValueError(
                f"{BUDGET_ENV_VAR} must be a decimal integer, got {raw!r}"
            ) from None
    return DEFAULT_BUDGET


def check_budget(required: int, override: int | None, what: str) -> None:
    budget = resolve_budget(override)
    if required > budget:
        raise BudgetExceededError(required, budget, what)
