"""Search budgets for the enumerative operations.

Every exhaustive search (structure enumeration, sentence generation,
interpretation sweeps) counts candidates against a budget and raises
BudgetError, naming its phase, instead of running away.  The budget has
one source: the GRADEDMT_BUDGET environment variable, or DEFAULT_BUDGET
when it is unset.  No library function takes a limit of its own, so a
search and every sub-search it starts share the same one.
"""

import os

from .errors import BudgetError

DEFAULT_BUDGET = 5_000_000

_ENV_VAR = "GRADEDMT_BUDGET"


def search_budget() -> int:
    raw = os.environ.get(_ENV_VAR)
    if raw is None:
        return DEFAULT_BUDGET
    try:
        value = int(raw)
    except ValueError:
        raise BudgetError(f"{_ENV_VAR} must be an integer, got {raw!r}")
    if value <= 0:
        raise BudgetError(f"{_ENV_VAR} must be positive, got {value}")
    return value


def check_budget(required: int, what: str) -> None:
    """Raise BudgetError when `required` candidates exceed the budget."""
    limit = search_budget()
    if required > limit:
        raise BudgetError(
            f"{what} needs {required} candidates, budget is {limit}",
            required=required,
            budget=limit,
        )


class BudgetMeter:
    """Incremental counter for searches whose size is not known up front.

    `limit` defaults to `search_budget()`, and no library code passes one.
    It exists for callers that hand a meter to `first_transfer_failure`
    and need a limit the environment variable cannot express, such as 0.
    """

    def __init__(self, what: str, limit: int | None = None):
        self.what = what
        self.limit = search_budget() if limit is None else limit
        self.used = 0

    def tick(self, amount: int = 1) -> None:
        self.used += amount
        if self.used > self.limit:
            raise BudgetError(
                f"{self.what} exceeded budget of {self.limit}",
                required=self.used,
                budget=self.limit,
            )
