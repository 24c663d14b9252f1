"""Wall-clock budgets for the search-heavy operations, and the two ways a
check stops early: it runs out of time (BudgetExceeded) or finds its claim
false (ClaimFailure)."""

from __future__ import annotations

import time


class BudgetExceeded(Exception):
    """Raised when a search runs past its wall-clock budget."""


class ClaimFailure(Exception):
    """A check found its claim false; counterexample maps each keyword of
    context to the str() of its value, so a permutation reads in one-line form."""

    def __init__(self, message: str, **context):
        super().__init__(message)
        self.counterexample = {k: str(v) for k, v in context.items()}


class Budget:
    """Deadline helper; check() raises once the allotted time is spent.

    The deadline is absolute on the system monotonic clock, fixed when the
    budget is made, so a copy handed to a forked worker (verify.run_all)
    runs out at the same moment as the original.
    """

    def __init__(self, ms: float | None):
        self.ms = ms
        self._deadline = None if ms is None else time.monotonic() + ms / 1000.0

    def check(self):
        if self._deadline is not None and time.monotonic() >= self._deadline:
            raise BudgetExceeded(f"budget of {self.ms} ms exceeded")


NO_BUDGET = Budget(None)
