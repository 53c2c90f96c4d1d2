"""Cost guards for operations whose search space can explode, and the
error for internal invariant failures."""

from __future__ import annotations


class CostGuardError(RuntimeError):
    """A scan would exceed its cost budget; pass ``force`` to run anyway."""


def check_budget(estimate: int, limit: int, what: str, *, force: bool = False) -> None:
    if force:
        return
    if estimate > limit:
        raise CostGuardError(
            f"{what} would touch about {estimate} items (limit {limit}); "
            "rerun with force to override"
        )


class InvariantError(RuntimeError):
    """An internal invariant failed: the program, not its input, is at fault.

    Raised where a result that the algorithm guarantees fails its own
    replay, such as a pumped variant that CYK rejects or a complete slice
    whose member the membership oracle rejects.
    """
