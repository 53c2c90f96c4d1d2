"""Cost guards for operations whose search space can explode, and the
error for internal invariant failures."""

from __future__ import annotations


class CostGuardError(RuntimeError):
    """A scan would exceed its cost budget; where the call takes ``force``,
    passing it runs the scan anyway."""


def check_budget(estimate: int, limit: int, what: str, *, force: bool | None = None) -> None:
    """Raise :class:`CostGuardError` when ``estimate`` exceeds ``limit``.

    ``force=True`` skips the check; ``force=False`` checks it and names the
    override in the message; ``None``, for callers that take no ``force``,
    checks it and names none.
    """
    if force:
        return
    if estimate > limit:
        hint = "" if force is None else "; rerun with force to override"
        # an estimate of thousands of digits is named by its power of two
        about = estimate if estimate.bit_length() <= 1000 else f"2^{estimate.bit_length() - 1}"
        raise CostGuardError(f"{what} would touch about {about} items (limit {limit}){hint}")


class InvariantError(RuntimeError):
    """An internal invariant failed: the program, not its input, is at fault.

    Raised where a result that the algorithm guarantees fails its own
    replay or check, such as a pumped variant that CYK rejects, a complete
    slice whose member the membership oracle rejects, or a malformed swap
    witness.
    """
