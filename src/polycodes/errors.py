"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "BudgetExceeded",
    "Inapplicable",
    "InvalidInput",
    "InvalidPolytope",
    "TheoremViolation",
    "Undefined",
    "Unrealized",
]


def _digits(n: int) -> str:
    """``str(n)``, or the power of two next to n when n is past the 4,300 digits ``str`` converts."""
    try:
        return str(n)
    except ValueError:
        return f"about {'-' if n < 0 else ''}2^{abs(n).bit_length() - 1}"


def _clip(token: object, limit: int = 80) -> str:
    """``str(token)``, cut to ``limit`` characters ending in '...' when longer.

    Messages clip every token they echo, so no message grows with its input.
    """
    text = _digits(token) if isinstance(token, int) else str(token)
    return text if len(text) <= limit else text[: limit - 3] + "..."


class InvalidInput(ValueError):
    """Malformed or out-of-contract input."""


class InvalidPolytope(InvalidInput):
    """Incidence data failing the local simplicity checks.

    Carries the full list of violated checks in ``reasons``.
    """

    def __init__(self, reasons: list[str]):
        self.reasons = list(reasons)
        super().__init__("; ".join(self.reasons))


class Undefined(ValueError):
    """Quantity that does not exist, e.g. the minimum distance of the zero code."""


class BudgetExceeded(RuntimeError):
    """Requested computation is over a fixed budget; ``_over_budget`` builds every one."""


def _over_budget(work: str, count: int | str, unit: str, budget: int, *, exact: bool = True) -> BudgetExceeded:
    """The refusal of ``work``, which needs ``count`` ``unit``, over ``budget``, a power of two.

    An int count is shown whole up to 64 bits. A longer one, or one that only bounds
    the work from below (``exact=False``), shows as ``over 2^N`` with 2^N < count.
    """
    if isinstance(count, int) and (count.bit_length() > 64 or not exact):
        count = f"over 2^{(count - 1).bit_length() - 1}"
    return BudgetExceeded(f"{work} {count} {unit}, over the budget of 2^{budget.bit_length() - 1} = {budget}")


class Inapplicable(ValueError):
    """Operation whose hypothesis the input does not satisfy."""


class Unrealized(InvalidInput):
    """Coordinates required but the polytope carries none."""


class TheoremViolation(AssertionError):
    """Two routes that must agree by theorem disagreed.

    This signals an internal inconsistency, never a property of a valid
    input; the CLI maps it to exit code 3.
    """
