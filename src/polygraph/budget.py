"""The one budget mechanism: a search whose size is a product of known
factors charges it through :func:`budget`, and a search that counts its
steps takes them from :func:`steps`.  Each reads its limit once through
:func:`limit` and raises :class:`BudgetExceeded` past it."""

from __future__ import annotations

import os
from decimal import ROUND_DOWN, Context
from typing import Iterable, Iterator

from .errors import Exhausted, InputError

# A count up to this is exact in a BudgetExceeded message; a larger one is
# a lower bound, so that checking and printing it stay cheap.
EXACT_COUNT = 10 ** 18
# Past 40 digits, two significant digits rounded down: str() fails past 4,300.
_TWO_DIGITS = Context(prec=2, rounding=ROUND_DOWN)


class BudgetExceeded(Exhausted, RuntimeError):
    """A bounded search counted `consumed` against the limit of budget `name`."""

    def __init__(self, name: str, limit: int, consumed: int):
        self.name, self.limit, self.consumed = name, limit, consumed
        shown = [n if n < 10 ** 40 else _TWO_DIGITS.plus(n) for n in (consumed, limit)]
        super().__init__(f"{name}: {shown[0]} exceeds the limit {shown[1]}")


class InvalidBudget(InputError, ValueError):
    """POLYGRAPH_BUDGET is set to something other than a nonnegative integer."""


def limit(default: int) -> int:
    """A search's limit: POLYGRAPH_BUDGET when set, else `default`."""
    text = os.environ.get("POLYGRAPH_BUDGET")
    if text is None:
        return default
    if not text.strip().isdecimal():
        shown = repr(text[:40]) + (f" ({len(text)} characters)" if len(text) > 40 else "")
        raise InvalidBudget(f"POLYGRAPH_BUDGET must be a nonnegative integer, got {shown}")
    try:
        return int(text)
    except ValueError:  # more digits than int(str) accepts
        raise InvalidBudget(f"POLYGRAPH_BUDGET has {len(text.strip())} digits, too many") from None


def capped_product(factors: Iterable[int], cap: int) -> int:
    """The product of positive factors when it is at most cap, else its
    first partial product past cap, with each factor counted as at most
    cap + 1: a lower bound above cap, below (cap + 1)^2, reached in a few
    multiplications however many or large the factors are."""
    total = 1
    for x in factors:
        total *= min(x, cap + 1)
        if total > cap:
            return total
    return total


def budget(name: str, default: int, factors: Iterable[int]) -> None:
    """Raise BudgetExceeded when the product of positive factors, counted
    by :func:`capped_product` up to max(limit, EXACT_COUNT), is above the
    limit of budget `name`: POLYGRAPH_BUDGET when set, else `default`."""
    cap = limit(default)
    count = capped_product(factors, max(cap, EXACT_COUNT))
    if count > cap:
        raise BudgetExceeded(name, cap, count)


def steps(name: str, default: int) -> Iterator[int]:
    """The steps 1, 2, ... up to the limit of budget `name`, read once:
    asking for one more raises BudgetExceeded."""
    cap = limit(default)
    yield from range(1, cap + 1)
    raise BudgetExceeded(name, cap, cap + 1)
