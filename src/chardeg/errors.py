"""Exception types raised by the library.

Every failure mode callers are expected to handle gets its own class, and
each class carries the CLI's exit code for it in exit_code, through one of
three bases: InvalidInput (2), LimitExceeded (3) and CheckFailed (1).
The default caps live here too, so the CLI reads them without numpy.
"""

DEFAULT_ELEMENT_CAP = 50_000  # elements a closure may reach
DEFAULT_ORDER_CAP = 16  # largest order the small-group search takes
DEFAULT_NODE_BUDGET = 10**9  # nodes of one small-group search


class Error(Exception):
    """Base class for all library errors."""

    exit_code: int


class InvalidInput(Error):
    """The request is outside what the library accepts."""

    exit_code = 2


class LimitExceeded(Error):
    """A cap, budget or bounded search ran out before the answer."""

    exit_code = 3


class CheckFailed(Error):
    """An internal verification failed; indicates a bug, not bad input."""

    exit_code = 1


class NotCoprime(InvalidInput):
    """Multiplicative order requested for a base not coprime to the modulus."""


class SearchExhausted(LimitExceeded):
    """An unbounded arithmetic search ran past its safety cap."""


class OrderNotDividing(InvalidInput):
    """Requested element order does not divide the multiplicative group order."""


class CapExceeded(LimitExceeded):
    """A group enumeration or realization grew beyond the configured cap."""


class BudgetExceeded(LimitExceeded):
    """The table search exceeded its node budget."""


class NotPerfectSquare(CheckFailed):
    """A lifted squared character degree was not a perfect square."""


class SumOfSquaresMismatch(CheckFailed):
    """Computed degrees do not satisfy the sum-of-squares identity."""


class SpecSyntaxError(InvalidInput):
    """Group spec text failed to parse; carries the byte offset of the error."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class InvalidParam(InvalidInput):
    """Group spec parsed but its parameters are out of domain."""


class SelfCheckFailed(CheckFailed):
    """An internal consistency check failed."""
