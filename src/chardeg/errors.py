"""Exception types raised by the library.

Every failure mode callers are expected to handle gets its own class so the
CLI can map them onto exit codes (invalid input vs. exceeded caps vs. a
failed internal verification).
"""


class Error(Exception):
    """Base class for all library errors."""


class NotCoprime(Error):
    """Multiplicative order requested for a base not coprime to the modulus."""


class SearchExhausted(Error):
    """An unbounded arithmetic search ran past its safety cap."""


class OrderNotDividing(Error):
    """Requested element order does not divide the multiplicative group order."""


class CapExceeded(Error):
    """A group enumeration or realization grew beyond the configured cap."""


class BudgetExceeded(Error):
    """The table search exceeded its node budget."""


class NotPerfectSquare(Error):
    """A lifted squared character degree was not a perfect square."""


class SumOfSquaresMismatch(Error):
    """Computed degrees do not satisfy the sum-of-squares identity."""


class SpecSyntaxError(Error):
    """Group spec text failed to parse; carries the byte offset of the error."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class InvalidParam(Error):
    """Group spec parsed but its parameters are out of domain."""


class SelfCheckFailed(Error):
    """An internal consistency check failed; indicates a bug, not bad input."""
