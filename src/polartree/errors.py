"""Exception types shared across the package.

Errors fall into three groups: input problems (bad expressions, germs that
violate the simple-roots assumption), limitations of the working field or
truncation budget (exact answers exist but are out of reach at the current
settings), and internal-consistency failures that indicate a bug rather
than a property of the input.

Each limit has one signal: :class:`TruncationTooShort` is the only error for
a contact order, coefficient or placement that the truncation leaves open.
"""

from __future__ import annotations


class PolartreeError(Exception):
    """Base class for all package errors."""


class InputError(PolartreeError):
    """Invalid input: parse errors, malformed germs, violated preconditions."""


class ExprSyntaxError(InputError):
    """Expression parse failure; the message starts with line:column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")


class NegativeExponentWithoutLaurent(InputError):
    """A negative y exponent: Laurent input, which only ``reduce`` accepts."""


class InputViolatesSimplicity(InputError):
    """The product of the two germs has a repeated Newton-Puiseux root."""


class DivisionByZero(PolartreeError):
    """Division by the zero field element."""


class ZeroPolynomial(PolartreeError):
    """An operation that requires a nonzero polynomial got the zero one."""


class LimitationError(PolartreeError):
    """Exact computation blocked by field size or truncation budget."""


class FieldTooSmall(LimitationError):
    """A required root of unity is missing from the working field."""


class TruncationTooShort(LimitationError):
    """Unknown tail terms could change an order, coefficient or placement."""


class TruncationBudgetExceeded(LimitationError):
    """Series expansion hit the iteration or depth cap."""


class UnresolvedBranch(LimitationError):
    """An expansion branch has no coefficient in the working field.

    ``count`` is the number of missing branches (degree of the missing
    factor, with multiplicity), so counting-only analyses can proceed.
    """

    def __init__(self, count: int, message: str = ""):
        super().__init__(message or f"{count} branch(es) unresolved in the working field")
        self.count = count


class NeedsLargerField(LimitationError):
    """Internal restart signal: the expansion needs conductor >= ``conductor``."""

    def __init__(self, conductor: int):
        super().__init__(f"working field must contain the {conductor}-th roots of unity")
        self.conductor = conductor


class SNotLargeEnough(InputError):
    """The meromorphic reduction exponent s does not clear the input."""


class NoGenericFound(LimitationError):
    """No shear constant in the search budget made the pair mini-regular."""


class NoCover(PolartreeError):
    """A collinear point has no cover (meromorphic mode only)."""


class NotApplicable(PolartreeError):
    """The operation's precondition (e.g. bar collinearity) does not hold."""


class InternalInconsistency(PolartreeError):
    """Two independently computed values disagree; indicates a bug."""
