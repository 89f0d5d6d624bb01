"""Exception types shared across the package.

Most errors derive from ValueError so that generic callers can treat a bad
input the usual way while still being able to catch the precise condition.
"""


class BellRecycleError(Exception):
    """Base class for all package-specific errors."""


class ConstraintViolation(BellRecycleError, ValueError):
    """An observable or state violates a defining constraint."""


class ZeroDirection(BellRecycleError, ValueError):
    """A direction vector with positive strength has (near-)zero norm."""


class AngleOutOfRange(BellRecycleError, ValueError):
    """An angle parameter lies outside its admissible interval."""


class InvalidBloch(BellRecycleError, ValueError):
    """A Bloch vector has norm exceeding one beyond tolerance."""


class ProbabilityOutOfRange(BellRecycleError, ValueError):
    """A probability-like parameter lies outside [0, 1]."""


class QualityExceedsReversibility(BellRecycleError, ValueError):
    """A weak-pointer quality factor exceeds the observable's reversibility."""


class BiasedWeakPointer(BellRecycleError, ValueError):
    """The weak-pointer model is only defined for unbiased observables."""


class NegativeRadicand(BellRecycleError, ArithmeticError):
    """A radicand is negative beyond the clamping tolerance (internal bug)."""


class DomainError(BellRecycleError, ValueError):
    """A function argument lies outside the function's domain."""


class PreconditionViolation(BellRecycleError, ValueError):
    """A checker was called on a configuration outside its hypotheses."""


class LengthMismatch(BellRecycleError, ValueError):
    """A parameter vector has the wrong length for the requested mode."""


class BudgetTooSmall(BellRecycleError, ValueError):
    """An optimization budget is below the supported minimum."""


class Infeasible(BellRecycleError, RuntimeError):
    """A scheduling problem has no solution; `failing_n` names the culprit."""

    def __init__(self, message: str, failing_n: int | None = None):
        super().__init__(message)
        self.failing_n = failing_n


class NotNonlocal(BellRecycleError, ValueError):
    """A schedule expected to violate the CHSH bound does not."""


class IndexOutOfRange(BellRecycleError, IndexError):
    """An observer index is outside the plan."""
