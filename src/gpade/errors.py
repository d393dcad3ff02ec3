"""Exception types shared across the toolkit."""


class CertificationError(Exception):
    """Base class for all toolkit errors."""


class NonPositiveAlpha(CertificationError):
    """A series parameter is not a positive rational."""


class IntegerDifference(CertificationError):
    """Two upper parameters differ by an integer (forbidden)."""

    def __init__(self, i: int, j: int, diff):
        self.i = i
        self.j = j
        self.diff = diff
        super().__init__(f"alpha_{i} - alpha_{j} = {diff} is an integer")


class SingularSystem(CertificationError):
    """The exact linear solve hit a singular matrix (invariant violation)."""


class InvariantViolation(CertificationError):
    """A condition that holds by construction failed (a defect, not bad input)."""


class NonMonomialDeterminant(CertificationError):
    """The family determinant is not a monomial (invariant violation)."""


class IntegralityViolation(CertificationError):
    """A denominator-cleared coefficient failed to be an integer."""


class DomainViolation(CertificationError):
    """An evaluation point violates its convergence / size precondition."""


class HypothesisFailure(CertificationError):
    """An audited statement's hypothesis fails; no verdict is claimed."""


class PrecisionInsufficient(CertificationError):
    """The working precision cannot decide a comparison; raise it."""


class FactorizationLimit(CertificationError):
    """An integer has a part that trial division and Miller-Rabin cannot factor."""
