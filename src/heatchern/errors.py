"""Exception types shared across the package."""


class HeatChernError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(HeatChernError):
    """Operands do not share the expected square dimension."""


class NotHermitian(HeatChernError):
    """A matrix required to be Hermitian fails the symmetry check."""


class BadExponent(HeatChernError):
    """An exponent parameter lies outside its admissible range."""


class Overflow(HeatChernError):
    """A number leaves the float range, or passes a configured cap.

    Raised when a 1-norm exceeds the cap of ``linalg.expm`` or its scaling
    2^s passes 2^1022, when H has non-finite entries, when a regularizer
    eps^2 Z*Z overflows, when the series bound ||da||^2 / 4 does, and
    when the corner of an exact expectation's exponential does.
    """


class ComplexityCap(HeatChernError):
    """A block exponential would exceed the block-order budget."""


class ClassViolation(HeatChernError):
    """A cochain does not belong to the class an operator requires."""


class NoConvergence(HeatChernError):
    """An iterative evaluation failed to stabilize within its caps."""


class ValidationFailure(HeatChernError):
    """A structural invariant failed; carries the offending report."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class PairingInputInvalid(ValidationFailure):
    """The candidate involution fails the pairing preconditions."""


class PNotFixed(HeatChernError):
    """A coupling-constant family moved the momentum operator."""

    def __init__(self, message, lam=None, residual=None):
        super().__init__(message)
        self.lam = lam
        self.residual = residual


class ZeroMomentumViolation(HeatChernError):
    """An algebra element fails to commute with the momentum operator."""
