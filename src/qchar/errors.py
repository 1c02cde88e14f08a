"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "QcharError",
    "InvalidElementError",
    "InvalidSubgroupError",
    "NotAHomomorphismError",
    "NotAnAutomorphismError",
    "SizeLimitError",
    "GroupMismatchError",
    "NotPositiveDefiniteError",
    "WindowExhaustedError",
    "UndefinedLogError",
    "HypothesisError",
    "PremiseError",
    "KernelConditionError",
    "FactorizationError",
    "ConstructionRejectedError",
]


class QcharError(Exception):
    """Base class for all package-specific errors."""


class InvalidElementError(QcharError, ValueError):
    """Element coordinates outside the declared cyclic ranges."""


class InvalidSubgroupError(QcharError, ValueError):
    """Element set is not closed under the group operation."""


class NotAHomomorphismError(QcharError, ValueError):
    """Lookup table fails additivity somewhere; carries a witness pair."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NotAnAutomorphismError(QcharError, ValueError):
    """Map is not a bijective homomorphism of the group onto itself."""


class SizeLimitError(QcharError, ValueError):
    """A size exceeds its cap: a group order, a chain square or a circle truncation."""


class GroupMismatchError(QcharError, ValueError):
    """Operands live on different groups."""


class NotPositiveDefiniteError(QcharError, ValueError):
    """Spectral data has no non-negative preimage; carries the worst mass."""

    def __init__(self, message, worst_mass=None, location=None):
        super().__init__(message)
        self.worst_mass = worst_mass
        self.location = location


class WindowExhaustedError(QcharError, ValueError):
    """Integer window too small for the requested difference order."""


class UndefinedLogError(QcharError, ValueError):
    """Logarithm undefined: modulus below threshold on the unwrap path."""


class HypothesisError(QcharError, RuntimeError):
    """Checker hypothesis fails on the given instance; carries the residual."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class PremiseError(QcharError, RuntimeError):
    """Elimination premise identity does not hold; carries the residual."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class KernelConditionError(QcharError, RuntimeError):
    """The doubling-type injectivity condition fails; names a kernel element."""

    def __init__(self, message, kernel_element=None, hint=None):
        super().__init__(message)
        self.kernel_element = kernel_element
        self.hint = hint


class FactorizationError(QcharError, RuntimeError):
    """A factorization that must exist for valid input failed; signals a bug."""


class ConstructionRejectedError(QcharError, ValueError):
    """Summability gate failed for a spectral construction; carries the sum."""

    def __init__(self, message, computed_sum=None):
        super().__init__(message)
        self.computed_sum = computed_sum
