"""Exception types shared across the package."""


class QbChainError(Exception):
    """Base class for all package-specific errors."""


class DomainError(QbChainError, ValueError):
    """Invalid physical parameter or argument outside the allowed domain."""


class ValidationError(QbChainError, ValueError):
    """A structural invariant of an input matrix is violated."""


class ExceptionalPointError(QbChainError):
    """Operation undefined at (or numerically too close to) an exceptional point."""


class BranchCutError(QbChainError):
    """Complex arctanh argument lies on the real branch cut |x| >= 1."""


class ResolutionError(QbChainError):
    """Grid too coarse to resolve a phase winding unambiguously."""


class SingularityError(QbChainError):
    """Matrix to invert is singular (parameters at a transition point), or
    its inverse leaves the double-precision range."""


class ConvergenceError(QbChainError):
    """Eigensolver failed to converge."""
