"""Exception types shared across the package."""


class HeckesphereError(Exception):
    """Base class for all package errors."""


class BudgetExceeded(HeckesphereError):
    """An operation needed group elements beyond the length budget."""


class InvalidMatrix(HeckesphereError):
    """Malformed Coxeter matrix."""


class NotReduced(HeckesphereError):
    """A word that was required to be reduced is not."""


class DifferentElements(HeckesphereError):
    """Two words expected to represent the same group element do not."""


class PreconditionViolated(HeckesphereError):
    """An operation was called outside its stated domain."""


class NotInJ(HeckesphereError):
    """A conjugate expected to be a generator in J is not (corrupted input)."""


class WordMismatch(HeckesphereError):
    """Subexpressions compared over different underlying words."""


class EndpointMismatch(HeckesphereError):
    """Double-leaf halves have different coset endpoints."""


class TargetMismatch(HeckesphereError):
    """A pinned target expression does not match the construction's endpoint."""
