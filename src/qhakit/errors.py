"""Exception hierarchy shared across the kernel."""


class QhaError(Exception):
    """Base class for all kernel errors."""


class FieldMismatch(QhaError):
    """Scalars from different coefficient fields were mixed."""


class ArityMismatch(QhaError):
    """Tensor operands live in different tensor powers or algebras."""


class DomainError(QhaError):
    """A shifted parameter left the finite grid of a dynamical family."""


class SingularError(QhaError):
    """A matrix or element has no (two-sided) inverse."""


class AlgebraError(QhaError):
    """Structure constants violate associativity or the unit laws."""


class StructureError(QhaError):
    """A structure failed its axiom checks at construction time.

    Carries the offending report so callers can localize the failure.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class TwistError(QhaError):
    """An element does not qualify as a twist (counit property / invertibility)."""


class ConsistencyError(QhaError):
    """Two independent evaluation routes of the same quantity disagree.

    This signals either an invalid input structure or a kernel bug; it is
    never expected on verified inputs.  ``witness`` names where the values
    part (``at (0, 1): 2 != 3``); ``str(exc)`` is the message alone.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class CatalogError(QhaError):
    """Unknown builtin name or invalid catalog request."""


class SchemaError(QhaError):
    """A structure file violates the file-format schema."""

    def __init__(self, message, path=None):
        if path:
            message = f"{path}: {message}"
        super().__init__(message)
        self.path = path
