"""Exception types shared across the package."""

from __future__ import annotations


class SurfaceConesError(Exception):
    """Base class for all errors raised by this package."""


class MixedRadicandError(SurfaceConesError):
    """Arithmetic between exact values living in unrelated radical extensions."""


class NonRealScalarError(SurfaceConesError):
    """Square root of a negative value was requested."""


class ModelValidationError(SurfaceConesError):
    """A surface/blow-up description violates a structural invariant.

    ``field`` points at the offending entry (e.g. ``gram_Y[0][1]``) so that
    command-line diagnostics can name it.
    """

    def __init__(self, message: str, field: str | None = None):
        self.message = message
        self.field = field
        super().__init__(f"{field}: {message}" if field else message)


class MalformedValueError(ModelValidationError):
    """A JSON value has the wrong type or spelling for its field, e.g. ``true`` for a number.

    It is raised while a document is parsed, before any invariant is
    evaluated, so ``verify`` reports it as malformed input, never as a
    violated invariant.
    """


class ModelMismatchError(SurfaceConesError):
    """Two divisor classes from different blow-up models were combined."""


class AdjunctionParityError(SurfaceConesError):
    """Class is non-integral for the genus formula (C^2 + C.K odd or fractional)."""


class PreconditionError(SurfaceConesError):
    """An operation was called outside its stated domain."""


class ZariskiError(SurfaceConesError):
    """Decomposition against the declared curve list is impossible."""


class ThresholdError(SurfaceConesError):
    """A threshold or condition-system inequality is violated.

    ``binding`` carries the inequality that failed, rendered as text.
    """

    def __init__(self, message: str, binding: str | None = None):
        self.binding = binding
        super().__init__(message)


class InternalConsistencyError(SurfaceConesError):
    """Two independent computations of the same quantity disagreed."""


class CertificateError(SurfaceConesError):
    """A serialized certificate is malformed or of unknown kind."""
