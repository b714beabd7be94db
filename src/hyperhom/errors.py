"""Exception hierarchy shared across the package.

Two families matter to the CLI: `InputError` subclasses signal bad or
inconsistent input data (exit code 2), `InternalCheckError` subclasses
signal a failed internal consistency assertion (exit code 1).
"""


class HyperhomError(Exception):
    """Base class for all package errors."""


class InputError(HyperhomError):
    """Invalid or inconsistent input data."""


class InternalCheckError(HyperhomError):
    """A computed object failed an internal consistency check."""


class IndexOutOfRange(InputError):
    pass


class NotSimplicial(InputError):
    pass


class NotOrderPreserving(InputError):
    pass


class VertexSetMismatch(InputError):
    pass


class NotASubset(InputError):
    pass


class EmptyEdgePresent(InputError):
    pass


class NotIncluded(InputError):
    pass


class ClassMismatch(InputError):
    pass


class MonotonicityViolation(InputError):
    pass


class SchemaViolation(InputError):
    pass


class PowerSetTooLarge(InputError):
    pass


class CarrierTooLarge(InputError):
    pass


class CompositionNotZero(InternalCheckError):
    pass


class NotAChainMap(InternalCheckError):
    pass


class OperatorLeavesCarrier(InternalCheckError):
    pass


class TraceNotClassified(InternalCheckError):
    pass
