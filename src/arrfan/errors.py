"""Exception types shared across the library."""


class ArrfanError(Exception):
    """Base class for all library-specific errors."""


class InputFormatError(ArrfanError):
    """Malformed input: bad JSON, non-integer entries, zero/non-primitive/parallel vectors."""


class LatticeSpanError(ArrfanError):
    """The covectors do not generate the full integer lattice of their rank."""


class NonPointedError(ArrfanError):
    """An inequality system whose solution cone contains a line."""


class NotSimplicialError(ArrfanError):
    """Some chamber of the arrangement has more extreme rays than the rank."""


class NotCrystallographicError(ArrfanError):
    """The operation requires a crystallographic arrangement."""


class MalformedFanError(ArrfanError):
    """Cone collection is not a fan: two cones intersect in a non-face."""


class NotSmoothError(ArrfanError):
    """The operation requires a smooth fan."""


class NotCompleteError(ArrfanError):
    """The operation requires a complete fan."""


class NotStronglySymmetricError(ArrfanError):
    """The operation requires a strongly symmetric fan."""


class DoesNotCloseError(ArrfanError):
    """A weight sequence whose ray recurrence fails to return to its start."""


class OrientationError(ArrfanError):
    """A weight sequence whose rays do not wind around the origin exactly once."""


class BadReferenceError(ArrfanError):
    """A referenced object (cone, flat, hyperplane, catalog name) does not exist."""


class UnsupportedRankError(ArrfanError):
    """The command does not support the rank of its input."""


class CertificationError(ArrfanError):
    """An internal consistency certificate failed; indicates an upstream bug."""
