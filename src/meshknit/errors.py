"""Error types shared across the package.

Every failure mode of the public API carries a stable ``code`` string plus
an ``exit_status`` so the CLI can map errors to exit codes without string
matching.  Status 2 marks malformed input, status 3 marks requests that are
well-formed but semantically infeasible.
"""


class MeshknitError(Exception):
    code = "ERROR"
    exit_status = 2


class InvalidType(MeshknitError):
    code = "INVALID_TYPE"


class InvalidInput(MeshknitError, ValueError):  # a ValueError too, for library callers
    code = "INVALID_INPUT"


class EmptyRange(MeshknitError):
    code = "EMPTY_RANGE"


class NotSource(MeshknitError):
    code = "NOT_SOURCE"


class NotSink(MeshknitError):
    code = "NOT_SINK"


class WindowTooSmall(MeshknitError):
    code = "WINDOW_TOO_SMALL"


class NotAdmissible(MeshknitError):
    code = "NOT_ADMISSIBLE"
    exit_status = 3


class InvalidDimensionVector(MeshknitError):
    code = "INVALID_DIMENSION_VECTOR"
    exit_status = 3


class NotAPedigreeVector(MeshknitError):
    code = "NOT_A_PEDIGREE_VECTOR"


class WrongFamily(MeshknitError):
    code = "WRONG_FAMILY"


class NotFundamental(MeshknitError):
    code = "NOT_FUNDAMENTAL"


class TooSmall(MeshknitError):
    code = "TOO_SMALL"


class InvalidBrauer(MeshknitError):
    code = "INVALID_BRAUER"


class NoSpecialArrow(MeshknitError):
    code = "NO_SPECIAL_ARROW"


class UnsupportedObject(MeshknitError):
    code = "UNSUPPORTED_OBJECT"


class UnknownExample(MeshknitError):
    code = "UNKNOWN_EXAMPLE"
