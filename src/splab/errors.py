"""Exception hierarchy with CLI exit codes.

Exit code convention: 0 all assertions pass, 1 an experiment assertion
failed, 2 configuration error, 3 IO error.
"""


class SplabError(Exception):
    """Base class for all lab errors."""

    exit_code = 1


class ConfigurationError(SplabError):
    """Invalid parameters, schema violations, missing cached constants."""

    exit_code = 2


class GeometryError(SplabError):
    """Overlapping supports, misaligned lattices, cluster collisions."""

    exit_code = 2


class EvaluationError(SplabError):
    """Non-finite values produced while sampling a map."""

    exit_code = 2


class BudgetError(SplabError):
    """A node, pair or table budget exceeded; counted before the work starts."""

    exit_code = 2


class ConsistencyError(SplabError):
    """Declared constants disagree between glued pieces."""

    exit_code = 2


class NumericalError(SplabError):
    """A numerical evaluation produced a non-finite or negative energy."""

    exit_code = 2


class WrongSchemeError(SplabError):
    """Energy scheme does not apply to the requested parameters."""

    exit_code = 2


class SingularHitError(SplabError):
    """A point fell within the exclusion radius of the singular set."""

    def __init__(self, message, point=None):
        super().__init__(message)
        self.point = point


class DegenerateShiftError(SplabError):
    """Too many nodes collapsed onto the singular set for one shift."""


class SamplingError(SplabError):
    """Random sampling produced no applicable cases."""


class AssertionFailure(SplabError):
    """An experiment-level assertion failed (exit code 1)."""

    exit_code = 1


class OutputError(SplabError):
    """Report files could not be written."""

    exit_code = 3
