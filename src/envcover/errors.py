"""Exception types shared across the package."""


class EnvcoverError(Exception):
    """Base class for all package-specific errors."""


class MalformedDocument(EnvcoverError):
    """A plan document is not a list of single-key objects / strings."""


class StructureError(EnvcoverError):
    """A decision tree violates a structural invariant."""


class SchemaViolation(EnvcoverError):
    """A serialized artifact fails schema or cross-reference checks."""

    def __init__(self, message: str, field: str = ""):
        super().__init__(f"{field}: {message}" if field else message)
        self.field = field


class ProviderError(EnvcoverError):
    """Transport failure or missing/ill-formed provider response."""


class EmptyPathSet(EnvcoverError):
    """A subtask contributed zero decision paths, so no trajectory exists."""


class EmptyCatalog(EnvcoverError):
    """Asset retrieval against a catalog with no records."""


class EncodingError(EnvcoverError):
    """A scene cannot be encoded as a constraint problem at all."""


class SolverTimeout(EnvcoverError):
    """Backtrack budget hit before the search finished.

    Deliberately distinct from an Unsat result: a timed-out search proves
    nothing about satisfiability.
    """


class CoreUnsat(EnvcoverError):
    """Unsatisfiable even after every relaxable constraint was dropped."""


class UnsatisfiableScene(EnvcoverError):
    """Scene construction could not produce a solvable layout."""


class TrajectoryMismatch(EnvcoverError):
    """A built environment does not satisfy its trajectory's constraints."""


class SchemaMismatch(EnvcoverError):
    """An environment lacks an attribute the task schema requires."""


class MissingInput(EnvcoverError):
    """A pipeline stage's input artifact is absent from the run directory."""


class ConfigError(EnvcoverError):
    """Bad CLI flags or run configuration."""
