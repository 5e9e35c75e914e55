"""Exception types shared across the toolkit."""


class ToolkitError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(ToolkitError):
    """An argument is outside the mathematical domain of an operation."""


class NumericalFailure(ToolkitError):
    """An iterative routine failed to converge within its iteration cap."""


class FormatError(ToolkitError):
    """An input file could not be parsed against its schema."""


class OutputError(ToolkitError):
    """An output file could not be written."""


class ValidationError(ToolkitError):
    """Parsed data violates a structural invariant (dimensions, signs, ordering)."""


class InfeasibleError(ToolkitError):
    """A feasibility or design problem has no admissible solution."""


class DegenerateEnsemble(ToolkitError):
    """A Monte Carlo estimate is undefined for this ensemble (e.g. all-zero paths)."""
