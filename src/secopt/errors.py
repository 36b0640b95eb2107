"""Exception types shared across the package.

Every one is a ParameterError, which the CLI maps to exit code 2.
"""


class ParameterError(ValueError):
    """A supplied parameter is outside its admissible range."""


class DomainError(ParameterError):
    """A point (a query, a start or an optimizer) lies outside its domain."""


class ConstructionError(ParameterError):
    """A problem instance cannot be built from the given constants."""


class PackingError(ParameterError):
    """Candidate centers do not form a valid packing."""


class BudgetError(ParameterError):
    """The query budget is too small for the requested protocol."""
