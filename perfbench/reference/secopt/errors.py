"""Exception types shared across the package.

ParameterError (and subclasses) map to CLI exit code 2.
"""


class ParameterError(ValueError):
    """A supplied parameter is outside its admissible range."""


class DomainError(ParameterError):
    """A query point lies outside the admissible domain."""


class ConstructionError(ParameterError):
    """A problem instance cannot be built from the given constants."""


class PackingError(ParameterError):
    """Candidate centers do not form a valid packing."""


class BudgetError(ParameterError):
    """The query budget is too small for the requested protocol."""


class ProtocolOrderError(RuntimeError):
    """propose/feed were called out of order on a stateful solver."""
