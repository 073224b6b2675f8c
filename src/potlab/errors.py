"""Exception types shared across the package."""


class PotlabError(Exception):
    """Base class for all package errors."""


class DomainError(PotlabError):
    """A point or ball falls outside the computational domain."""


class ResolutionError(PotlabError):
    """A geometric query is below what the grid spacing can resolve."""


class RangeError(PotlabError):
    """An argument lies outside a table, ladder, or quadrature range."""


class DataError(PotlabError):
    """Problem data is infeasible or ill-formed."""


class GridMismatchError(PotlabError):
    """Operands live on different grids."""


class InsufficientDataError(PotlabError):
    """Not enough samples to build or estimate the requested object."""


class StateError(PotlabError):
    """An object is queried before it holds the data the query needs."""


class LevelError(PotlabError):
    """A mollification level is unusable on this grid or measure."""


class IterationLimitError(PotlabError):
    """Solver stopped unconverged (iteration budget or collapsed line
    search, named in the message and ``last.stop_reason``); carries the
    last iterate."""

    def __init__(self, message, last=None):
        super().__init__(message)
        self.last = last


class EnergyIncreaseError(PotlabError):
    """An accepted solver step raised the discrete energy."""


class ChainError(PotlabError):
    """A stage of the comparison chain failed; names the stage."""

    def __init__(self, stage, cause):
        super().__init__(f"comparison chain stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause
