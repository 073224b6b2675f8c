"""potlab: desk-scale numerics for obstacle problems with Orlicz growth.

Growth-function calculus, a projected-Newton variational-inequality
solver on uniform 2D grids, Wolff potentials and restricted maximal
operators, and a config-driven harness that stress-tests comparison and
gradient estimates by ratio stability.
"""

from .errors import (
    ChainError,
    DataError,
    DomainError,
    EnergyIncreaseError,
    GridMismatchError,
    InsufficientDataError,
    IterationLimitError,
    LevelError,
    PotlabError,
    RangeError,
    ResolutionError,
    StateError,
)
from .orlicz import (
    GrowthFunction,
    PowerGrowth,
    RegularizedPowerGrowth,
    TabulatedGrowth,
)
from .grid import Grid2D, GridFunction, MeasureData
from .field import CoefficientField, OscillationModulus, VectorField
from .solver import (
    ComparisonChain,
    ObstacleProblem,
    OPSequence,
    Solution,
    SolverConfig,
    comparison_chain,
    mollify_measure,
    solve_equation,
    solve_frozen,
    solve_op_sequence,
    solve_vi,
)

__version__ = "0.1.0"
