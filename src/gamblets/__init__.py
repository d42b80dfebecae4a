"""Operator-adapted multiresolution analysis and signal de-noising.

The package decomposes a symmetric positive definite operator (a
discretized elliptic PDE or a grounded graph Laplacian) over a nested
measurement hierarchy into uniformly conditioned detail blocks, and
uses the resulting coordinates to recover signals from noisy
measurements with a prior energy bound.

The root exports the pipeline: the hierarchy and operator builders, the
transform with analyze/reconstruct/solve and persistence, the four
estimators with level selection, signal generation and the trial
harness, the graph pipeline, the types these take and return and the
exceptions they raise. Numerics kernels, test oracles and tuning
internals are imported from their modules (gamblets.numerics,
gamblets.transform, gamblets.denoise, ...).
"""

from .errors import (
    BadConfig,
    BadLevel,
    DimensionMismatch,
    Disconnected,
    EmptyGrid,
    EmptyPointSet,
    GambletError,
    InvalidProbability,
    NoBracketWarning,
    NoConvergence,
    NotSPD,
    TooFewLevels,
    TooLarge,
    UnsupportedDim,
)
from .hierarchy import Hierarchy, build_dyadic, build_from_points
from .operators import (
    CoefficientField,
    DiscreteOperator,
    GeometricGraph,
    assemble_fem,
    coeff_1d,
    coeff_2d,
    coeff_from_cells,
    coeff_unit,
    grounded_laplacian,
    load_graph,
    synthetic_grid,
)
from .transform import (
    GambletSystem,
    MultiresCoefficients,
    analyze,
    load_system,
    reconstruct,
    save_system,
    solve,
    transform,
)
from .denoise import (
    METHODS,
    SIGNAL_MODES,
    DenoiseConfig,
    DenoiseResult,
    MethodStats,
    TrialStats,
    add_noise,
    errors,
    gen_signal,
    hard_threshold,
    level_betas,
    level_filter,
    regularize,
    run_trials,
    select_level,
    soft_threshold,
)
from .graphdenoise import GraphDenoiseOutput, GraphScaleEstimate, denoise_graph

__version__ = "0.1.0"

__all__ = [
    "BadConfig", "BadLevel", "DimensionMismatch", "Disconnected", "EmptyGrid",
    "EmptyPointSet", "GambletError", "InvalidProbability", "NoBracketWarning",
    "NoConvergence", "NotSPD", "TooFewLevels", "TooLarge", "UnsupportedDim",
    "Hierarchy", "build_dyadic", "build_from_points",
    "CoefficientField", "DiscreteOperator", "GeometricGraph", "assemble_fem",
    "coeff_1d", "coeff_2d", "coeff_from_cells", "coeff_unit",
    "grounded_laplacian", "load_graph", "synthetic_grid",
    "GambletSystem", "MultiresCoefficients", "analyze", "load_system",
    "reconstruct", "save_system", "solve", "transform",
    "METHODS", "SIGNAL_MODES", "DenoiseConfig", "DenoiseResult", "MethodStats",
    "TrialStats", "add_noise", "errors", "gen_signal", "hard_threshold",
    "level_betas", "level_filter", "regularize", "run_trials", "select_level",
    "soft_threshold",
    "GraphDenoiseOutput", "GraphScaleEstimate", "denoise_graph",
]
