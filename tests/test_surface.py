"""The root namespace exports the pipeline and nothing else."""

import gamblets

PUBLIC = [
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


def test_root_exports_exactly_the_pipeline():
    assert sorted(gamblets.__all__) == sorted(PUBLIC)
    assert len(set(gamblets.__all__)) == len(gamblets.__all__)
    for name in gamblets.__all__:
        assert getattr(gamblets, name) is not None, name
