import chaincast as cc

# The package's public names.  A name joins or leaves this list only by a
# deliberate change to the API, never as a side effect of an import.
PUBLIC_API = [
    "BracketFailure", "ChainCoefficients", "ChaincastError", "ConfigError",
    "ConsistencyReport", "ConvergenceReport", "DivergentMoment",
    "DomainError", "EndpointEvaluation", "GappedMeasure", "IllConditioned",
    "IndexOutOfRange", "InsufficientMoments", "InversionFailure",
    "MappingKernel", "Measure", "NonMonotoneDispersion", "NotInSzegoClass",
    "PoleTooClose", "PowerLawExpWeight", "PowerLawWeight",
    "RecurrenceCoefficients", "ResidualDensity", "SecondarySequence",
    "SemicircleWeight", "SpectralDensity", "SzegoVerdict", "TailBound",
    "UnsupportedMapping", "UnsupportedMeasure", "ZeroMass",
    "asymptotic_limits", "bassano_coefficients", "chain_coefficients",
    "convergence_report", "custom_sd", "find_gap_zero", "mapping_kernel",
    "measure_from_sd", "moments", "normalize", "pade_defect", "perron_invert",
    "piecewise_uniform_sd", "power_law_exp_measure", "power_law_exp_sd",
    "power_law_measure", "power_law_sd", "recurrence_coefficients", "reducer",
    "residual_consistency", "residual_sd", "sd_from_dispersion",
    "secondary_density", "secondary_moments", "semicircle_measure",
    "stieltjes_transform", "szego_check", "tabulated_sd", "terminal_sd"
]


def test_all_lists_the_public_api():
    assert sorted(cc.__all__) == PUBLIC_API
