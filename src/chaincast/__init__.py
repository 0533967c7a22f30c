"""chaincast: chain mappings of open-system bath spectral densities.

Maps a bath spectral density onto nearest-neighbour chain representations
(the q-family interpolating particle and phonon mappings), evaluates the
residual spectral densities left after embedding chain sites into the
system, and classifies/reports convergence to the universal terminal
densities.
"""

__version__ = "0.1.0"

from .errors import (
    BracketFailure,
    ChaincastError,
    ConfigError,
    DivergentMoment,
    DomainError,
    EigenFailure,
    EndpointEvaluation,
    GappedMeasure,
    IllConditioned,
    IndexOutOfRange,
    InsufficientMoments,
    InversionFailure,
    NonMonotoneDispersion,
    NotInSzegoClass,
    PoleTooClose,
    UnsupportedMapping,
    UnsupportedMeasure,
    ZeroMass,
)
from .measures import (
    Measure,
    MomentSequence,
    PointMass,
    PowerLawExpWeight,
    PowerLawWeight,
    SemicircleWeight,
    SpectralDensity,
    TailBound,
    custom_sd,
    moments,
    normalize,
    piecewise_uniform_sd,
    power_law_exp_measure,
    power_law_exp_sd,
    power_law_measure,
    power_law_sd,
    rescale,
    sd_from_dispersion,
    semicircle_measure,
    tabulated_sd,
)
from .orthopoly import (
    GaussRule,
    RecurrenceCoefficients,
    eval_monic,
    eval_orthonormal,
    eval_secondary_polynomial,
    gauss_rule,
    recurrence_coefficients,
)
from .stieltjes import (
    find_gap_zero,
    pade_defect,
    perron_invert,
    reducer,
    stieltjes_transform,
)
from .secondary import (
    SecondarySequence,
    secondary_density,
    secondary_moments,
)
from .chainmap import (
    ChainCoefficients,
    MappingKernel,
    bassano_coefficients,
    chain_coefficients,
    mapping_kernel,
    measure_from_sd,
)
from .residual import (
    ConsistencyReport,
    ResidualDensity,
    residual_consistency,
    residual_sd,
)
from .convergence import (
    ConvergenceReport,
    SzegoVerdict,
    asymptotic_limits,
    convergence_report,
    szego_check,
    terminal_sd,
)

__all__ = [name for name in dir() if not name.startswith("_")]
