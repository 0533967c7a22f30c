"""chaincast: chain mappings of open-system bath spectral densities.

Maps a bath spectral density onto nearest-neighbour chain representations
(the q-family interpolating particle and phonon mappings), evaluates the
residual spectral densities left after embedding chain sites into the
system, and classifies/reports convergence to the universal terminal
densities.
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .errors import (
    BracketFailure,
    ChaincastError,
    ConfigError,
    DivergentMoment,
    DomainError,
    EndpointEvaluation,
    GappedMeasure,
    IllConditioned,
    IndexOutOfRange,
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
    PowerLawExpWeight,
    PowerLawWeight,
    SemicircleWeight,
    SpectralDensity,
    TailBound,
    custom_sd,
    piecewise_uniform_sd,
    power_law_exp_measure,
    power_law_exp_sd,
    power_law_measure,
    power_law_sd,
    sd_from_dispersion,
    tabulated_sd,
)
from .orthopoly import (
    RecurrenceCoefficients,
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
    ResidualDensity,
)
from .convergence import (
    ConvergenceReport,
    SzegoVerdict,
    asymptotic_limits,
    convergence_report,
    szego_check,
    terminal_sd,
)

# The layer submodules are attributes of the package too; they are not API.
__all__ = sorted(name for name, obj in globals().items()
                 if not name.startswith("_") and not isinstance(obj, _ModuleType))
