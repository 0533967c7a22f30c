import re
from pathlib import Path

import chaincast as cc

README = Path(__file__).resolve().parents[1] / "README.md"

# The package's public names.  A name joins or leaves this list only by a
# deliberate change to the API, never as a side effect of an import.
PUBLIC_API = [
    "BracketFailure", "ChainCoefficients", "ChaincastError", "ConfigError",
    "ConvergenceReport", "DivergentMoment",
    "DomainError", "EndpointEvaluation", "GappedMeasure", "IllConditioned",
    "IndexOutOfRange", "InversionFailure",
    "MappingKernel", "Measure", "NonMonotoneDispersion", "NotInSzegoClass",
    "PoleTooClose", "PowerLawExpWeight", "PowerLawWeight",
    "RecurrenceCoefficients", "ResidualDensity", "SecondarySequence",
    "SemicircleWeight", "SpectralDensity", "SzegoVerdict", "TailBound",
    "UnsupportedMapping", "UnsupportedMeasure", "ZeroMass",
    "asymptotic_limits", "bassano_coefficients", "chain_coefficients",
    "convergence_report", "custom_sd", "find_gap_zero", "mapping_kernel",
    "measure_from_sd", "pade_defect", "perron_invert",
    "piecewise_uniform_sd", "power_law_exp_measure", "power_law_exp_sd",
    "power_law_measure", "power_law_sd", "recurrence_coefficients", "reducer",
    "sd_from_dispersion",
    "stieltjes_transform", "szego_check", "tabulated_sd", "terminal_sd"
]


def test_all_lists_the_public_api():
    assert sorted(cc.__all__) == PUBLIC_API


def library_tour():
    """README's "## Library tour" section, up to the next heading."""
    text = README.read_text()
    return text.split("\n## Library tour\n", 1)[1].split("\n## ", 1)[0]


def test_readme_library_tour_runs():
    code = re.search(r"```python\n(.*?)```", library_tour(), re.S).group(1)
    exec(compile(code, str(README), "exec"), {})


def test_readme_lower_level_pieces_are_exported():
    para = library_tour().split("Lower-level pieces:", 1)[1].split("\n\n", 1)[0]
    names = re.findall(r"`([^`]+)`", para)
    assert names
    missing = [n for n in names if not hasattr(cc, n)]
    assert not missing, missing
