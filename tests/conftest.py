import numpy as np
import pytest

import chaincast as cc

from oracles import semicircle_measure


@pytest.fixture(scope="session")
def semicircle():
    """Normalized semicircle weight 2 sqrt(1-x^2)/pi on [-1, 1]."""
    return semicircle_measure()


@pytest.fixture(scope="session")
def semicircle_plain(semicircle):
    """Same density with the analytic family stripped: forces generic paths."""
    return cc.Measure(semicircle.weight, semicircle.support)


@pytest.fixture(scope="session")
def ohmic_sd():
    """Finite-support ohmic spectral density, s=1, alpha=0.1, omega_c=1."""
    return cc.power_law_sd(1.0, 0.1, 1.0)


@pytest.fixture(scope="session")
def ohmic_exp_sd():
    return cc.power_law_exp_sd(1.0, 0.1, 1.0)


@pytest.fixture(scope="session")
def gapped_sd():
    return cc.piecewise_uniform_sd([(0.0, 1.0, 1.0), (2.0, 3.0, 1.0)])


@pytest.fixture(scope="session")
def weight_x():
    """Weight x on [0, 1] (mass 1/2)."""
    return cc.power_law_measure(1.0, 1.0)


@pytest.fixture(scope="session")
def weight_2x():
    """Weight 2x on [0, 1] (normalized)."""
    return cc.power_law_measure(2.0, 1.0)


@pytest.fixture(scope="session")
def uniform_sym():
    """Normalized uniform weight 1/2 on [-1, 1] (no analytic family)."""
    return cc.Measure(lambda x: np.full_like(np.asarray(x, float), 0.5),
                      ((-1.0, 1.0),))


@pytest.fixture(scope="session")
def measure_suite(semicircle, weight_x, weight_2x, uniform_sym):
    """Small cross-section of measures for property-style checks."""
    return {
        "semicircle": semicircle,
        "weight_x": weight_x,
        "weight_2x": weight_2x,
        "uniform_sym": uniform_sym,
        "sqrt": cc.power_law_measure(1.0, 0.5),
        "laguerre_s1": cc.power_law_exp_measure(1.0, 1.0),
    }
