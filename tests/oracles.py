"""Test oracles and measure helpers that the package does not export.

Moments and the secondary-moment recurrence are independent checks of
quadrature and of the secondary density; ``residual_consistency`` checks
the central identity of the residual densities, that the measure built
from J_n has the n-th associated Jacobi matrix of the base chain.
``normalize`` and ``semicircle_measure`` build the tests' measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from chaincast import (Measure, ResidualDensity, SemicircleWeight,
                       SpectralDensity, recurrence_coefficients)
from chaincast.errors import ChaincastError, DomainError, ZeroMass
from chaincast.measures import scale_mass


class InsufficientMoments(ChaincastError):
    """Moment sequence too short for the requested order."""


def moments(m: Measure, n: int) -> np.ndarray:
    """Moments C_k = int x**k d-mu(x), k = 0..n, to ~1e-12 relative.

    Raises DivergentMoment when the support is unbounded and no tail bound
    certifies truncation.
    """
    if n < 0:
        raise DomainError("moment order must be nonnegative")
    return np.array([m.integrate(lambda x, k=k: x**k if k else np.ones_like(x),
                                 poly_degree=k) for k in range(n + 1)])


def normalize(m: Measure) -> Measure:
    """Divide the weight by C_0 so the measure has unit mass."""
    c0 = m.integrate(np.ones_like)
    if not c0 > 1e-300:
        raise ZeroMass(f"zeroth moment {c0} too small to normalize")
    return scale_mass(m, 1.0 / c0)


def semicircle_measure(a: float = -1.0, b: float = 1.0, mass: float = 1.0) -> Measure:
    """Semicircle weight on [a, b] with the given total mass."""
    c = mass * 8.0 / (math.pi * (b - a) ** 2)
    return Measure.from_family(SemicircleWeight(c, a, b))


def secondary_moments(c: np.ndarray, n: int) -> np.ndarray:
    """Moments of the (unnormalized) secondary measure from moments of a
    normalized measure:

        C_k(d rho) = C_{k+2} - C_1 C_{k+1} - sum_{s<k} C_s(d rho) C_{k-s}

    Requires C_0 = 1 and entries up to order n + 2.  Serves as the oracle
    against direct quadrature of the secondary density.
    """
    vals = np.asarray(c, float)
    if len(vals) < n + 3:
        raise InsufficientMoments(f"need moments to order {n + 2}, have {len(vals) - 1}")
    if abs(vals[0] - 1.0) > 1e-8:
        raise DomainError("secondary moment recurrence requires C_0 = 1")
    rho = np.zeros(n + 1)
    for k in range(n + 1):
        acc = vals[k + 2] - vals[1] * vals[k + 1]
        for s in range(k):
            acc -= rho[s] * vals[k - s]
        rho[k] = acc
    return rho


@dataclass(frozen=True)
class ConsistencyReport:
    """Shifted-coefficient check of a residual density.

    alpha_deviation[k] = |alpha_k(measure of J_n) - alpha_{n+k}(d-lambda^q)|
    beta_deviation[0]  = |mass(J_n measure)/pi-normalization - beta_n|, then
    beta_deviation[k]  = |beta_k - beta_{n+k}| for k >= 1.
    """

    n: int
    alpha_deviation: np.ndarray
    beta_deviation: np.ndarray

    @property
    def max_deviation(self) -> float:
        return float(max(self.alpha_deviation.max(), self.beta_deviation.max()))


def residual_consistency(J: SpectralDensity, q: int, n: int, depth: int,
                         ) -> ConsistencyReport:
    """Recompute recurrence coefficients from the evaluated J_n and compare
    with orders n..n+depth of the base chain measure."""
    if depth < 1:
        raise ValueError("depth must be positive")
    rd = ResidualDensity.build(J, q, max(n, 1))
    parent = recurrence_coefficients(rd.seq.base, n + depth + 1)
    if n == 0:
        return ConsistencyReport(0, np.zeros(depth + 1), np.zeros(depth + 1))
    member = rd.seq.member_measure(n)
    child = recurrence_coefficients(member, depth + 1)
    a_dev = np.abs(child.alpha - parent.alpha[n:n + depth + 1])
    b_dev = np.abs(child.beta - parent.beta[n:n + depth + 1])
    return ConsistencyReport(n, a_dev, b_dev)
