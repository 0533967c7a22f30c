"""The q-parametrized family of chain mappings.

Every q in [0, 1] maps a bath spectral density J onto a nearest-neighbour
chain through the transformed measure

    M^q(x) = (J(G_q^{-1}(x)) / pi) * ((1+q^2) q + 4 (1-q^2) x)
                                   / ((1+q)   q + 4 (1-q)   x)

whose recurrence coefficients alpha_n(q), beta_n(q) furnish the chain
Hamiltonian scalars.  q = 0 is the particle (hopping) mapping with
M^0 = J/pi; q = 1 is the phonon (spring) mapping with M^1(x) = J(sqrt x)/pi.
The Bassano-style coefficients D_n^2, Omega_n^2 of the iterated-propagator
construction coincide with beta_n and alpha_{n-1} of the phonon measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, GappedMeasure, IllConditioned
from .measures import Measure, SpectralDensity, TailBound
from .orthopoly import RecurrenceCoefficients, recurrence_coefficients

__all__ = [
    "MappingKernel",
    "ChainCoefficients",
    "mapping_kernel",
    "measure_from_sd",
    "chain_coefficients",
    "bassano_coefficients",
]

@dataclass(frozen=True)
class MappingKernel:
    """G_q, its inverse, and the Bogoliubov amplitude xi_q (r_q = ln xi_q).

    G is evaluated in the rationalized form

        G_q(x) = (16 x^2 - q^2 (1 - q^2))
                 / (4 * (2 sqrt(q^4 + 4 (1-q^2) x^2) + q (1 + q^2)))

    which is cancellation-free for every q in [0, 1] and takes the q -> 1
    limit G_1(x) = x^2 without a branch.  G_q(inf) = inf for every q (the
    end of unbounded support), where the quotient would read inf/inf and,
    at q = 1, the root 0 * inf.  Likewise xi_q(inf) is the limit
    ((1+q)/(1-q))^(1/4) for q < 1 and inf at q = 1.
    """

    q: float

    def G(self, x):
        x = np.asarray(x, float)
        q = self.q
        if q == 0.0:
            out = x
        else:
            inf = np.isinf(x)
            x = np.where(inf, 0.0, x)
            root = np.sqrt(q**4 + 4.0 * (1.0 - q * q) * x * x)
            out = np.where(inf, np.inf, (16.0 * x * x - q * q * (1.0 - q * q)) / (
                4.0 * (2.0 * root + q * (1.0 + q * q))))
        return out if out.ndim else float(out)

    def G_inv(self, x):
        x = np.asarray(x, float)
        q = self.q
        lo = -q * (1.0 - q) / (4.0 * (1.0 + q))
        prod = ((q * (1.0 - q) + 4.0 * (1.0 + q) * x)
                * (q * (1.0 + q) + 4.0 * (1.0 - q) * x))
        out = 0.25 * np.sqrt(np.maximum(prod, 0.0))
        if np.any(x < lo - 1e-12 * (1 + abs(lo))):
            raise DomainError(f"G_inv defined for x >= {lo}")
        return out if out.ndim else float(out)

    def xi(self, x):
        x = np.asarray(x, float)
        q = self.q
        if q == 0.0:
            out = np.ones_like(x)
        else:
            g = np.asarray(self.G(x), float)
            inf = np.isinf(g)
            g = np.where(inf, 0.0, g)
            num = q * (1.0 - q) + 4.0 * (1.0 + q) * g
            den = q * (1.0 + q) + 4.0 * (1.0 - q) * g
            lim = (1.0 + q) / (1.0 - q) if q < 1.0 else np.inf
            out = np.where(inf, lim, num / den) ** 0.25
        return out if out.ndim else float(out)

    def r(self, x):
        """ln xi_q; diverges to -inf at x = 0 for q > 0."""
        out = np.log(np.asarray(self.xi(x), float))
        return out if out.ndim else float(out)


def mapping_kernel(q: float) -> MappingKernel:
    if not 0.0 <= q <= 1.0:
        raise DomainError(f"mapping parameter q must lie in [0, 1], got {q}")
    return MappingKernel(float(q))


def _ratio(q: float) -> Callable:
    """The factor ((1+q^2) q + 4 (1-q^2) x) / ((1+q) q + 4 (1-q) x) of M^q,
    for 0 < q < 1, in the cancellation-free form (1+q)(q^2 + u)/(2q^2 + u)
    with u = 2 (1-q^2) (x - G_q(0)) >= 0: at the support's lower end
    G_q(0) = -q (1-q) / (4 (1+q)) both sides of the quotient above are
    O(q^2) but formed from O(q) terms.  Where q^2 underflows to 0, the
    quotient at the end itself, 0/0, is read as its limit there, 1/2."""
    q2 = q * q
    end = q * (1.0 - q) / (4.0 * (1.0 + q))  # -G_q(0)

    def ratio(x):
        u = 2.0 * (1.0 - q2) * np.maximum(np.asarray(x, float) + end, 0.0)
        den = 2.0 * q2 + u
        return (1.0 + q) * np.divide(q2 + u, den, out=np.full(den.shape, 0.5),
                                     where=den > 0)
    return ratio


def measure_from_sd(J: SpectralDensity, q: float) -> Measure:
    """The chain-mapping measure d-lambda^q = M^q(x) dx of a spectral density.

    Gap structure maps through G_q.  At 0 < q < 1 a J/pi with a log weight
    (the exponential cutoff) gives M^q one too; at q = 1 it does not yet,
    since the tail cutoff there stops short of where the polynomials live.
    """
    kernel = mapping_kernel(q)
    if q == 0.0:
        if J.m0_family is not None:
            return Measure.from_family(J.m0_family)
        ev = J.evaluator
        return Measure(lambda x: np.asarray(ev(x), float) / math.pi,
                       J.support, tail=J.tail)

    support = tuple((kernel.G(lo), kernel.G(hi)) for lo, hi in J.support)

    if q == 1.0:
        if J.m1_family is not None:
            return Measure.from_family(J.m1_family)
        ev = J.evaluator
        tail = None
        if J.tail is not None:
            tail = TailBound(J.tail.rate, J.tail.power / 2.0, J.tail.stretch / 2.0)
        return Measure(lambda x: np.asarray(ev(np.sqrt(np.maximum(x, 0.0))), float) / math.pi,
                       support, tail=tail)

    ev = J.evaluator
    ratio = _ratio(q)

    def weight(x):
        x = np.asarray(x, float)
        return np.asarray(ev(kernel.G_inv(x)), float) / math.pi * ratio(x)

    m0_log_weight = getattr(J.m0_family, "log_weight", None)
    log_weight = None if m0_log_weight is None else (
        lambda x: m0_log_weight(kernel.G_inv(x)) + np.log(ratio(x)))

    tail = None
    if J.tail is not None:
        # G_inv(x) >= x sqrt(1-q^2), ratio -> (1+q): a conservative bound.
        t = J.tail
        shrink = (1.0 - q * q) ** (t.stretch / 2.0)
        tail = TailBound(t.rate * shrink, t.power, t.stretch)
    return Measure(weight, support, tail=tail, log_weight=log_weight)


@dataclass(frozen=True)
class ChainCoefficients:
    """Scalar data of the chain Hamiltonian for a given q.

    Site energies/couplings over n = 0..N-1:
        E1_n = (q/2) alpha_n(q) - q^2/8     (pair creation, on-site)
        E2_n = alpha_n(q) + q/4             (number, on-site)
        E3_n = q sqrt(beta_{n+1}(q))        (pair creation, hopping)
        E4_n = sqrt(beta_{n+1}(q))          (number-conserving hopping)
        E5   = sqrt(beta_0(q))              (system-chain coupling)
    rc holds the underlying N+1 recurrence coefficients of d-lambda^q.
    """

    q: float
    rc: RecurrenceCoefficients
    E1: np.ndarray
    E2: np.ndarray
    E3: np.ndarray
    E4: np.ndarray
    E5: float

    @property
    def sites(self) -> int:
        return len(self.E1)

    @property
    def alpha(self) -> np.ndarray:
        return self.rc.alpha[:self.sites]

    @property
    def beta(self) -> np.ndarray:
        return self.rc.beta[:self.sites]


def chain_coefficients(J: SpectralDensity, q: float, n: int) -> ChainCoefficients:
    """Chain Hamiltonian scalars for n sites (plus the n-th coupling)."""
    if n < 1:
        raise DomainError("need at least one chain site")
    m = measure_from_sd(J, q)
    rc = recurrence_coefficients(m, n + 1)
    alpha = rc.alpha[:n]
    sqb = np.sqrt(rc.beta[1:n + 1])
    return ChainCoefficients(
        q=q, rc=rc,
        E1=(q / 2.0) * alpha - q * q / 8.0,
        E2=alpha + q / 4.0,
        E3=q * sqb,
        E4=sqb,
        E5=math.sqrt(rc.beta[0]),
    )


def bassano_coefficients(J: SpectralDensity, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Iterated-propagator chain data (D_n^2, Omega_{n+1}^2), n = 0..N-1.

    Computed as beta_n and alpha_n of the phonon measure d-lambda^1; D_0^2
    is cross-validated against the direct integral (2/pi) int J(w) w dw,
    which raises DivergentMoment when it does not converge.
    """
    if n < 1:
        raise DomainError("need at least one chain site")
    if not J.gapless:
        raise GappedMeasure(
            "the iterated-propagator construction requires gapless J "
            "(its Stieltjes relation breaks inside a gap)")
    rc = recurrence_coefficients(measure_from_sd(J, 1.0), n)
    d_sq = rc.beta[:n].copy()
    omega_sq = rc.alpha[:n].copy()

    direct = 2.0 * measure_from_sd(J, 0.0).integrate(lambda w: w, poly_degree=1)
    if abs(direct - d_sq[0]) > 1e-8 * max(abs(direct), abs(d_sq[0])):
        raise IllConditioned(
            f"D_0^2 mismatch: measure route {d_sq[0]}, direct integral {direct}")
    return d_sq, omega_sq
