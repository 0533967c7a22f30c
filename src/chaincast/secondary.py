"""Secondary measures and their closed-form sequences.

Starting from a gapless base measure, the normalized secondary sequence
mu_0, mu_1, ... and the beta-normalized sequence nu_0, nu_1, ... are both
evaluated directly from the base data (orthonormal P, secondary Q, reducer
phi) with no iteration:

    mu_n(x)  = (1/beta_n) * nu_n(x)
    nu_n(x)  = nu_0(x) / [ (P_{n-1} phi/2 - Q_{n-1})^2 + pi^2 nu_0^2 P_{n-1}^2 ]

where P, Q, phi all belong to nu_0.  Member n of the beta-normalized
sequence carries mass beta_n(d nu_0); members of the normalized sequence
have unit mass.  The Jacobi matrix of member n is the n-th associated
matrix of the base (first n rows and columns crossed out).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DomainError,
    GappedMeasure,
    IndexOutOfRange,
    InsufficientMoments,
    UnsupportedMeasure,
)
from .measures import Measure, MomentSequence, normalize
from .orthopoly import (
    RecurrenceCoefficients,
    orthonormal_table,
    recurrence_coefficients,
    secondary_table,
)
from .stieltjes import evaluation_band, reducer

__all__ = [
    "SecondarySequence",
    "secondary_density",
    "secondary_moments",
]


@dataclass(frozen=True)
class SecondarySequence:
    """Evaluator for a sequence of secondary measures over a gapless base.

    mode "normalized": members are the unit-mass secondary sequence of the
    normalized base.  mode "beta_normalized": members keep mass
    beta_n(d nu_0) of the original base.  All P, Q, phi come from the single
    base measure stored here; nothing is re-derived per member.
    """

    base: Measure
    rc: RecurrenceCoefficients
    mode: str
    # (x, phi) of the last reducer call: the members are usually sampled
    # order by order on one grid, and phi is the same for all of them.
    _phi_memo: list = field(default_factory=list, init=False, repr=False,
                            compare=False)

    @classmethod
    def build(cls, measure: Measure, order: int,
              mode: str = "normalized") -> "SecondarySequence":
        """Prepare a sequence supporting members 1..order."""
        if mode not in ("normalized", "beta_normalized"):
            raise ValueError(f"unknown mode {mode!r}")
        if not measure.gapless:
            raise GappedMeasure(
                "secondary measures do not exist for gapped measures "
                "(the Stieltjes transform vanishes inside the gap)")
        if measure.point_masses:
            raise UnsupportedMeasure("secondary sequences assume a pure density")
        base = normalize(measure) if mode == "normalized" else measure
        rc = recurrence_coefficients(base, order + 1)
        return cls(base=base, rc=rc, mode=mode)

    @property
    def order(self) -> int:
        return self.rc.n - 1

    def density(self, n: int, x):
        """Weight of member n at interior points x (n >= 1)."""
        if n < 1:
            raise IndexOutOfRange("sequence members start at n = 1")
        if n > self.order:
            raise IndexOutOfRange(f"member {n} beyond prepared order {self.order}")
        xs = np.atleast_1d(np.asarray(x, float))
        mu0 = np.asarray(self.base.weight(xs), float)
        phi = self._phi(xs)
        p = orthonormal_table(self.rc, n - 1, xs)[n - 1]
        q = secondary_table(self.rc, n - 1, xs)[n - 1]
        den = (p * phi / 2.0 - q) ** 2 + math.pi**2 * mu0**2 * p**2
        vals = mu0 / den
        if self.mode == "normalized":
            vals = vals / self.rc.beta[n]
        return vals if np.ndim(x) else float(vals[0])

    def _phi(self, xs: np.ndarray) -> np.ndarray:
        memo = self._phi_memo
        if memo and np.array_equal(memo[0], xs):
            return memo[1]
        phi = np.asarray(reducer(self.base, xs), float)
        memo[:] = [xs.copy(), phi]
        return phi

    def member_mass(self, n: int) -> float:
        if n == 0:
            return self.rc.beta[0] if self.mode == "beta_normalized" else 1.0
        if not 1 <= n <= self.order:
            raise IndexOutOfRange(f"member {n} beyond prepared order {self.order}")
        return self.rc.beta[n] if self.mode == "beta_normalized" else 1.0

    def member_measure(self, n: int) -> Measure:
        """Member n wrapped as a Measure on the guard-banded interior.

        The denominators keep the endpoint behaviour of the base weight at
        the left endpoint; at the right endpoint the member decays like
        1/log^2 and the clipped band carries O(guard/log^2 guard) mass.
        """
        if n == 0:
            return self.base
        if not self.base.bounded:
            raise UnsupportedMeasure(
                "member measures need bounded support (off the Szego class "
                "the sequence has no integrable limit anyway)")
        return Measure(
            weight=lambda x: self.density(n, x),
            support=(evaluation_band(self.base),),
        )


def secondary_density(m: Measure, x):
    """Weight of the secondary measure of a normalized gapless measure:
    rho(x) = mu(x) / (phi^2/4 + pi^2 mu^2).  Carries mass beta_1(d mu)."""
    if not m.gapless:
        raise GappedMeasure("secondary measure undefined for gapped measures")
    xs = np.atleast_1d(np.asarray(x, float))
    mu = np.asarray(m.weight(xs), float)
    phi = np.asarray(reducer(m, xs), float)
    vals = mu / (phi * phi / 4.0 + math.pi**2 * mu * mu)
    return vals if np.ndim(x) else float(vals[0])


def secondary_moments(c: MomentSequence | np.ndarray, n: int) -> MomentSequence:
    """Moments of the (unnormalized) secondary measure from moments of a
    normalized measure:

        C_k(d rho) = C_{k+2} - C_1 C_{k+1} - sum_{s<k} C_s(d rho) C_{k-s}

    Requires C_0 = 1 and entries up to order n + 2.  Serves as the oracle
    against direct quadrature of the secondary density.
    """
    vals = np.asarray(c.values if isinstance(c, MomentSequence) else c, float)
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
    return MomentSequence(rho)
