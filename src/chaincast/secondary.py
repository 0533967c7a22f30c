"""The beta-normalized secondary sequence of a gapless measure, in closed form.

Starting from a gapless base measure nu_0, its secondary measures
nu_1, nu_2, ... are evaluated directly from the base data (orthonormal P,
secondary Q, reducer phi) with no iteration:

    nu_n(x) = nu_0(x) / [ (P_{n-1} phi/2 - Q_{n-1})^2 + pi^2 nu_0^2 P_{n-1}^2 ]

where P, Q, phi all belong to nu_0.  Member n carries mass beta_n(d nu_0),
and its Jacobi matrix is the n-th associated matrix of the base (first n
rows and columns crossed out).

Only beta_0 depends on the mass of nu_0: scaling nu_0 by t scales P by
t**-1/2, Q by t**1/2 and phi by t, so both terms of the denominator scale
by t and nu_n is unchanged.  The sequence therefore runs on the base
divided by the power of four nearest beta_0.  For t = 4**-j that division
is exact in binary: P scales by 2**j, Q and phi * P by 2**-j, square roots
included.  So nu_n keeps every bit it has for a unit-scale input, while no
table can overflow or underflow however large or small the mass of nu_0.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    GappedMeasure,
    IndexOutOfRange,
    UnsupportedMeasure,
    ZeroMass,
)
from .measures import Measure, scale_mass
from .orthopoly import (
    RecurrenceCoefficients,
    orthonormal_table,
    recurrence_coefficients,
    secondary_table,
)
from .stieltjes import evaluation_band, reducer

__all__ = [
    "SecondarySequence",
]


@dataclass(frozen=True)
class SecondarySequence:
    """Evaluator for the secondary sequence of a gapless measure.

    ``base`` is the measure divided by the power of four nearest its mass,
    and ``rc`` its recurrence coefficients: beta_0 is the base's mass,
    beta_n (n >= 1) the mass of member n.  All P, Q, phi come from the
    single base measure stored here; nothing is re-derived per member.
    Members are usually sampled order by order on one grid, so the weight,
    the reducer and the P and Q tables up to the prepared order are
    evaluated once per distinct x array and kept for the last one.
    """

    base: Measure
    rc: RecurrenceCoefficients
    # (x, (mu0, phi, P table, Q table)) of the last x, all read-only.
    _memo: list = field(default_factory=list, init=False, repr=False,
                        compare=False)

    @classmethod
    def build(cls, measure: Measure, order: int) -> "SecondarySequence":
        """Prepare a sequence supporting members 1..order.

        Raises ZeroMass when beta_0, the mass of the measure, is below the
        smallest normal double."""
        if not measure.gapless:
            raise GappedMeasure(
                "secondary measures do not exist for gapped measures "
                "(the Stieltjes transform vanishes inside the gap)")
        rc = recurrence_coefficients(measure, order + 1)
        if not rc.beta[0] >= sys.float_info.min:
            # a subnormal mass has lost digits, and the power of four
            # nearest it may not be a double
            raise ZeroMass(
                f"beta_0 = {float(rc.beta[0])!r} is below the smallest normal double "
                f"sys.float_info.min = {sys.float_info.min!r}: the base "
                "cannot be normalized")
        scale = math.ldexp(1.0, -2 * round(math.frexp(rc.beta[0])[1] / 2))
        beta = rc.beta.copy()
        beta[0] *= scale
        return cls(base=scale_mass(measure, scale),
                   rc=RecurrenceCoefficients(rc.alpha, beta))

    @property
    def order(self) -> int:
        return self.rc.n - 1

    def _check_member(self, n: int) -> None:
        if n < 1:
            raise IndexOutOfRange("sequence members start at n = 1")
        if n > self.order:
            raise IndexOutOfRange(f"member {n} beyond prepared order {self.order}")

    def density(self, n: int, x):
        """Weight of member n at interior points x (n >= 1); its mass is
        rc.beta[n]."""
        self._check_member(n)
        xs = np.atleast_1d(np.asarray(x, float))
        mu0, phi, p_table, q_table = self._tables(xs)
        p, q = p_table[n - 1], q_table[n - 1]
        den = (p * phi / 2.0 - q) ** 2 + math.pi**2 * mu0**2 * p**2
        vals = mu0 / den
        return vals if np.ndim(x) else float(vals[0])

    def _tables(self, xs: np.ndarray) -> tuple:
        """mu0, phi, P_0..P_{order-1} and Q_0..Q_{order-1} at xs.  Row k of
        a table does not depend on the rows after it, so every member reads
        the bits a table built up to its own order would give."""
        memo = self._memo
        if memo and np.array_equal(memo[0], xs):
            return memo[1]
        memo.clear()  # the previous x's tables need not outlive it
        top = self.order - 1
        tables = (np.array(self.base.weight(xs), float),
                  np.array(reducer(self.base, xs), float),
                  orthonormal_table(self.rc, top, xs),
                  secondary_table(self.rc, top, xs))
        for t in tables:
            t.flags.writeable = False
        memo[:] = [xs.copy(), tables]
        return tables

    def member_measure(self, n: int) -> Measure:
        """Member n (n >= 1) wrapped as a Measure on the guard-banded interior.

        The denominators keep the endpoint behaviour of the base weight at
        the left endpoint; at the right endpoint the member decays like
        1/log^2 and the clipped band carries O(guard/log^2 guard) mass.
        """
        self._check_member(n)
        if not self.base.bounded:
            raise UnsupportedMeasure(
                "member measures need bounded support (off the Szego class "
                "the sequence has no integrable limit anyway)")
        return Measure(
            weight=lambda x: self.density(n, x),
            support=(evaluation_band(self.base),),
        )
