"""Residual spectral densities after embedding chain sites into the system.

Embedding the first n sites of the particle (q=0) or phonon (q=1) chain
leaves the enlarged system coupled to a bath with spectral density

    J_n(w) = J_0(w) / [ (P_{n-1}(y) phi(y)/2 - Q_{n-1}(y))^2
                        + J_0(w)^2 P_{n-1}(y)^2 ],      y = G_q(w),

with P, Q, phi of d-lambda^q.  Equivalently J_n = pi * nu_n(G_q(w)) where
nu_n is the secondary sequence of d-lambda^q (mass beta_n), so the
measure built from J_n has the n-th associated Jacobi matrix of the base
chain.  The tests check exactly that, with the oracle
`residual_consistency` in tests/oracles.py.

No closed residual-density formula is known for 0 < q < 1; those requests
raise UnsupportedMapping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chainmap import measure_from_sd
from .errors import GappedMeasure, UnsupportedMapping
from .measures import SpectralDensity
from .secondary import SecondarySequence
from .stieltjes import evaluation_band

__all__ = [
    "ResidualDensity",
]


@dataclass(frozen=True)
class ResidualDensity:
    """Evaluator for J_0, J_1, ..., J_order of a gapless spectral density."""

    base: SpectralDensity
    q: int
    seq: SecondarySequence

    @classmethod
    def build(cls, J: SpectralDensity, q: int, order: int) -> "ResidualDensity":
        if q not in (0, 1):
            raise UnsupportedMapping(
                f"residual spectral densities exist only for q in {{0, 1}}, got {q}")
        if not J.gapless:
            raise GappedMeasure("residual densities require a gapless spectral density")
        lam = measure_from_sd(J, float(q))
        seq = SecondarySequence.build(lam, order)
        return cls(base=J, q=q, seq=seq)

    def __call__(self, n: int, omega):
        if n == 0:
            return self.base(omega)
        w = np.atleast_1d(np.asarray(omega, float))
        y = w if self.q == 0 else w * w
        vals = math.pi * self.seq.density(n, y)
        return vals if np.ndim(omega) else float(vals[0])

    def clipped_range(self) -> tuple[float, float]:
        """Frequency window on which samples are emitted.

        The guard band (the reducer's evaluation band in the transformed
        measure domain) keeps clear of the endpoint divergence; at q = 1
        the ends are the band's square roots, moved inward by a few ulps
        where squaring them back would round out of the band.  Unbounded
        supports are cut where J_0 has fallen to 1e-12 of its peak (the
        sequence is not expected to converge there).
        """
        w_lo, w_hi = self.base.hull
        if math.isinf(w_hi):
            w_hi = _tail_cut(self.base)
        y_lo, y_hi = (w_lo, w_hi) if self.q == 0 else (w_lo**2, w_hi**2)
        band = evaluation_band(self.seq.base)
        y_lo = max(y_lo, band[0])
        if math.isfinite(band[1]):
            y_hi = min(y_hi, band[1])
        if self.q == 0:
            return y_lo, y_hi
        # __call__ squares w as w * w; step each end inward until that
        # rounding stays inside the band.
        lo, hi = math.sqrt(y_lo), math.sqrt(y_hi)
        while lo * lo < band[0]:
            lo = math.nextafter(lo, math.inf)
        while hi * hi > band[1]:
            hi = math.nextafter(hi, -math.inf)
        return lo, hi


def _tail_cut(J: SpectralDensity) -> float:
    """Where J_0 last exceeds 1e-12 of its peak on a grid over its
    ``truncated_hull``."""
    lo, hi = J.truncated_hull()
    grid = np.linspace(lo, hi, 40001)[1:]
    vals = np.asarray(J(grid), float)
    peak = float(vals.max())
    above = np.nonzero(vals > 1e-12 * peak)[0]
    return float(grid[above[-1]]) if len(above) else hi
