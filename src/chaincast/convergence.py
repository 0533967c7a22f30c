"""Szego classification, asymptotic limits and terminal spectral densities.

If the transformed weight M^q has an integrable logarithm against the
equilibrium density of its support interval (the Szego condition), the
chain coefficients converge,

    alpha_n -> (G_q(w_max) + G_q(w_min)) / 2,
    beta_n  -> (G_q(w_max) - G_q(w_min))^2 / 16,

and the residual spectral densities converge weakly to the Wigner
semicircle (particle) or Rubin (phonon) terminal density.  Gapped or
unbounded spectral densities are never in the class.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from . import quadrature
from .chainmap import (
    ChainCoefficients,
    chain_coefficients,
    mapping_kernel,
    measure_from_sd,
)
from .errors import NotInSzegoClass, UnsupportedMapping
from .measures import SemicircleWeight, SpectralDensity, WeightFamily
from .residual import ResidualDensity

__all__ = [
    "SzegoVerdict",
    "ConvergenceReport",
    "szego_check",
    "asymptotic_limits",
    "terminal_sd",
    "convergence_report",
]

_log = logging.getLogger(__name__)

# Moments C_0..C_8 of each J_n enter the report's terminal_moment_gap.
_MOMENT_ORDER = 8


@dataclass(frozen=True)
class SzegoVerdict:
    in_class: bool
    reason: str | None = None          # "unbounded" | "gapped" | "log_divergence"
    # The Szego integral itself for a measure with a family (-inf for a
    # zero weight); for a family-less measure, the value at the last
    # endpoint exclusion, which is not the integral.
    integral: float | None = None

    def __str__(self) -> str:
        return "in_class" if self.in_class else f"out_of_class({self.reason})"


def szego_check(J: SpectralDensity, q: float) -> SzegoVerdict:
    """Verdict on int ln M^q(x) dx / sqrt((B-x)(x-A)) > -inf.

    Unbounded or gapped supports are classified immediately.  A measure
    with a family, c (x-A)^ea (B-x)^eb, is in class when c > 0, with the
    family's closed-form ``szego_integral()``.  Otherwise the
    integral is evaluated on shrinking endpoint exclusions
    delta_k = 10^-k (B-A), k = 2..6; the verdict is in_class when the
    increments between consecutive exclusions decay (geometric ratio < 0.95),
    which distinguishes an integrable log singularity from divergence.
    """
    if not J.bounded:
        return SzegoVerdict(False, "unbounded")
    if not J.gapless:
        return SzegoVerdict(False, "gapped")
    m = measure_from_sd(J, q)
    if m.family is not None:
        return _family_verdict(m.family)
    a, b = m.hull
    span = b - a

    def integrand(x):
        w = np.maximum(np.asarray(m.weight(x), float), 1e-300)
        return np.log(w) / np.sqrt((b - x) * (x - a))

    rel_tol = 1e-11
    values = []
    for k in range(2, 7):
        delta = 10.0 ** (-k) * span
        val, ok = quadrature.integrate(integrand, a + delta, b - delta,
                                       rel_tol=rel_tol)
        if not ok:
            _log.warning("szego_check: quadrature not converged on [%r, %r] "
                         "at rel_tol %g", a + delta, b - delta, rel_tol)
        values.append(val)
    inc = np.abs(np.diff(values))
    if np.all(inc < 1e-9 * (1.0 + abs(values[-1]))):
        return SzegoVerdict(True, integral=values[-1])
    ratios = inc[1:] / np.maximum(inc[:-1], 1e-300)
    if np.all(ratios < 0.95):
        return SzegoVerdict(True, integral=values[-1])
    return SzegoVerdict(False, "log_divergence", integral=values[-1])


def _family_verdict(fam: WeightFamily) -> SzegoVerdict:
    """szego_check for a bounded family, from its closed-form integral."""
    if not fam.c > 0:
        return SzegoVerdict(False, "log_divergence", integral=-math.inf)
    return SzegoVerdict(True, integral=fam.szego_integral())


def asymptotic_limits(J: SpectralDensity, q: float) -> tuple[float, float]:
    """(alpha_inf, beta_inf) of the chain coefficients for a Szego-class J."""
    verdict = szego_check(J, q)
    if not verdict.in_class:
        raise NotInSzegoClass(str(verdict))
    return _limits(J, q)


def _limits(J: SpectralDensity, q: float) -> tuple[float, float]:
    kernel = mapping_kernel(q)
    lo, hi = J.hull
    g_lo, g_hi = kernel.G(lo), kernel.G(hi)
    return 0.5 * (g_hi + g_lo), (g_hi - g_lo) ** 2 / 16.0


def terminal_sd(J: SpectralDensity, q: int) -> SpectralDensity:
    """Weak limit of the residual sequence: Wigner semicircle (particle)
    or the Rubin-model density (phonon), on the support of J."""
    if q not in (0, 1):
        raise UnsupportedMapping("terminal densities exist for q in {0, 1}")
    verdict = szego_check(J, q)
    if not verdict.in_class:
        raise NotInSzegoClass(str(verdict))
    return _terminal(J, q)


def _terminal(J: SpectralDensity, q: int) -> SpectralDensity:
    """terminal_sd without the Szego check, for callers that made it."""
    lo, hi = J.hull
    if q == 0:
        fam = SemicircleWeight(0.5, lo, hi)
        return SpectralDensity(fam.weight, ((lo, hi),), ((0.5, 0.5),),
                               m0_family=SemicircleWeight(0.5 / math.pi, lo, hi))

    def rubin(w):
        w = np.asarray(w, float)
        rad = (w * w - lo * lo) * (hi * hi - w * w)
        return 0.5 * np.sqrt(np.maximum(rad, 0.0))

    left_exp = 1.0 if lo == 0.0 else 0.5
    return SpectralDensity(rubin, ((lo, hi),), ((left_exp, 0.5),),
                           m1_family=SemicircleWeight(0.5 / math.pi,
                                                      lo * lo, hi * hi))


@dataclass(frozen=True)
class ConvergenceReport:
    """Coefficient limits, deviations, and weak-convergence moment gaps.

    chain is the job's one chain mapping (alpha_n, beta_n and the site
    energies); residual is the evaluator of J_0..J_residual_orders built
    for the report, or None where no residual densities exist (0 < q < 1,
    a gapped J, or no orders asked for).  alpha_deviation[n] =
    |alpha_n - alpha_inf| (n = 0..); beta_deviation[n] starts at n = 1
    (beta_0 carries the mass, not chain structure).
    terminal_moment_gap[n] holds |C_k(J_n) - C_k(J_T)| for k = 0..8 over
    the computed residual orders n = 1...  hopping_ratio is the observable
    alpha_n / sqrt(beta_{n+1}), reported for every input without any claim
    attached (it appears to settle even off the Szego class).
    """

    szego: SzegoVerdict
    q: float
    chain: ChainCoefficients
    residual: ResidualDensity | None = None
    alpha_limit: float | None = None
    beta_limit: float | None = None
    alpha_deviation: np.ndarray = field(default_factory=lambda: np.empty(0))
    beta_deviation: np.ndarray = field(default_factory=lambda: np.empty(0))
    terminal_moment_gap: dict[int, np.ndarray] = field(default_factory=dict)
    hopping_ratio: np.ndarray = field(default_factory=lambda: np.empty(0))

    def gap_aggregate(self, k_max: int = 4) -> np.ndarray:
        """max_k |C_k(J_n) - C_k(J_T)| per order n, the monotone summary."""
        orders = sorted(self.terminal_moment_gap)
        return np.array([self.terminal_moment_gap[n][:k_max + 1].max()
                         for n in orders])


def _density_moments(densities, lo: float, hi: float, k_max: int) -> np.ndarray:
    """int x**k f(x) dx over [lo, hi] for each density f and k = 0..k_max,
    shape (len(densities), k_max + 1).  One vector ``integrate`` call: every
    density is evaluated once per node, and each moment stops at the level
    where it would have stopped alone."""
    def integrand(x):
        rows = np.array([np.asarray(f(x), float) for f in densities])
        powers = np.array([x**k for k in range(k_max + 1)])
        return rows[:, None, :] * powers

    rel_tol = 1e-11
    vals, ok = quadrature.integrate(integrand, lo, hi, rel_tol=rel_tol)
    if not ok:
        _log.warning("convergence_report: moment quadrature not converged on "
                     "[%r, %r] at rel_tol %g", lo, hi, rel_tol)
    return vals


def convergence_report(J: SpectralDensity, q: float, n: int,
                       residual_orders: int = 4) -> ConvergenceReport:
    """Assemble the chain, residual densities, Szego verdict, limits and
    moment gaps of one J: the one place a job builds its chain and its
    residual density.

    The chain (n sites) is built first, so a J whose chain mapping raises
    does so before any Szego warning is logged.  The residual density
    evaluator of J_1..J_residual_orders is built for q in {0, 1} whenever
    residual_orders >= 1 and J is gapless, in class or not, so callers can
    sample it.  Moment gaps compare int w^k J_m(w) dw, k = 0..8, with the
    terminal density's moments for m = 1..min(residual_orders, 6); they
    are only computed on Szego-class inputs (elsewhere there is no
    terminal density to compare against).  All orders and moments share
    one node set: a single vector quadrature evaluates the terminal
    density and every J_m once per node, so the weight, the reducer and
    the P and Q tables are evaluated once per node set.
    """
    chain = chain_coefficients(J, q, n)
    rd = (ResidualDensity.build(J, int(q), residual_orders)
          if q in (0.0, 1.0) and residual_orders >= 1 and J.gapless else None)
    verdict = szego_check(J, q)
    if not verdict.in_class:
        return ConvergenceReport(szego=verdict, q=q, chain=chain, residual=rd,
                                 hopping_ratio=chain.alpha / chain.E4)

    a_inf, b_inf = _limits(J, q)
    gaps: dict[int, np.ndarray] = {}
    if rd is not None:
        orders = min(residual_orders, 6)
        jt = _terminal(J, int(q))
        glo, ghi = rd.clipped_range()
        densities = [jt] + [lambda w, m=m: rd(m, w) for m in range(1, orders + 1)]
        c = _density_moments(densities, glo, ghi, _MOMENT_ORDER)
        gaps = {m: np.abs(c[m] - c[0]) for m in range(1, orders + 1)}
    return ConvergenceReport(
        szego=verdict, q=q, chain=chain, residual=rd,
        alpha_limit=a_inf, beta_limit=b_inf,
        alpha_deviation=np.abs(chain.alpha - a_inf),
        beta_deviation=np.abs(chain.beta[1:] - b_inf),
        terminal_moment_gap=gaps,
        hopping_ratio=chain.alpha / chain.E4,
    )
