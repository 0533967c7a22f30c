"""Spectral densities and measures.

The physical input is a bath spectral density J(w) >= 0 on a union of
closed frequency intervals.  The mathematical workhorse is a positive
measure d-mu(x) = weight(x) dx on its own union of intervals.  Everything
downstream (recurrence
coefficients, Stieltjes transforms, secondary sequences, chain mappings)
consumes the Measure type defined here.

Weight callables must be vectorized over numpy arrays and must tolerate
evaluation at the support endpoints (clip/return 0 rather than raise).

Only the last support interval may be unbounded (the exponential cutoff),
and then only with a ``TailBound``.  Such a support is cut in one place,
``truncated_hull`` (of a Measure and of a SpectralDensity alike), where
``TailBound.cutoff`` certifies the discarded tail: every quadrature,
discretization, guard span and sample window over it reads that cut.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from . import quadrature
from .errors import (
    DivergentMoment,
    DomainError,
    InversionFailure,
    NonMonotoneDispersion,
)

__all__ = [
    "TailBound",
    "PowerLawWeight",
    "PowerLawExpWeight",
    "SemicircleWeight",
    "UniformWeight",
    "Measure",
    "SpectralDensity",
    "power_law_sd",
    "power_law_exp_sd",
    "tabulated_sd",
    "piecewise_uniform_sd",
    "custom_sd",
    "sd_from_dispersion",
    "power_law_measure",
    "power_law_exp_measure",
]

Intervals = tuple[tuple[float, float], ...]


@dataclass(frozen=True)
class TailBound:
    """Certified decay of a weight on an unbounded interval.

    weight(x) <= C * x**power * exp(-rate * x**stretch) for large x and
    some constant C.  ``cutoff`` picks the quadrature truncation point with
    the discarded tail below 1e-16 of the bound's peak.
    """

    rate: float
    power: float = 0.0
    stretch: float = 1.0

    @property
    def unit(self) -> float:
        """rate ** (-1 / stretch), the x at which rate * x**stretch = 1: the
        bound's own unit of length (omega_c for the exponential cutoff at
        q = 0, omega_c**2 at q = 1).  Raises OverflowError where it
        overflows; ``cutoff`` raises DivergentMoment there."""
        return float(self.rate) ** (-1.0 / self.stretch)

    def cutoff(self, poly_degree: int = 0) -> float:
        """Truncation point T for moments of degree poly_degree.

        Found in y = x / unit, where the bound reads
        y**power * exp(-y**stretch) up to a constant, so T follows the bound
        at any scale.  At T the bound times x**poly_degree is below 1e-16 of
        its peak (the peak taken at y >= 1); with double-exponential decay
        of the quadrature this certifies the discarded tail against the
        running total.  Y starts at 2 * peak + 1 and doubles until it gets
        there, which it does since the bound decays.  Y is floored at
        (3 poly_degree) ** (1 / stretch), so T at
        (3 poly_degree / rate) ** (1 / stretch), past the 4N / rate to which
        the largest zero of a degree-N Laguerre polynomial grows
        (poly_degree = 2N, stretch 1).  T = unit * max(Y, floor).

        A bound that does not decay raises ValueError; a unit, peak, T or
        floor that overflows raises DivergentMoment.
        """
        rate, power, stretch = self.rate, self.power + poly_degree, self.stretch
        if rate <= 0 or stretch <= 0:
            raise ValueError("tail bound must decay")

        def logbound(y):
            return power * np.log(y) - y**stretch

        try:
            unit = self.unit
            peak = max((max(power, 0.0) / stretch) ** (1.0 / stretch), 1.0)
            y = peak * 2 + 1.0
            if not math.isinf(y):
                target = logbound(peak) + np.log(1e-16)
                while not math.isinf(y) and logbound(y) > target:
                    y *= 2.0
        except OverflowError:  # the unit, the peak, or y**stretch at a Y below inf
            y = math.inf
        if not math.isinf(y):
            with np.errstate(over="ignore"):
                floor = float(np.float64(3.0 * poly_degree) ** (1.0 / stretch))
            if math.isinf(unit * floor):
                raise DivergentMoment(f"tail cutoff floor (3 * {poly_degree} / {rate})"
                                      f" ** (1 / {stretch}) overflows")
            y = max(y, floor)
        if math.isinf(y) or math.isinf(unit * y):
            raise DivergentMoment("tail cutoff overflows: the bound "
                                  f"x**{power} * exp(-{rate} * x**{stretch}) "
                                  "decays too slowly")
        return unit * y


# ---------------------------------------------------------------------------
# Analytic weight families: power law (shifted Jacobi), power law times an
# exponential cutoff (Laguerre), semicircle (second-kind Chebyshev) and flat
# (shifted Legendre).  Each knows its own recurrence coefficients and, when a
# closed form exists, its reducer; the bounded ones also know their Szego
# integral.  The power law also knows its derivative, which the Lipschitz
# reducer reads where it has no closed-form reducer (non-half-integer s), and
# the exponential cutoff its log weight, from which the generic route forms
# sqrt(w) where w itself underflows.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PowerLawWeight:
    """c * x**s on [0, cut] (shifted Jacobi family)."""

    c: float
    s: float
    cut: float

    def weight(self, x):
        x = np.asarray(x, float)
        with np.errstate(invalid="ignore", divide="ignore"):
            out = self.c * np.where(x > 0, x, 1.0) ** self.s
        return np.where(x > 0, out, 0.0 if self.s != 0 else self.c)

    def derivative(self, x):
        x = np.asarray(x, float)
        return self.c * self.s * np.where(x > 0, x, 1.0) ** (self.s - 1.0) * (x > 0)

    def recurrence(self, n: int):
        s, cut = self.s, self.cut
        ns = np.arange(n, dtype=float)
        with np.errstate(invalid="ignore", divide="ignore"):
            corr = s * s / ((s + 2 * ns) * (2 + s + 2 * ns))
        if s == 0.0:
            corr = np.zeros(n)
        alpha = 0.5 * cut * (1.0 + corr)
        m = ns[:-1] if n > 1 else np.array([])
        sq = ((1 + m) * (1 + s + m) / ((s + 2 + 2 * m) * (3 + s + 2 * m))
              * np.sqrt((3 + s + 2 * m) / (1 + s + 2 * m)))
        beta = np.empty(n)
        beta[0] = self.c * cut ** (s + 1) / (s + 1)
        beta[1:] = cut * cut * sq * sq
        return alpha, beta

    def reducer(self, x):
        if abs(2 * self.s - round(2 * self.s)) > 1e-12 or self.s < 0:
            return None
        y = np.asarray(x, float) / self.cut
        return 2.0 * self.c * self.cut**self.s * _power_law_pv(y, self.s)

    def szego_integral(self) -> float:
        """int_0^cut ln w(x) dx / sqrt(x (cut - x)) = pi (ln c + s ln(cut/4)),
        for c > 0.  With x = cut sin^2(theta/2) the integral is
        int_0^pi ln w dtheta, and int_0^pi ln(cut sin^2(theta/2)) dtheta =
        pi ln(cut/4)."""
        return math.pi * (math.log(self.c) + self.s * math.log(self.cut / 4.0))


def _power_law_pv(y, s):
    """PV integral of u**s/(y-u) over [0,1], for 2s a nonnegative integer."""
    y = np.asarray(y, float)
    if round(2 * s) % 2 == 0:
        val = np.log(y / (1.0 - y))
        cur = 0.0
    else:
        r = np.sqrt(y)
        val = 2.0 * np.arctanh(r) / r
        cur = -0.5
    while cur < s - 0.25:
        cur += 1.0
        val = -1.0 / cur + y * val
    return val


@dataclass(frozen=True)
class PowerLawExpWeight:
    """c * x**s * exp(-x/scale) on [0, inf) (Laguerre family)."""

    c: float
    s: float
    scale: float

    def weight(self, x):
        x = np.asarray(x, float)
        with np.errstate(invalid="ignore", divide="ignore"):
            out = self.c * np.where(x > 0, x, 1.0) ** self.s * np.exp(-x / self.scale)
        return np.where(x > 0, out, 0.0 if self.s != 0 else self.c)

    def log_weight(self, x):
        """ln weight: ln c + s ln x - x/scale, -inf at x <= 0 exactly where
        the weight is 0."""
        x = np.asarray(x, float)
        out = math.log(self.c) + self.s * np.log(np.where(x > 0, x, 1.0)) - x / self.scale
        return np.where(x > 0, out, -np.inf if self.s != 0 else math.log(self.c))

    def recurrence(self, n: int):
        s, sc = self.s, self.scale
        ns = np.arange(n, dtype=float)
        alpha = sc * (2 * ns + 1 + s)
        beta = np.empty(n)
        beta[0] = self.c * sc ** (s + 1) * math.gamma(s + 1)
        m = ns[1:]
        beta[1:] = sc * sc * m * (m + s)
        return alpha, beta

    def reducer(self, x):
        if self.s < 0 or abs(self.s - round(self.s)) > 1e-12:
            return None
        # Imported on first use: a chaincast run that needs no scipy routine
        # starts with numpy alone.
        from scipy.special import expi

        s = int(round(self.s))
        y = np.asarray(x, float) / self.scale
        acc = y**s * np.exp(-y) * expi(y)
        for k in range(s):
            acc = acc - math.factorial(s - 1 - k) * y**k
        return 2.0 * self.c * self.scale**s * acc

    def tail(self) -> TailBound:
        return TailBound(rate=1.0 / self.scale, power=self.s)


@dataclass(frozen=True)
class SemicircleWeight:
    """c * sqrt((x-a)(b-x)) on [a, b] (second-kind Chebyshev family)."""

    c: float
    a: float
    b: float

    def weight(self, x):
        x = np.asarray(x, float)
        return self.c * np.sqrt(np.maximum((x - self.a) * (self.b - x), 0.0))

    def recurrence(self, n: int):
        alpha = np.full(n, 0.5 * (self.a + self.b))
        beta = np.full(n, (self.b - self.a) ** 2 / 16.0)
        beta[0] = self.mass()
        return alpha, beta

    def mass(self) -> float:
        return self.c * math.pi * (self.b - self.a) ** 2 / 8.0

    def reducer(self, x):
        return 2.0 * math.pi * self.c * (np.asarray(x, float) - 0.5 * (self.a + self.b))

    def szego_integral(self) -> float:
        """int_a^b ln w(x) dx / sqrt((x - a)(b - x)) = pi (ln c + ln((b-a)/4)),
        for c > 0.  With x - a = (b - a) sin^2(theta/2) the integral is
        int_0^pi ln w dtheta; ln w = ln c + (ln(x - a) + ln(b - x)) / 2, and
        each endpoint factor gives int_0^pi ln((b-a) sin^2(theta/2)) dtheta =
        pi ln((b-a)/4)."""
        return math.pi * (math.log(self.c) + math.log((self.b - self.a) / 4.0))


@dataclass(frozen=True)
class UniformWeight:
    """c on [a, b] (shifted Legendre family)."""

    c: float
    a: float
    b: float

    def weight(self, x):
        x = np.asarray(x, float)
        return np.where((x >= self.a) & (x <= self.b), self.c, 0.0)

    def recurrence(self, n: int):
        k = np.arange(n, dtype=float)
        alpha = np.full(n, 0.5 * (self.a + self.b))
        beta = (self.b - self.a) ** 2 * k * k / (4.0 * (4.0 * k * k - 1.0))
        beta[0] = self.c * (self.b - self.a)
        return alpha, beta

    def reducer(self, x):
        # The Lipschitz route's log term in the same operations: its
        # difference quotients all vanish on a flat weight, so the two
        # agree bit for bit.
        x = np.asarray(x, float)
        return 2.0 * self.c * np.log((x - self.a) / (self.b - x))

    def szego_integral(self) -> float:
        """int_a^b ln c dx / sqrt((x - a)(b - x)) = pi ln c, for c > 0."""
        return math.pi * math.log(self.c)


WeightFamily = PowerLawWeight | PowerLawExpWeight | SemicircleWeight | UniformWeight


# ---------------------------------------------------------------------------
# Measure
# ---------------------------------------------------------------------------

def _check_intervals(support: Intervals) -> Intervals:
    support = tuple((float(lo), float(hi)) for lo, hi in support)
    if not support:
        raise DomainError("measure needs at least one support interval")
    for lo, hi in support:
        if not hi > lo:
            raise DomainError(f"empty support interval [{lo}, {hi}]")
    for (_, hi), (lo2, _) in zip(support, support[1:]):
        if not lo2 > hi:
            raise DomainError("support intervals must be disjoint and sorted")
    if any(math.isinf(hi) for _, hi in support[:-1]):
        raise DomainError("only the last interval may be unbounded")
    return support


class _Supported:
    """Shape of a sorted tuple of support intervals, ``self.support``, and
    where its tail bound ``self.tail`` cuts an unbounded end."""

    @property
    def hull(self) -> tuple[float, float]:
        return self.support[0][0], self.support[-1][1]

    @property
    def gapless(self) -> bool:
        return len(self.support) == 1

    @property
    def bounded(self) -> bool:
        return math.isfinite(self.support[-1][1])

    def truncated_hull(self, poly_degree: int = 0) -> tuple[float, float]:
        """The hull, an infinite end cut for moments of degree poly_degree:
        at ``tail.cutoff(poly_degree)``, and at least one ``tail.unit`` past
        the start of the last interval.  The one place an unbounded support
        is cut; without a tail bound it raises DivergentMoment."""
        lo, hi = self.hull
        if math.isinf(hi):
            if self.tail is None:
                raise DivergentMoment(
                    "unbounded support without a tail bound: cannot certify "
                    f"moments of degree {poly_degree}")
            cut = self.tail.cutoff(poly_degree)  # raises where the unit overflows
            hi = max(self.support[-1][0] + self.tail.unit, cut)
        return lo, hi


@dataclass(frozen=True)
class Measure(_Supported):
    """Positive measure: weight function on support intervals.

    Parameters
    ----------
    weight : callable
        Vectorized density; evaluated only inside the support.
    support : tuple of (lo, hi)
        Disjoint, sorted closed intervals; the last may have hi = inf.
    tail : TailBound, optional
        Required for quadrature on unbounded support.
    family : analytic family descriptor, optional
        Enables closed-form recurrence coefficients / reducers; a power law
        also gives its derivative to the generic reducer routes.
    log_weight : callable, optional
        Vectorized ln weight, -inf where the weight is 0; the generic
        recurrence route then forms sqrt(w) from it, which stays
        representable where w underflows (``discretize``).

    The weight at the positions of each tanh-sinh level on the hull
    (``_columns``), the Lipschitz reducer's columns, is evaluated once and
    kept, read-only, as long as the measure lives; a measure built anew,
    even from the same weight, starts without it.
    """

    weight: Callable
    support: Intervals
    tail: TailBound | None = None
    family: WeightFamily | None = None
    log_weight: Callable | None = None
    # {(level, added): weight at map_nodes(level, *hull, added)}, read-only
    _column_weights: dict = field(default_factory=dict, init=False,
                                  repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "support", _check_intervals(self.support))

    # -- structure ---------------------------------------------------------

    @classmethod
    def from_family(cls, fam: WeightFamily) -> "Measure":
        if isinstance(fam, PowerLawWeight):
            return cls(fam.weight, ((0.0, fam.cut),), family=fam)
        if isinstance(fam, PowerLawExpWeight):
            return cls(fam.weight, ((0.0, math.inf),), tail=fam.tail(), family=fam,
                       log_weight=fam.log_weight)
        if isinstance(fam, (SemicircleWeight, UniformWeight)):
            return cls(fam.weight, ((fam.a, fam.b),), family=fam)
        raise DomainError(f"unknown family {fam!r}")

    def _columns(self, level: int, added: bool):
        """``quadrature.map_nodes(level, *hull, added=added)`` and the weight
        at its positions, ``(t, w, mu_t)``; mu_t is evaluated on the first
        call per ``(level, added)`` and shared, read-only, after it."""
        t, w = quadrature.map_nodes(level, *self.hull, added=added)
        mu_t = self._column_weights.get((level, added))
        if mu_t is None:
            mu_t = np.array(self.weight(t), float)
            mu_t.flags.writeable = False
            self._column_weights[(level, added)] = mu_t
        return t, w, mu_t

    # -- integration -------------------------------------------------------

    def _effective_intervals(self, poly_degree: int) -> Intervals:
        """The support, its last interval ending where ``truncated_hull``
        ends."""
        last = ((self.support[-1][0], self.truncated_hull(poly_degree)[1]),)
        return self.support[:-1] + last

    def integrate(self, f: Callable, poly_degree: int = 0) -> float:
        """Integral of f against the measure, to 1e-13 relative per support
        interval."""
        rel_tol = 1e-13
        total = 0.0
        ok_all = True
        for lo, hi in self._effective_intervals(poly_degree):
            val, ok = quadrature.integrate(
                lambda x: f(x) * self.weight(x), lo, hi, rel_tol=rel_tol)
            total += val
            ok_all = ok_all and ok
        if not ok_all:
            raise DivergentMoment("quadrature failed to converge at tolerance "
                                  f"{rel_tol} (degree {poly_degree})")
        return total

    def discretize(self, level: int, poly_degree: int = 0):
        """Dense quadrature discretization (x, w, log_w) of the measure;
        basis of the generic recurrence path.  On each support interval the
        positions are distinct and increasing, each with the summed weight
        of the tanh-sinh nodes that round onto it (``quadrature.map_nodes``).

        With a log weight, log_w is ln w, the log of the node weight plus
        the log weight, and w is its exp: w underflows to 0 where log_w,
        and so sqrt(w), is still representable.  Without one, log_w is None.
        """
        xs, ws = [], []
        for lo, hi in self._effective_intervals(poly_degree):
            x, w = quadrature.map_nodes(level, lo, hi)
            xs.append(x)
            if self.log_weight is None:
                ws.append(w * self.weight(x))
            else:
                with np.errstate(divide="ignore"):  # a node weight may underflow
                    ws.append(np.log(w) + self.log_weight(x))
        x, w = np.concatenate(xs), np.concatenate(ws)
        return (x, w, None) if self.log_weight is None else (x, np.exp(w), w)


def scale_mass(m: Measure, factor: float) -> Measure:
    """Multiply the weight by a positive constant."""
    if not factor > 0:
        raise DomainError("mass factor must be positive")
    old_w, old_log_w = m.weight, m.log_weight
    return Measure(
        weight=lambda x: factor * old_w(x),
        support=m.support,
        tail=m.tail,
        family=(replace(m.family, c=m.family.c * factor)
                if m.family is not None else None),
        log_weight=(None if old_log_w is None
                    else lambda x: old_log_w(x) + math.log(factor)),
    )


def power_law_measure(c: float, s: float, cut: float = 1.0) -> Measure:
    return Measure.from_family(PowerLawWeight(c, s, cut))


def power_law_exp_measure(c: float, s: float, scale: float = 1.0) -> Measure:
    return Measure.from_family(PowerLawExpWeight(c, s, scale))


# ---------------------------------------------------------------------------
# Spectral densities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectralDensity(_Supported):
    """Bath spectral density J(w): nonnegative on its support, 0 outside.

    m0_family / m1_family, when present, are the analytic weight families
    of J(x)/pi and J(sqrt(x))/pi; the chain mapping uses them to keep
    closed-form recurrence coefficients and reducers available after the
    measure transformation.  The power-law constructors and a one-piece
    ``piecewise_uniform_sd`` (UniformWeight) set them; at 0 < q < 1, and
    for any J without them, the generic routes run.
    """

    evaluator: Callable
    support: Intervals
    endpoint_exponents: tuple[tuple[float, float], ...] = ()
    tail: TailBound | None = None
    m0_family: WeightFamily | None = None
    m1_family: WeightFamily | None = None

    def __post_init__(self):
        object.__setattr__(self, "support", _check_intervals(self.support))
        if self.support[0][0] < 0:
            raise DomainError("spectral density support must satisfy w_min >= 0")
        if not self.endpoint_exponents:
            object.__setattr__(self, "endpoint_exponents",
                               tuple((0.0, 0.0) for _ in self.support))

    def __call__(self, omega):
        omega = np.asarray(omega, float)
        inside = np.zeros(omega.shape, bool)
        for lo, hi in self.support:
            inside |= (omega >= lo) & (omega <= hi)
        vals = np.where(inside, self.evaluator(omega), 0.0)
        return vals if vals.ndim else float(vals)


def _power_law_constants(s: float, alpha: float, omega_c: float) -> list[float]:
    """The checked constants 2*pi*alpha*omega_c**(1-s) (J's prefactor),
    2*alpha*omega_c**(1-s) (J/pi's) and omega_c**2 (the q = 1 support end,
    and the scale of beta_n for n >= 1).  Raises DomainError unless s > -1
    and alpha, omega_c and every constant are finite normal floats (at least
    sys.float_info.min): a constant that overflows or underflows is rejected
    here, not met later as a subnormal or zero mass."""
    if not s > -1:
        raise DomainError("power law exponent must satisfy s > -1")
    if not alpha > 0:
        raise DomainError("coupling strength alpha must be positive")
    if not omega_c > 0:
        raise DomainError("cutoff omega_c must be positive")
    try:
        scale = omega_c ** (1 - s)
        consts = [2.0 * math.pi * alpha * scale, 2.0 * alpha * scale, omega_c**2]
    except OverflowError:
        consts = [math.inf]
    got = f"got s={s!r}, alpha={alpha!r}, omega_c={omega_c!r}"
    if not all(map(math.isfinite, [s, alpha, omega_c, *consts])):
        raise DomainError(f"power law parameters and constants must be finite, {got}")
    names = ("alpha", "omega_c", "2*pi*alpha*omega_c**(1-s)",
             "2*alpha*omega_c**(1-s)", "omega_c**2")
    for name, value in zip(names, [alpha, omega_c, *consts]):
        if value < sys.float_info.min:
            raise DomainError(f"power law {name} = {value!r} is below the "
                              f"smallest normal float, {got}")
    return consts


def _normal_mass(fam: WeightFamily) -> WeightFamily:
    """fam, once its mass beta_0 is a finite normal float."""
    try:
        mass = fam.recurrence(1)[1][0]
    except OverflowError:
        mass = math.inf
    if not sys.float_info.min <= mass < math.inf:
        raise DomainError(f"power law chain measure mass beta_0 = {float(mass)!r} "
                          f"is not a finite normal float, for {fam!r}")
    return fam


def power_law_sd(s: float, alpha: float, omega_c: float = 1.0) -> SpectralDensity:
    """J(w) = 2*pi*alpha*omega_c**(1-s) * w**s on [0, omega_c].

    Needs s > -1, and alpha, omega_c, 2*pi*alpha*omega_c**(1-s),
    2*alpha*omega_c**(1-s), omega_c**2 and the masses of the chain measures
    finite normal floats; otherwise raises DomainError.
    """
    prefactor, coeff, cut_sq = _power_law_constants(s, alpha, omega_c)
    fam = PowerLawWeight(prefactor, s, omega_c)
    return SpectralDensity(fam.weight, ((0.0, omega_c),), ((s, 0.0),),
                           m0_family=_normal_mass(PowerLawWeight(coeff, s, omega_c)),
                           m1_family=_normal_mass(PowerLawWeight(coeff, s / 2.0, cut_sq)))


def power_law_exp_sd(s: float, alpha: float, omega_c: float = 1.0) -> SpectralDensity:
    """J(w) = 2*pi*alpha*omega_c**(1-s) * w**s * exp(-w/omega_c) on [0, inf).

    Needs what ``power_law_sd`` needs; otherwise raises DomainError.
    """
    prefactor, coeff, _ = _power_law_constants(s, alpha, omega_c)
    fam = PowerLawExpWeight(prefactor, s, omega_c)
    return SpectralDensity(fam.weight, ((0.0, math.inf),), ((s, 0.0),),
                           tail=fam.tail(),
                           m0_family=_normal_mass(PowerLawExpWeight(coeff, s, omega_c)))


def _check_normal(what: str, values) -> None:
    """Raise DomainError on the first value that is not finite, or nonzero
    but below the smallest normal float: a subnormal J has a chain measure
    whose mass and coefficients do not fit in a double, and a nan or inf
    one gives a chain of nan or inf.  Zero stays legal."""
    values = np.asarray(values, float)
    bad = values[~np.isfinite(values)]
    if len(bad):
        raise DomainError(f"{what} {float(bad[0])!r} is not finite")
    tiny = values[(values > 0.0) & (values < sys.float_info.min)]
    if len(tiny):
        raise DomainError(f"{what} {float(tiny[0])!r} is nonzero but below the "
                          f"smallest normal float, {sys.float_info.min!r}")


def tabulated_sd(omega: Sequence[float], values: Sequence[float]) -> SpectralDensity:
    """Linear interpolant through (omega, J) samples; support is their range.

    Samples must be nonnegative, and each nonzero one a normal float
    (at least sys.float_info.min); otherwise raises DomainError."""
    omega = np.asarray(omega, float)
    values = np.asarray(values, float)
    if omega.ndim != 1 or omega.shape != values.shape or len(omega) < 2:
        raise DomainError("tabulated samples need matching 1-d arrays, >= 2 points")
    if not np.all(np.diff(omega) > 0):
        raise DomainError("tabulated frequencies must be strictly increasing")
    if np.any(values < 0):
        raise DomainError("tabulated spectral density must be nonnegative")
    if not np.isfinite(omega[-1]):  # increasing, so only the last can be +inf
        raise DomainError(f"tabulated frequency {float(omega[-1])!r} is not finite")
    _check_normal("tabulated sample", values)
    return SpectralDensity(
        lambda w: np.interp(np.asarray(w, float), omega, values),
        ((float(omega[0]), float(omega[-1])),))


def piecewise_uniform_sd(pieces: Sequence[tuple[float, float, float]]) -> SpectralDensity:
    """Piecewise-constant J: heights on disjoint intervals (possibly gapped).

    A single piece h on [lo, hi] is a flat J: its chain measures are the
    constant h/pi on [lo, hi] (q = 0) and on [lo**2, hi**2] (q = 1), so it
    carries UniformWeight families there.  Heights must be nonnegative,
    and each nonzero one a normal float (at least sys.float_info.min);
    otherwise raises DomainError.
    """
    pieces = sorted((float(lo), float(hi), float(h)) for lo, hi, h in pieces)
    for piece in pieces:
        if not all(map(math.isfinite, piece[:2])):
            raise DomainError(f"piecewise piece {piece} has an end that is not finite")
    if any(h < 0 for _, _, h in pieces):
        raise DomainError("piecewise heights must be nonnegative")
    _check_normal("piecewise height", [h for _, _, h in pieces])
    support = tuple((lo, hi) for lo, hi, _ in pieces)

    def evaluator(w):
        w = np.asarray(w, float)
        out = np.zeros_like(w)
        for lo, hi, h in pieces:
            out = np.where((w >= lo) & (w <= hi), h, out)
        return out

    if len(pieces) != 1:
        return SpectralDensity(evaluator, support)
    (lo, hi, h), = pieces
    return SpectralDensity(evaluator, support,
                           m0_family=UniformWeight(h / math.pi, lo, hi),
                           m1_family=UniformWeight(h / math.pi, lo * lo, hi * hi))


def custom_sd(evaluator: Callable, support: Intervals,
              endpoint_exponents=(), tail: TailBound | None = None) -> SpectralDensity:
    return SpectralDensity(evaluator, tuple(support), tuple(endpoint_exponents),
                           tail=tail)


def sd_from_dispersion(g: Callable, h: Callable, k_min: float,
                       k_max: float) -> SpectralDensity:
    """Spectral density J(w) = pi * h(g^-1(w))**2 * |d g^-1(w)/dw|, with g
    inverted by bracketed root finding per evaluation.

    Parameters
    ----------
    g : callable
        Dispersion relation; must be strictly monotone on [k_min, k_max]
        (verified on a grid of 513 samples).
    h : callable
        Real coupling amplitude, square integrable on [k_min, k_max].
    """
    ks = np.linspace(k_min, k_max, 513)
    gs = np.array([float(g(k)) for k in ks])
    diffs = np.diff(gs)
    if np.all(diffs > 0):
        increasing = True
    elif np.all(diffs < 0):
        increasing = False
    else:
        raise NonMonotoneDispersion("g changes direction on the sample grid")
    w_lo, w_hi = (gs[0], gs[-1]) if increasing else (gs[-1], gs[0])

    def invert_one(w: float) -> float:
        f = lambda k: float(g(k)) - w
        f_lo, f_hi = f(k_min), f(k_max)
        if f_lo == 0.0:
            return k_min
        if f_hi == 0.0:
            return k_max
        if f_lo * f_hi > 0:
            raise InversionFailure(f"no bracket for g(k) = {w}")
        # Imported on first use: a chaincast run that needs no scipy routine
        # starts with numpy alone.
        from scipy.optimize import brentq

        return brentq(f, k_min, k_max, xtol=1e-15, rtol=8.9e-16)

    dk = (k_max - k_min) * 1e-7

    def gprime(k: float) -> float:
        lo = max(k - dk, k_min)
        hi = min(k + dk, k_max)
        return (float(g(hi)) - float(g(lo))) / (hi - lo)

    def evaluator_scalar(w: float) -> float:
        w = min(max(w, w_lo), w_hi)
        k = invert_one(w)
        return math.pi * float(h(k)) ** 2 / abs(gprime(k))

    evaluator = np.vectorize(evaluator_scalar, otypes=[float])
    return SpectralDensity(evaluator, ((w_lo, w_hi),))
