"""Spectral densities, measures and moments.

The physical input is a bath spectral density J(w) >= 0 on a union of
closed frequency intervals.  The mathematical workhorse is a positive
measure d-mu(x) = weight(x) dx on its own union of intervals, optionally
with finitely many point masses.  Everything downstream (recurrence
coefficients, Stieltjes transforms, secondary sequences, chain mappings)
consumes the Measure type defined here.

Weight callables must be vectorized over numpy arrays and must tolerate
evaluation at the support endpoints (clip/return 0 rather than raise).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import quadrature
from .errors import (
    DivergentMoment,
    DomainError,
    InversionFailure,
    NonMonotoneDispersion,
    ZeroMass,
)

__all__ = [
    "TailBound",
    "PointMass",
    "PowerLawWeight",
    "PowerLawExpWeight",
    "SemicircleWeight",
    "Measure",
    "MomentSequence",
    "SpectralDensity",
    "power_law_sd",
    "power_law_exp_sd",
    "tabulated_sd",
    "piecewise_uniform_sd",
    "custom_sd",
    "sd_from_dispersion",
    "moments",
    "rescale",
    "normalize",
    "semicircle_measure",
    "power_law_measure",
    "power_law_exp_measure",
]

Intervals = tuple[tuple[float, float], ...]


@dataclass(frozen=True)
class TailBound:
    """Certified decay of a weight on an unbounded interval.

    weight(x) <= C * x**power * exp(-rate * x**stretch) for large x and
    some constant C.  Used to pick quadrature truncation points with the
    discarded tail below 1e-16 of the bound's peak.
    """

    rate: float
    power: float = 0.0
    stretch: float = 1.0

    def cutoff(self, poly_degree: int = 0) -> float:
        return quadrature.tail_cutoff(self.rate, self.power + poly_degree, self.stretch)


@dataclass(frozen=True)
class PointMass:
    location: float
    mass: float


# ---------------------------------------------------------------------------
# Analytic weight families.  Each knows its own recurrence coefficients and,
# when a closed form exists, its reducer; the generic numerical paths never
# consult these.
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

    def rescaled(self, lam: float) -> "PowerLawWeight":
        return PowerLawWeight(self.c / lam ** (self.s + 1), self.s, self.cut * lam)

    def scaled(self, factor: float) -> "PowerLawWeight":
        return PowerLawWeight(self.c * factor, self.s, self.cut)


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

    def derivative(self, x):
        x = np.asarray(x, float)
        xs = np.where(x > 0, x, 1.0)
        out = self.c * np.exp(-x / self.scale) * (
            self.s * xs ** (self.s - 1.0) - xs**self.s / self.scale)
        return np.where(x > 0, out, 0.0)

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

    def rescaled(self, lam: float) -> "PowerLawExpWeight":
        return PowerLawExpWeight(self.c / lam ** (self.s + 1), self.s, self.scale * lam)

    def scaled(self, factor: float) -> "PowerLawExpWeight":
        return PowerLawExpWeight(self.c * factor, self.s, self.scale)

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

    def derivative(self, x):
        x = np.asarray(x, float)
        rad = np.maximum((x - self.a) * (self.b - x), 1e-300)
        return self.c * (self.a + self.b - 2 * x) / (2 * np.sqrt(rad))

    def recurrence(self, n: int):
        alpha = np.full(n, 0.5 * (self.a + self.b))
        beta = np.full(n, (self.b - self.a) ** 2 / 16.0)
        beta[0] = self.mass()
        return alpha, beta

    def mass(self) -> float:
        return self.c * math.pi * (self.b - self.a) ** 2 / 8.0

    def reducer(self, x):
        return 2.0 * math.pi * self.c * (np.asarray(x, float) - 0.5 * (self.a + self.b))

    def rescaled(self, lam: float) -> "SemicircleWeight":
        return SemicircleWeight(self.c / lam**2, self.a * lam, self.b * lam)

    def scaled(self, factor: float) -> "SemicircleWeight":
        return SemicircleWeight(self.c * factor, self.a, self.b)


WeightFamily = PowerLawWeight | PowerLawExpWeight | SemicircleWeight


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
    """Shape of a sorted tuple of support intervals, ``self.support``."""

    @property
    def hull(self) -> tuple[float, float]:
        return self.support[0][0], self.support[-1][1]

    @property
    def gapless(self) -> bool:
        # Classified by the continuous part only; point masses are ignored.
        return len(self.support) == 1

    @property
    def bounded(self) -> bool:
        return math.isfinite(self.support[-1][1])


@dataclass(frozen=True)
class Measure(_Supported):
    """Positive measure: weight function on support intervals + point masses.

    Parameters
    ----------
    weight : callable
        Vectorized density; evaluated only inside the support.
    support : tuple of (lo, hi)
        Disjoint, sorted closed intervals; the last may have hi = inf.
    tail : TailBound, optional
        Required for quadrature on unbounded support.
    point_masses : tuple of PointMass
        Finitely many atoms added to every integral.
    family : analytic family descriptor, optional
        Enables closed-form recurrence coefficients / reducers, and gives
        the weight's derivative to the generic reducer routes.
    """

    weight: Callable
    support: Intervals
    tail: TailBound | None = None
    point_masses: tuple[PointMass, ...] = ()
    family: WeightFamily | None = None

    def __post_init__(self):
        object.__setattr__(self, "support", _check_intervals(self.support))

    # -- structure ---------------------------------------------------------

    @property
    def span(self) -> float:
        a, b = self.hull
        if math.isinf(b):
            return self.tail.cutoff(0) - a if self.tail else math.inf
        return b - a

    @classmethod
    def from_family(cls, fam: WeightFamily) -> "Measure":
        if isinstance(fam, PowerLawWeight):
            return cls(fam.weight, ((0.0, fam.cut),), family=fam)
        if isinstance(fam, PowerLawExpWeight):
            return cls(fam.weight, ((0.0, math.inf),), tail=fam.tail(), family=fam)
        if isinstance(fam, SemicircleWeight):
            return cls(fam.weight, ((fam.a, fam.b),), family=fam)
        raise DomainError(f"unknown family {fam!r}")

    # -- integration -------------------------------------------------------

    def _effective_intervals(self, poly_degree: int) -> Intervals:
        out = []
        for lo, hi in self.support:
            if math.isinf(hi):
                if self.tail is None:
                    raise DivergentMoment(
                        "unbounded support without a tail bound: cannot certify "
                        f"moments of degree {poly_degree}")
                hi = max(lo + 1.0, self.tail.cutoff(poly_degree))
            out.append((lo, hi))
        return tuple(out)

    def integrate(self, f: Callable, poly_degree: int = 0) -> float:
        """Integral of f against the measure (weight dx + point masses), to
        1e-13 relative per support interval."""
        rel_tol = 1e-13
        total = 0.0
        ok_all = True
        for lo, hi in self._effective_intervals(poly_degree):
            val, ok = quadrature.integrate(
                lambda x: f(x) * self.weight(x), lo, hi, rel_tol=rel_tol)
            total += val
            ok_all = ok_all and ok
        for pm in self.point_masses:
            total += pm.mass * float(np.asarray(f(np.asarray(pm.location)), float))
        if not ok_all:
            raise DivergentMoment("quadrature failed to converge at tolerance "
                                  f"{rel_tol} (degree {poly_degree})")
        return total

    def discretize(self, level: int, poly_degree: int = 0):
        """Dense quadrature discretization (x, w) of the continuous part,
        point masses appended; basis of the generic recurrence path."""
        xs, ws = [], []
        for lo, hi in self._effective_intervals(poly_degree):
            x, _, _, w = quadrature.map_nodes(level, lo, hi)
            xs.append(x)
            ws.append(w * self.weight(x))
        for pm in self.point_masses:
            xs.append(np.array([pm.location]))
            ws.append(np.array([pm.mass]))
        return np.concatenate(xs), np.concatenate(ws)

    def total_mass(self) -> float:
        return self.integrate(lambda x: np.ones_like(x))


# ---------------------------------------------------------------------------
# Moments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MomentSequence:
    """Raw moments C_0..C_N of a measure."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, float))

    def __len__(self):
        return len(self.values)

    def __getitem__(self, n):
        return self.values[n]

    def hankel_positive(self, tol: float = 1e-10) -> bool:
        """Positive-definiteness of all leading Hankel blocks [C_{i+j}]."""
        n_max = (len(self.values) - 1) // 2
        for m in range(n_max + 1):
            h = np.array([[self.values[i + j] for j in range(m + 1)]
                          for i in range(m + 1)])
            scale = max(1.0, float(np.max(np.abs(h))))
            if np.linalg.eigvalsh(h).min() < -tol * scale:
                return False
        return True


def moments(m: Measure, n: int) -> MomentSequence:
    """Moments C_k = int x**k d-mu(x), k = 0..n, to ~1e-12 relative.

    Raises DivergentMoment when the support is unbounded and no tail bound
    certifies truncation.
    """
    if n < 0:
        raise DomainError("moment order must be nonnegative")
    vals = [m.integrate(lambda x, k=k: x**k if k else np.ones_like(x),
                        poly_degree=k) for k in range(n + 1)]
    return MomentSequence(np.array(vals))


def rescale(m: Measure, lam: float) -> Measure:
    """Stretch the support by lam: new weight w(x/lam)/lam.

    Moments transform as C_n -> lam**n C_n; the mass is preserved.
    """
    if not lam > 0:
        raise DomainError("scale factor must be positive")
    if lam == 1.0:
        return m
    old_w = m.weight
    support = tuple((lo * lam, hi * lam) for lo, hi in m.support)
    tail = None
    if m.tail is not None:
        t = m.tail
        tail = TailBound(rate=t.rate / lam**t.stretch, power=t.power,
                         stretch=t.stretch)
    fam = m.family.rescaled(lam) if m.family is not None else None
    return Measure(
        weight=lambda x: old_w(np.asarray(x, float) / lam) / lam,
        support=support,
        tail=tail,
        point_masses=tuple(PointMass(p.location * lam, p.mass)
                           for p in m.point_masses),
        family=fam,
    )


def scale_mass(m: Measure, factor: float) -> Measure:
    """Multiply the weight (and point masses) by a positive constant."""
    if not factor > 0:
        raise DomainError("mass factor must be positive")
    old_w = m.weight
    return Measure(
        weight=lambda x: factor * old_w(x),
        support=m.support,
        tail=m.tail,
        point_masses=tuple(PointMass(p.location, p.mass * factor)
                           for p in m.point_masses),
        family=m.family.scaled(factor) if m.family is not None else None,
    )


def normalize(m: Measure) -> Measure:
    """Divide the weight by C_0 so the measure has unit mass."""
    c0 = m.total_mass()
    if not c0 > 1e-300:
        raise ZeroMass(f"zeroth moment {c0} too small to normalize")
    return scale_mass(m, 1.0 / c0)


def semicircle_measure(a: float = -1.0, b: float = 1.0, mass: float = 1.0) -> Measure:
    """Semicircle weight on [a, b] with the given total mass."""
    c = mass * 8.0 / (math.pi * (b - a) ** 2)
    return Measure.from_family(SemicircleWeight(c, a, b))


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
    measure transformation.
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


def power_law_sd(s: float, alpha: float, omega_c: float = 1.0) -> SpectralDensity:
    """J(w) = 2*pi*alpha*omega_c**(1-s) * w**s on [0, omega_c]; needs s > -1."""
    if not s > -1:
        raise DomainError("power law exponent must satisfy s > -1")
    if not alpha > 0:
        raise DomainError("coupling strength alpha must be positive")
    fam = PowerLawWeight(2.0 * math.pi * alpha * omega_c ** (1 - s), s, omega_c)
    coeff = 2.0 * alpha * omega_c ** (1 - s)
    return SpectralDensity(fam.weight, ((0.0, omega_c),), ((s, 0.0),),
                           m0_family=PowerLawWeight(coeff, s, omega_c),
                           m1_family=PowerLawWeight(coeff, s / 2.0, omega_c**2))


def power_law_exp_sd(s: float, alpha: float, omega_c: float = 1.0) -> SpectralDensity:
    """J(w) = 2*pi*alpha*omega_c**(1-s) * w**s * exp(-w/omega_c) on [0, inf)."""
    if not s > -1:
        raise DomainError("power law exponent must satisfy s > -1")
    if not alpha > 0:
        raise DomainError("coupling strength alpha must be positive")
    fam = PowerLawExpWeight(2.0 * math.pi * alpha * omega_c ** (1 - s), s, omega_c)
    return SpectralDensity(fam.weight, ((0.0, math.inf),), ((s, 0.0),),
                           tail=fam.tail(),
                           m0_family=PowerLawExpWeight(
                               2.0 * alpha * omega_c ** (1 - s), s, omega_c))


def tabulated_sd(omega: Sequence[float], values: Sequence[float]) -> SpectralDensity:
    """Linear interpolant through (omega, J) samples; support is their range."""
    omega = np.asarray(omega, float)
    values = np.asarray(values, float)
    if omega.ndim != 1 or omega.shape != values.shape or len(omega) < 2:
        raise DomainError("tabulated samples need matching 1-d arrays, >= 2 points")
    if not np.all(np.diff(omega) > 0):
        raise DomainError("tabulated frequencies must be strictly increasing")
    if np.any(values < 0):
        raise DomainError("tabulated spectral density must be nonnegative")
    return SpectralDensity(
        lambda w: np.interp(np.asarray(w, float), omega, values),
        ((float(omega[0]), float(omega[-1])),))


def piecewise_uniform_sd(pieces: Sequence[tuple[float, float, float]]) -> SpectralDensity:
    """Piecewise-constant J: heights on disjoint intervals (possibly gapped)."""
    pieces = sorted((float(lo), float(hi), float(h)) for lo, hi, h in pieces)
    if any(h < 0 for _, _, h in pieces):
        raise DomainError("piecewise heights must be nonnegative")
    support = tuple((lo, hi) for lo, hi, _ in pieces)

    def evaluator(w):
        w = np.asarray(w, float)
        out = np.zeros_like(w)
        for lo, hi, h in pieces:
            out = np.where((w >= lo) & (w <= hi), h, out)
        return out

    return SpectralDensity(evaluator, support)


def custom_sd(evaluator: Callable, support: Intervals,
              endpoint_exponents=(), tail: TailBound | None = None) -> SpectralDensity:
    return SpectralDensity(evaluator, tuple(support), tuple(endpoint_exponents),
                           tail=tail)


def sd_from_dispersion(g: Callable, h: Callable, k_min: float, k_max: float,
                       g_inverse: Callable | None = None) -> SpectralDensity:
    """Spectral density J(w) = pi * h(g^-1(w))**2 * |d g^-1(w)/dw|.

    Parameters
    ----------
    g : callable
        Dispersion relation; must be strictly monotone on [k_min, k_max]
        (verified on a grid of 513 samples).
    h : callable
        Real coupling amplitude, square integrable on [k_min, k_max].
    g_inverse : callable, optional
        Closed-form inverse; when omitted, g is inverted by bracketed
        root finding per evaluation.
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
        if g_inverse is not None:
            return float(g_inverse(w))
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
