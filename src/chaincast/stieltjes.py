"""Stieltjes transform, reducer, Perron inversion and gap diagnostics.

The reducer phi(d-mu; x) is the boundary sum lim S(x - ie) + S(x + ie),
equivalently twice the principal-value transform; it is the real companion
of the density in every secondary-measure formula.  Two generic evaluation
routes are provided (the Lipschitz-regularized form and the
integrated-by-parts C^1 form) plus closed forms attached to the analytic
weight families.  The Lipschitz form replaces its difference quotient by
mu' at the midpoint in a narrow band around t = x whose width is scaled to
x's distance from the nearer endpoint.

Every real-axis integral of a kernel of z - t (the Cauchy transform S(z)
at real or complex z, the Perron inversion, the integrated-by-parts
reducer, S and S' in a gap) splits the support at Re z and forms z - t
from tanh-sinh node distances, so it stays accurate however close z is to
the support.
"""

from __future__ import annotations

import logging
import math

import numpy as np

from . import quadrature
from .errors import (
    BracketFailure,
    EndpointEvaluation,
    GappedMeasure,
    PoleTooClose,
    UnsupportedMeasure,
)
from .measures import Measure
from .orthopoly import RecurrenceCoefficients, orthonormal_table

__all__ = [
    "GUARD_FRACTION",
    "stieltjes_transform",
    "reducer",
    "perron_invert",
    "find_gap_zero",
    "pade_defect",
]

# Interior evaluation band: x must stay this fraction of the span away from
# the support endpoints, where the reducer diverges logarithmically.  Kept
# tiny so integrals of downstream densities over the band lose only
# O(guard / log^2 guard) mass.
GUARD_FRACTION = 1e-12

# Half-width of the band around t = x inside which the Lipschitz difference
# quotient is replaced by mu' at the midpoint, as a fraction of x's distance
# to the nearer support endpoint: wide enough that mu(t) - mu(x) keeps about
# ten digits outside it, narrow enough to hold at most a few nodes even
# where the tanh-sinh nodes cluster at an endpoint.
PV_BAND_FRACTION = 1e-6

# Minimum distance of a real Stieltjes argument from the support.
POLE_GUARD_FRACTION = 1e-8

# The Lipschitz reducer refines each row x from quadrature.MIN_LEVEL until
# the row's relative change between two levels falls below this, or up to
# quadrature.MAX_LEVEL.
PV_REL_TOL = 1e-13

# Kernel cells (x rows times t nodes) formed at once: bounds the reducer's
# working memory to a few arrays of this many doubles, whatever len(x), and
# keeps them in a core's L2 cache.
PV_BLOCK_CELLS = 2**16

_log = logging.getLogger(__name__)


def _span(m: Measure) -> float:
    s = m.span
    return s if math.isfinite(s) else 1.0


def evaluation_band(m: Measure) -> tuple[float, float]:
    """Interior range on which reducers (and everything built on them:
    sequence densities, residual densities) are evaluated."""
    a, b = m.hull
    g = GUARD_FRACTION * _span(m)
    return a + g, (b - g) if math.isfinite(b) else math.inf


def stieltjes_transform(m: Measure, z: complex) -> complex:
    """S(z) = integral of d-mu(x) / (z - x), by ``_real_axis_integral``.

    z must either have a nonzero imaginary part or keep a relative distance
    of 1e-8 from every support interval (PoleTooClose otherwise).  For a
    gapped measure the integral runs interval by interval, so real z inside
    a gap is fine.  Complex z may come arbitrarily close to the support:
    the interval is split at Re z and z - t formed from node distances.
    """
    z = complex(z)
    guard = POLE_GUARD_FRACTION * _span(m)
    if z.imag == 0.0:
        x = z.real
        for lo, hi in m.support:
            if lo - guard <= x <= hi + guard:
                raise PoleTooClose(f"z={x} within guard distance of [{lo}, {hi}]")
    return _real_axis_integral(m, z, lambda d, mu: mu / d,
                               "stieltjes_transform", 1e-13)


def _check_interior(m: Measure, x: np.ndarray) -> None:
    lo, hi = evaluation_band(m)
    hi_ok = x <= hi if math.isfinite(hi) else np.ones_like(x, bool)
    if not np.all((x >= lo) & hi_ok):
        raise EndpointEvaluation(f"reducer needs x in [{lo}, {hi}]")


def _weight_derivative(m: Measure, x: np.ndarray, step) -> np.ndarray:
    if m.family is not None:
        return np.asarray(m.family.derivative(x), float)
    return (m.weight(x + step) - m.weight(x - step)) / (2.0 * step)


def _pv_sums(m: Measure, x, mu_x, delta, t, mu_t, w) -> np.ndarray:
    """sum_j w_j (mu(t_j) - mu(x_i)) / (t_j - x_i) for every x_i, with the
    quotient replaced by mu' at the midpoint (x_i + t_j)/2 where
    |t_j - x_i| < delta_i; formed in row blocks of at most PV_BLOCK_CELLS
    cells.  t must be sorted: the few band cells are found by binary search
    and written into each block, so no dense mask is formed."""
    # Candidates lie within 2 delta_i, a margin that the rounding of
    # x -+ 2 delta and of t - x cannot defeat; the exact test keeps the
    # cells a dense |t - x| < delta mask would select.
    first = np.searchsorted(t, x - 2.0 * delta, "left")
    counts = np.searchsorted(t, x + 2.0 * delta, "right") - first
    ci = np.repeat(np.arange(len(x)), counts)
    cj = np.arange(len(ci)) + np.repeat(first - np.cumsum(counts) + counts, counts)
    keep = np.abs(t[cj] - x[ci]) < delta[ci]
    ci, cj = ci[keep], cj[keep]
    band = (_weight_derivative(m, 0.5 * (x[ci] + t[cj]), 0.5 * delta[ci])
            if len(ci) else np.empty(0))

    out = np.empty(len(x))
    rows = max(1, PV_BLOCK_CELLS // len(t))
    starts = np.arange(0, len(x), rows)
    # ci is sorted, so each block's band cells are one slice of it
    edges = np.searchsorted(ci, np.append(starts, len(x)))
    # t == x gives 0/0 in a band cell, which is overwritten
    with np.errstate(divide="ignore", invalid="ignore"):
        for k, i in enumerate(starts):
            blk = slice(i, i + rows)
            quot = mu_t[None, :] - mu_x[blk, None]
            quot /= t[None, :] - x[blk, None]
            cells = slice(edges[k], edges[k + 1])
            quot[ci[cells] - i, cj[cells]] = band[cells]
            out[blk] = quot @ w
    return out


def _reducer_lipschitz(m: Measure, x: np.ndarray) -> np.ndarray:
    """2 mu(x) ln((x-a)/(b-x)) - 2 int (mu(t)-mu(x))/(t-x) dt.

    Within |t - x| < delta(x) = PV_BAND_FRACTION * min(x - a, b - x) the
    difference quotient is replaced by mu' at the midpoint (x + t)/2: the
    family derivative when the measure has one, otherwise a centered
    difference with step delta/2, which stays inside the support.  The
    quotient is regular there, but the cancellation in mu(t)-mu(x) is not
    worth fighting at machine precision.  The midpoint value differs from
    the quotient by O(mu''' delta^2), so the integrand barely jumps at the
    band edge, and a band scaled to the distance from the nearer endpoint
    stays clear of the tanh-sinh nodes clustered there, where mu may vary
    like a power of that distance.

    The integral runs over nested tanh-sinh levels from
    quadrature.MIN_LEVEL: each level after the first adds only its new
    nodes to half the previous sum.  Rows refine one by one, as the
    components of ``quadrature.integrate`` do: a row whose relative change
    falls below PV_REL_TOL keeps that level's value and drops out, so only
    rows that do not settle (on an even grid, those within about 1e-12 of
    the span from an endpoint) run on to the last level, where they are
    logged as a warning, not raised.  The kernel is formed in row blocks
    (``_pv_sums``), so memory does not grow with len(x) times the node
    count.
    """
    a, b = m.hull
    delta = PV_BAND_FRACTION * np.minimum(x - a, b - x)
    mu_x = np.asarray(m.weight(x), float)

    out = np.empty(len(x))
    active = np.arange(len(x))
    cur = None
    for level in range(quadrature.MIN_LEVEL, quadrature.MAX_LEVEL + 1):
        t, _, _, w = quadrature.map_nodes(level, a, b)
        if cur is not None:
            new = quadrature.refinement(level)[2]
            t, w = t[new], w[new]
        part = _pv_sums(m, x[active], mu_x[active], delta[active], t,
                        np.asarray(m.weight(t), float), w)
        if cur is None:
            cur = part
            continue
        prev = cur
        cur = 0.5 * prev + part
        change = np.abs(cur - prev) / (np.abs(cur) + np.abs(mu_x[active]) + 1e-300)
        done = change < PV_REL_TOL
        out[active[done]] = cur[done]
        active, cur, change = active[~done], cur[~done], change[~done]
        if not len(active):
            break
    else:
        out[active] = cur
        _log.warning("Lipschitz reducer not converged at level %d on %d of %d "
                     "points: max relative change %.3g, required < %.3g",
                     quadrature.MAX_LEVEL, len(active), len(x), change.max(),
                     PV_REL_TOL)
    return 2.0 * mu_x * np.log((x - a) / (b - x)) - 2.0 * out


def _reducer_derivative_form(m: Measure, x: np.ndarray) -> np.ndarray:
    """Integrated-by-parts form,
    2 [mu(a) ln(x-a) - mu(b) ln(b-x) + int mu'(t) ln|t-x| dt].

    Valid only when the weight has a bounded continuous first derivative on
    the closed support (the hypothesis of the underlying identity); weights
    with endpoint-singular derivatives belong to the Lipschitz route.  The
    common ln|x| reference of the printed boundary terms cancels and is
    dropped, so nothing divides by x.
    """
    a, b = m.hull
    step = 0.5 * PV_BAND_FRACTION * (b - a)
    mu_a = float(np.asarray(m.weight(np.asarray(a)), float))
    mu_b = float(np.asarray(m.weight(np.asarray(b)), float))
    out = np.empty_like(x)
    for i, xi in enumerate(x.tolist()):
        part = _real_axis_integral(
            m, xi, lambda d, dmu: dmu * np.log(np.abs(d)), "reducer", 1e-12,
            density=lambda t: _weight_derivative(m, t, step))
        out[i] = 2.0 * (mu_a * math.log(xi - a) - mu_b * math.log(b - xi) + part)
    return out


def reducer(m: Measure, x, method: str = "auto"):
    """phi(d-mu; x) at interior points of a gapless measure's support.

    method "auto" takes the family closed form when the measure has one,
    otherwise the Lipschitz route; "lipschitz" and "derivative" force a
    generic route.
    """
    if not m.gapless:
        raise GappedMeasure("reducer requires a gapless measure")
    if m.point_masses:
        raise UnsupportedMeasure("reducer assumes a pure density")
    xs = np.atleast_1d(np.asarray(x, float))
    _check_interior(m, xs)
    if method == "auto":
        vals = m.family.reducer(xs) if m.family is not None else None
        if vals is None:
            method = "lipschitz"
    if method in ("lipschitz", "derivative"):
        if not m.bounded:
            raise UnsupportedMeasure(
                "numeric reducer needs bounded support; use an analytic family")
        route = _reducer_lipschitz if method == "lipschitz" else _reducer_derivative_form
        vals = route(m, xs)
    elif method != "auto":
        raise ValueError(f"unknown reducer method {method!r}")
    vals = np.asarray(vals, float)
    return vals if np.ndim(x) else float(vals[0])


def _real_axis_integral(m: Measure, z, kernel, stage: str,
                       rel_tol: float, density=None):
    """int kernel(z - t, mu(t)) dt over the support plus kernel(z - t_k, m_k)
    over the point masses; ``density`` replaces the weight mu when given.

    z is real or complex.  An interval containing Re z is split there, and
    z - t is formed from the node's distance to the end of its piece
    nearest Re z, so it keeps full relative accuracy however close t comes
    to z.  Each unconverged piece logs one warning under ``stage``.
    """
    density = m.weight if density is None else density
    x = z.real
    total = 0.0
    for lo, hi in m._effective_intervals(0):
        for a, b in ((lo, x), (x, hi)) if lo < x < hi else ((lo, hi),):
            if b <= x:
                def f(t, da, db, b=b):
                    return kernel(db + (z - b), density(t))
            else:
                def f(t, da, db, a=a):
                    return kernel(-(da + (a - z)), density(t))
            val, ok = quadrature.integrate(f, a, b, rel_tol=rel_tol,
                                           with_distances=True)
            if not ok:
                _log.warning("%s: quadrature not converged on [%r, %r] at "
                             "rel_tol %g", stage, a, b, rel_tol)
            total += val
    for pm in m.point_masses:
        total += kernel(z - pm.location, pm.mass)
    return total


def perron_invert(m: Measure, x: float, eps: float):
    """(1/2 pi i) [S(x - ie) - S(x + ie)] = (1/pi) Im S(x - ie), with S
    from the Cauchy kernel of ``_real_axis_integral`` at z = x - ie.

    Approaches the weight at interior Lipschitz points as eps -> 0; used as
    a self-test of the transform, not as a computation path.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    total = _real_axis_integral(m, complex(x, -eps), lambda d, mu: mu / d,
                                "perron_invert", 1e-12)
    return total.imag / math.pi


def find_gap_zero(m: Measure, gap_index: int = 0):
    """Zero of S inside an interior gap (b, c); None for gapless measures.

    S' = -int d-mu(t) / (x - t)^2 < 0 on the gap, so the zero is unique if
    it exists.  Where the weight vanishes at an edge, S stays finite there
    and may keep one sign over the whole gap.  A safeguarded Newton
    iteration on S and S' runs on the open gap.  It raises BracketFailure
    only when S has one sign at the doubles next to both edges, so that any
    zero lies within one ulp of an edge; such a zero is still returned, as
    the double next to the edge, when the Newton step from that double is
    shorter than half an ulp.
    """
    if m.gapless:
        return None
    gaps = [(hi, lo2) for (_, hi), (lo2, _) in zip(m.support, m.support[1:])]
    if not 0 <= gap_index < len(gaps):
        raise IndexError(f"gap index {gap_index} outside 0..{len(gaps) - 1}")
    b, c = gaps[gap_index]
    xtol = 1e-14 * max(1.0, abs(c))
    # The sign of S at each iterate shrinks the bracket (lo, hi), whose ends
    # stay at the gap edges until S is seen positive (lo) or negative (hi).
    # A Newton step that leaves the bracket or exceeds half the previous step
    # becomes a bisection, or, across an edge not yet left, a probe of the
    # double next to that edge.
    lo, hi, x, last = b, c, 0.5 * (b + c), c - b
    for _ in range(100):
        s, ds = _real_axis_integral(
            m, x, lambda d, mu: np.array([mu / d, -mu / d / d]), "find_gap_zero",
            1e-13)
        lo, hi = (x, hi) if s > 0.0 else (lo, x)
        step = s / ds
        # Next to an edge where the weight vanishes like a power below 1,
        # S' -> -inf and so S/S' -> 0 while S != 0, but there the step
        # reaches past the edge; a tiny step well inside the gap has converged.
        if abs(step) <= xtol and 2.0 * abs(step) < min(x - b, c - x):
            return float(x - step)
        nxt = x - step
        if not (lo < nxt < hi and abs(step) <= 0.5 * last):
            nxt = (math.nextafter(c, b) if nxt >= hi == c else
                   math.nextafter(b, c) if nxt <= lo == b else 0.5 * (lo + hi))
        if not lo < nxt < hi:  # no double left inside the bracket
            if b < lo and hi < c:
                return float(x)
            raise BracketFailure(
                f"S has one sign on gap ({b}, {c}): it is "
                f"{'positive' if s > 0 else 'negative'} at {x!r}, the double "
                f"next to the {'right' if lo > b else 'left'} edge, so any "
                "zero lies within one ulp of that edge")
        last, x = abs(nxt - x), nxt
    raise BracketFailure(
        f"zero of S in gap ({b}, {c}) not located after 100 safeguarded "
        f"Newton steps; bracket [{lo!r}, {hi!r}]")


def pade_defect(m: Measure, rc: RecurrenceCoefficients, n: int, z: float) -> float:
    """z**(2n+3) * (S(z) - Q_{n+1}(z)/P_{n+1}(z)), evaluated without
    cancellation.

    Uses the identity S(z) - Q_k(z)/P_k(z) = (1/P_k(z)) int P_k(t) d-mu(t)/(z-t)
    with the Cauchy kernel expanded geometrically; orthogonality kills the
    first k terms, so the ten terms summed start at the signal instead of
    recovering it from a ~30-digit subtraction.  The defect tends to
    beta_1 * ... * beta_{n+1} as z grows (for a unit-mass measure).
    """
    k = n + 1
    series = 0.0
    for j in range(k, k + 10):
        mj = m.integrate(lambda t: orthonormal_table(rc, k, t)[k] * t**j,
                         poly_degree=k + j)
        series += mj / z ** (j + 1)
    p_z = orthonormal_table(rc, k, np.asarray(z, float))[k]
    q_over_p_remainder = series / float(p_z)
    return z ** (2 * n + 3) * q_over_p_remainder
