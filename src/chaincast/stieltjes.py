"""Stieltjes transform, reducer, Perron inversion and gap diagnostics.

The reducer phi(d-mu; x) is the boundary sum lim S(x - ie) + S(x + ie),
equivalently twice the principal-value transform; it is the real companion
of the density in every secondary-measure formula.  ``reducer`` takes the
closed form attached to an analytic weight family, else the
Lipschitz-regularized form, which replaces its difference quotient by mu'
at the midpoint in a narrow band around t = x whose width is scaled to x's
distance from the nearer endpoint.  That route reads mu at each level's
tanh-sinh positions from the measure's column cache (``Measure._columns``),
so a measure evaluates them once however often it is reduced, and forms
its kernel in row blocks inside one workspace per call (``_pv_sums``), so
the blocks allocate nothing.  The blocks are filled off numpy's buffered
broadcast, and the narrow ones (tanh-sinh levels 3 and 4) column by
column, so a kernel cell costs little more than its division and its share
of the gemv that sums each row.  The integrated-by-parts C^1 form
(``_reducer_derivative_form``) has no caller in the package; the benchmark's
tracing names it as a route probe (``ROUTE_PROBES`` in
benchmarks/tracing.py), and it goes when that probe does (ROADMAP
Direction 1).

Every real-axis integral of a kernel of z - t (the Cauchy transform S(z)
at real or complex z, the Perron inversion, the integrated-by-parts
reducer, S in a gap) splits the support at Re z and forms z - t
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
# ten digits outside it, narrow enough to hold at most one node even where
# the tanh-sinh nodes cluster at an endpoint (``_pv_sums`` relies on it).
PV_BAND_FRACTION = 1e-6

# Minimum distance of a real Stieltjes argument from the support.
POLE_GUARD_FRACTION = 1e-8

# The Lipschitz reducer refines each row x from its first level
# (``_first_level``: PV_MIN_LEVEL where mu is resolved there) until the
# row's relative change between two levels falls below PV_REL_TOL, or up to
# quadrature.MAX_LEVEL.  Not quadrature.MIN_LEVEL: quadrature.integrate
# needs its finer start for the report's moment integrals to meet their
# tolerance.
PV_MIN_LEVEL = 3
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


def _pv_sums(m: Measure, x, mu_x, delta, t, mu_t, w, work=None) -> np.ndarray:
    """sum_j w_j (mu(t_j) - mu(x_i)) / (t_j - x_i) for every x_i, with the
    quotient replaced by mu' at the midpoint (x_i + t_j)/2 where
    |t_j - x_i| < delta_i; formed in row blocks of at most PV_BLOCK_CELLS
    cells.  t must be sorted, and at most one of its nodes may lie within
    2 delta_i of x_i: the band cells are found by binary search and written
    into each block, so no dense mask is formed.  The reducer's columns
    keep that: tanh-sinh neighbours lie at least 7.7e-4 of their distance
    from the nearer end apart at every level up to quadrature.MAX_LEVEL,
    and the window x_i -+ 2 delta_i is 4e-6 of that distance wide (less
    than an ulp where ``map_nodes`` merges nodes that round together).

    Each block's mu_t - mu_x and t - x are written into ``work``, a
    workspace of shape (2, n) with n at least the block's cell count
    (PV_BLOCK_CELLS, for t of at most that many columns), and divided in
    place; one workspace serves every call of a reducer, so the blocks
    allocate nothing.  Without one, one is allocated for this call.

    The fills run under a 16-element ufunc buffer, restored on return:
    numpy 2.4 otherwise copies a broadcast operand through its
    8192-element buffer whenever the block is narrower than a third of it
    (2731 columns), and the two subtractions then cost twice the division.
    A block with at least four rows per column is filled and divided
    transposed, one long loop per column instead of one loop of 75 cells
    per row at the 75-column levels, and copied row-major into ``work[0]``;
    every block is summed by the same row-major gemv.  Each cell is
    (mu_t - mu_x) / (t - x) in either layout, so the sums do not depend on
    it."""
    # Candidates lie within 2 delta_i, a margin that the rounding of
    # x -+ 2 delta and of t - x cannot defeat; the exact test keeps the
    # cells a dense |t - x| < delta mask would select.
    d2 = 2.0 * delta
    first = t.searchsorted(x - d2, "left")
    ci = (t.searchsorted(x + d2, "right") - first).nonzero()[0]
    cj = first[ci]
    keep = np.abs(t[cj] - x[ci]) < delta[ci]
    ci, cj = ci[keep], cj[keep]
    band = (_weight_derivative(m, 0.5 * (x[ci] + t[cj]), 0.5 * delta[ci])
            if len(ci) else None)

    n, cols = len(x), len(t)
    out = np.empty(n)
    rows = max(1, PV_BLOCK_CELLS // cols)
    if work is None:
        work = np.empty((2, min(n, rows) * cols))
    lo = 0  # ci is sorted, so each block's band cells are one slice of it
    # t == x gives 0/0 in a band cell, which is overwritten
    with np.errstate(divide="ignore", invalid="ignore"):
        # off numpy's buffered broadcast (see above); numpy's ufunc state
        # is per context, and restored however the loop exits
        bufsize = np.setbufsize(16)
        try:
            for i in range(0, n, rows):
                r = min(rows, n - i)
                quot = work[0, :r * cols].reshape(r, cols)
                if r >= 4 * cols:
                    # Narrow block: numpy's loop pays a call per row, which
                    # dominates rows of a few dozen cells, so fill and divide
                    # it column by column, then copy it row-major for the
                    # gemv over t - x, which is spent.  Measured, that takes
                    # 15% less time at 75 columns (12 rows per column) and
                    # 9% more at 149 columns (3 rows per column).
                    num = work[1, :quot.size].reshape(cols, r)
                    diff = work[0, :quot.size].reshape(cols, r)
                    np.subtract(mu_t[:, None], mu_x[None, i:i + r], out=num)
                    np.subtract(t[:, None], x[None, i:i + r], out=diff)
                    num /= diff
                    np.copyto(quot, num.T)
                else:
                    diff = work[1, :quot.size].reshape(r, cols)
                    np.subtract(mu_t[None, :], mu_x[i:i + r, None], out=quot)
                    np.subtract(t[None, :], x[i:i + r, None], out=diff)
                    quot /= diff
                hi = ci.searchsorted(i + r)
                if hi > lo:
                    quot[ci[lo:hi] - i, cj[lo:hi]] = band[lo:hi]
                    lo = hi
                out[i:i + r] = quot @ w
        finally:
            np.setbufsize(bufsize)
    return out


def _first_level(m: Measure) -> int:
    """First tanh-sinh level of the Lipschitz reducer's rows: the coarsest
    level from PV_MIN_LEVEL whose next level sums mu to PV_REL_TOL of its
    sum at quadrature.MIN_LEVEL + 1, else quadrature.MIN_LEVEL.

    A row stops at the first comparison it passes, so it cannot see a
    feature of mu that falls between the nodes of both levels compared.
    Such a feature, if the level-(MIN_LEVEL + 1) nodes see it, moves the
    coarse sums of mu by its mass and so keeps the start fine.
    """
    sums = []
    for level in range(PV_MIN_LEVEL, quadrature.MIN_LEVEL + 2):
        _, w, mu_t = m._columns(level, added=bool(sums))
        part = mu_t @ w
        sums.append(0.5 * sums[-1] + part if sums else part)
    for level, s in enumerate(sums[1:-1], PV_MIN_LEVEL):
        if abs(s - sums[-1]) <= PV_REL_TOL * abs(sums[-1]):
            return level
    return quadrature.MIN_LEVEL


def _reducer_lipschitz(m: Measure, x: np.ndarray) -> np.ndarray:
    """2 mu(x) ln((x-a)/(b-x)) - 2 int (mu(t)-mu(x))/(t-x) dt.

    Within |t - x| < delta(x) = PV_BAND_FRACTION * min(x - a, b - x) the
    difference quotient is replaced by mu' at the midpoint (x + t)/2: the
    power law's derivative when the measure is one, otherwise a centered
    difference with step delta/2, which stays inside the support.  The
    quotient is regular there, but the cancellation in mu(t)-mu(x) is not
    worth fighting at machine precision.  The midpoint value differs from
    the quotient by O(mu''' delta^2), so the integrand barely jumps at the
    band edge, and a band scaled to the distance from the nearer endpoint
    stays clear of the tanh-sinh nodes clustered there, where mu may vary
    like a power of that distance.

    The integral runs over the nested tanh-sinh levels from
    ``_first_level`` through ``quadrature._refine``, one row per x.  The
    columns t of each level are its distinct positions with summed weights
    (``quadrature.map_nodes``), sorted as ``_pv_sums`` needs, with mu(t)
    from the measure's column cache (``Measure._columns``, which
    ``_first_level`` reads too), and
    ``reducer`` hands in distinct rows x in increasing order, so each
    position is evaluated once however often its caller repeats it (the
    every-node quadrature of ``_real_axis_integral`` does), and the warning
    counts distinct positions.  A row whose relative change falls
    below PV_REL_TOL keeps that level's value and drops out.  For a smooth
    mu nearly every row stops at the first comparison; only rows that do
    not settle (on an even grid, those within about 1e-12 of the span from
    an endpoint) run on to the last level, where they are logged as a
    warning, not raised.  The kernel is formed in row blocks
    (``_pv_sums``) inside one workspace of 2 * PV_BLOCK_CELLS doubles
    allocated per call and shared by every level, so memory does not grow
    with len(x) times the node count and no block allocates.
    """
    a, b = m.hull
    delta = PV_BAND_FRACTION * np.minimum(x - a, b - x)
    mu_x = np.asarray(m.weight(x), float)

    work = np.empty((2, PV_BLOCK_CELLS))

    def part(level, added, rows):
        t, w, mu_t = m._columns(level, added)
        return _pv_sums(m, x[rows], mu_x[rows], delta[rows], t, mu_t, w, work)

    def accept(cur, prev, rows):
        # kept for the warning: at the last level, the rows that fail
        # hold the largest changes
        nonlocal change
        change = np.abs(cur - prev) / (np.abs(cur) + np.abs(mu_x[rows]) + 1e-300)
        return change < PV_REL_TOL

    change = None
    out, never = quadrature._refine(part, _first_level(m), accept)
    if len(never):
        _log.warning("Lipschitz reducer not converged at level %d on %d of %d "
                     "distinct points: max relative change %.3g, "
                     "required < %.3g",
                     quadrature.MAX_LEVEL, len(never), len(x), change.max(),
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


def reducer(m: Measure, x):
    """phi(d-mu; x) at interior points of a gapless measure's support: the
    family closed form when the measure has one, otherwise the Lipschitz
    route on the distinct values of x."""
    if not m.gapless:
        raise GappedMeasure("reducer requires a gapless measure")
    xs = np.atleast_1d(np.asarray(x, float))
    _check_interior(m, xs)
    vals = m.family.reducer(xs) if m.family is not None else None
    if vals is None:
        if not m.bounded:
            raise UnsupportedMeasure(
                "numeric reducer needs bounded support; use an analytic family")
        xs, inverse = np.unique(xs, return_inverse=True)
        vals = _reducer_lipschitz(m, xs)[inverse]
    vals = np.asarray(vals, float)
    return vals if np.ndim(x) else float(vals[0])


def _real_axis_integral(m: Measure, z, kernel, stage: str,
                       rel_tol: float, density=None):
    """int kernel(z - t, mu(t)) dt over the support; ``density`` replaces the
    weight mu when given.

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


def find_gap_zero(m: Measure):
    """Zero of S inside the first interior gap (b, c); None for gapless
    measures.

    S decreases strictly on the gap, so its sign alone brackets the zero: S
    at the midpoint picks a half, and S at the double next to that half's
    edge closes the bracket, or raises BracketFailure when it has the same
    sign, as a weight vanishing at the edge allows; any zero then lies within
    one ulp of the edge.  False position with the Anderson-Bjorck
    modification (Dowell & Jarratt, BIT 11 (1971) 168) shrinks the bracket
    until no double lies inside it or it is within 1e-15 relative, and the
    end with the smaller |S| is returned.
    """
    if m.gapless:
        return None
    b, c = m.support[0][1], m.support[1][0]

    def s(x):
        return _real_axis_integral(m, x, lambda d, mu: mu / d, "find_gap_zero", 1e-13)

    # (x1, f1) is the latest point and (x0, f0) the other end of the bracket;
    # g0 is f0 as scaled down for the secant while x0 is kept.
    x0 = 0.5 * (b + c)
    f0 = g0 = s(x0)
    if f0 == 0.0:
        return x0
    x1 = math.nextafter(c, b) if f0 > 0.0 else math.nextafter(b, c)
    f1 = s(x1)
    if (f1 > 0.0) == (f0 > 0.0):
        sign, side = ("positive", "right") if f1 > 0.0 else ("negative", "left")
        raise BracketFailure(
            f"S has one sign on gap ({b}, {c}): it is {sign} at {x1!r}, the double "
            f"next to the {side} edge, so any zero lies within one ulp of that edge")
    lo, hi = sorted((x0, x1))
    while f1 != 0.0 and math.nextafter(lo, hi) < hi and hi - lo > 1e-15 * abs(hi):
        x = x1 - f1 * (x1 - x0) / (f1 - g0)
        x = min(max(x, math.nextafter(lo, hi)), math.nextafter(hi, lo))
        f = s(x)
        if (f > 0.0) == (f1 > 0.0):
            g0 *= 1.0 - f / f1 if abs(f) < abs(f1) else 0.5
        else:
            x0, f0, g0 = x1, f1, f1
        x1, f1 = x, f
        lo, hi = sorted((x0, x1))
    return float(x1 if abs(f1) <= abs(f0) else x0)


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
