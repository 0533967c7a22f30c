"""Recurrence coefficients and orthogonal-polynomial evaluation.

The three-term recurrence data (alpha_n, beta_n) of a measure doubles as
its Jacobi matrix.  Coefficients come either from closed forms attached to
an analytic weight family (shifted Jacobi for a power law, Laguerre,
second-kind Chebyshev for a semicircle, shifted Legendre for a flat J) or
from a discretized Stieltjes orthogonalization over a dense tanh-sinh
discretization of the measure, refined until the coefficients stabilize.

The discretized procedure runs as Lanczos on diag(x) with start vector
sqrt(w), which is the Stieltjes procedure on the discrete measure
(Gautschi, Orthogonal Polynomials: Computation and Approximation, OUP 2004,
sec. 2.2).  Its vectors sqrt(w) p_k are kept normalized, so the sweep does
not depend on the scale of the weight.  Where a measure has a log weight
(the exponential cutoff at q = 0 and 0 < q < 1, not yet q = 1) the start
vector is formed from it, so sqrt(w) stays representable out to twice the
point where w underflows.  It stops with IllConditioned at
order k when p_k vanishes on the nodes: when at most k nodes carry
weight, or when beta_k falls to the rounding floor of its recurrence step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import quadrature
from .errors import IllConditioned, IndexOutOfRange
from .measures import Measure

__all__ = [
    "RecurrenceCoefficients",
    "recurrence_coefficients",
    "orthonormal_table",
    "secondary_table",
]

MAX_ORDER = 200


@dataclass(frozen=True)
class RecurrenceCoefficients:
    """alpha_0..alpha_{N-1}, beta_0..beta_{N-1} of a measure.

    beta_0 carries the measure's mass; beta_n for n >= 1 are the usual
    norm ratios (entries sqrt(beta_n) off the Jacobi diagonal).
    """

    alpha: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "alpha", np.asarray(self.alpha, float))
        object.__setattr__(self, "beta", np.asarray(self.beta, float))
        if self.alpha.shape != self.beta.shape or self.alpha.ndim != 1:
            raise ValueError("alpha and beta must be equal-length 1-d arrays")

    @property
    def n(self) -> int:
        return len(self.alpha)


# One step's rounding error in r was at most 0.56 eps^2 ||x v_k||^2, measured
# against long double on random discrete measures and on tanh-sinh
# discretizations at N = 200; genuine beta_{k+1} / (alpha_k^2 + beta_k) was
# never below 1.7e-7 in the test suite.
_BREAKDOWN = 256 * np.finfo(float).eps ** 2


def _stieltjes_sweep(x: np.ndarray, w: np.ndarray, n: int,
                     log_w: np.ndarray | None = None):
    """Discretized Stieltjes procedure on the discrete measure sum w_k d(x_k).

    Run as Lanczos on diag(x) with start vector sqrt(w), normalized: with
    log_w = ln w given, exp(0.5 (log_w - ln mass)), which stays
    representable where w underflows, else sqrt(w / mass).  The vectors
    v_k = sqrt(w) p_k / ||sqrt(w) p_k|| are orthonormal, so no norm under-
    or overflows with the scale of w.  alpha_k = v_k . x v_k and
    beta_{k+1} = ||r||^2 for r = x v_k - alpha_k v_k - sqrt(beta_k) v_{k-1},
    with every buffer allocated once and updated in place.

    p_k vanishes on the nodes when at most k of them carry weight (a
    nonzero entry of the start vector).  On
    more nodes, ||x v_k||^2 = beta_k + alpha_k^2 + beta_{k+1} and roundoff
    leaves r about eps ||x v_k|| even where p_{k+1} vanishes, so order k+1
    counts as vanishing when beta_{k+1} <= _BREAKDOWN (alpha_k^2 + beta_k).
    The count comes first because lost orthogonality lifts r far above that
    floor once a measure on k points is exhausted: up to 1.7e12 eps^2 at
    k = 12 atoms.
    """
    alpha = np.zeros(n)
    beta = np.zeros(n)
    beta[0] = mass = float(np.sum(w))
    if not mass > 0:
        raise IllConditioned("vanishing polynomial norm at order 0")
    v = np.sqrt(w / mass) if log_w is None else np.exp(0.5 * (log_w - math.log(mass)))
    points = np.count_nonzero(v)
    if points < n:
        raise IllConditioned(f"vanishing polynomial norm at order {points}")
    v_prev = np.zeros_like(v)
    r = np.empty_like(v)
    tmp = np.empty_like(v)
    b = 0.0  # beta_k in the recurrence; v_{-1} = 0
    for k in range(n):
        np.multiply(x, v, out=r)
        alpha[k] = a = float(np.dot(v, r))
        if k + 1 == n:
            break
        r -= np.multiply(v, a, out=tmp)
        r -= np.multiply(v_prev, math.sqrt(b), out=tmp)
        b_next = float(np.dot(r, r))
        if not b_next > _BREAKDOWN * (a * a + b):
            raise IllConditioned(f"vanishing polynomial norm at order {k + 1}")
        beta[k + 1] = b = b_next
        v_prev, v = v, np.divide(r, math.sqrt(b), out=v_prev)
    return alpha, beta


def _generic_coefficients(m: Measure, n: int) -> RecurrenceCoefficients:
    """Stieltjes orthogonalization over refined discretizations of the measure.

    The hull is affinely mapped near [-1, 1] for conditioning (coefficients
    transform exactly under affine maps), and the discretization level is
    raised until alpha and beta stabilize to 1e-12 relative.  Each level
    runs ``_stieltjes_sweep``, Lanczos on the normalized vectors
    sqrt(w) p_k, which raises IllConditioned when p_k vanishes on the nodes;
    sqrt(w) comes from the measure's log weight where it has one.
    """
    poly_degree = 2 * n
    lo, hi = m.truncated_hull(poly_degree)
    shift = 0.5 * (lo + hi)
    scale = 0.5 * (hi - lo)

    rel_tol = 1e-12
    prev = None
    for level in range(quadrature.MIN_LEVEL + 1, quadrature.MAX_LEVEL + 1):
        x, w, log_w = m.discretize(level, poly_degree)
        a, b = _stieltjes_sweep((x - shift) / scale, w, n, log_w)
        alpha = a * scale + shift
        beta = np.concatenate([b[:1], b[1:] * scale * scale])
        if prev is not None:
            pa, pb = prev
            da = np.max(np.abs(alpha - pa)) / scale
            db = np.max(np.abs(beta - pb) / np.maximum(np.abs(beta), 1e-300))
            if da <= rel_tol and db <= rel_tol:
                return RecurrenceCoefficients(alpha, beta)
        prev = (alpha, beta)
    raise IllConditioned(
        f"recurrence coefficients did not stabilize to {rel_tol} for N={n}")


def _validate(rc: RecurrenceCoefficients, m: Measure) -> RecurrenceCoefficients:
    if np.any(rc.beta <= 0):
        raise IllConditioned("nonpositive beta coefficient")
    a, b = m.hull
    if m.bounded:
        # Bounded-support coefficient bounds; a tiny slack absorbs roundoff.
        eps = 1e-9 * (abs(a) + abs(b) + 1)
        if np.any(rc.alpha < a - eps) or np.any(rc.alpha > b + eps):
            raise IllConditioned("alpha escaped the support hull")
        cap = max(a * a, b * b) * (1 + 1e-12) + eps
        if np.any(rc.beta[1:] > cap):
            raise IllConditioned("beta escaped the bounded-support cap")
    return rc


def recurrence_coefficients(m: Measure, n: int,
                            method: str = "auto") -> RecurrenceCoefficients:
    """First n recurrence coefficient pairs of the measure.

    Parameters
    ----------
    method : {"auto", "stieltjes"}
        "auto" uses the closed form when the measure carries an analytic
        family, otherwise the discretized Stieltjes path; "stieltjes"
        forces the discretized path.
    """
    if not 0 < n <= MAX_ORDER:
        raise IndexOutOfRange(f"order must be in 1..{MAX_ORDER}, got {n}")
    if method not in ("auto", "stieltjes"):
        raise ValueError(f"unknown method {method!r}")
    if method == "auto" and m.family is not None:
        alpha, beta = m.family.recurrence(n)
        rc = RecurrenceCoefficients(alpha, beta)
    else:
        rc = _generic_coefficients(m, n)
    return _validate(rc, m)


# ---------------------------------------------------------------------------
# Polynomial evaluation.  Both tables are vectorized over x and run the
# orthonormal three-term recurrence t_n P_{n+1} = (x - s_n) P_n - t_{n-1} P_{n-1}
# with the positive-leading-coefficient convention.
# ---------------------------------------------------------------------------

def _recurrence_table(rc: RecurrenceCoefficients, n: int, x, seed_prev: float,
                      seed: float) -> np.ndarray:
    """R_0..R_n of the recurrence above, stacked along the first axis, from
    the seeds R_{-1} = seed_prev and R_0 = seed."""
    if not 0 <= n < rc.n:
        raise IndexOutOfRange(f"order {n} outside 0..{rc.n - 1}")
    x = np.asarray(x, float)
    t = np.sqrt(rc.beta)
    out = np.zeros((n + 2,) + x.shape)
    out[0], out[1] = seed_prev, seed
    for k in range(n):
        out[k + 2] = ((x - rc.alpha[k]) * out[k + 1] - t[k] * out[k]) / t[k + 1]
    return out[1:]


def orthonormal_table(rc: RecurrenceCoefficients, n: int, x) -> np.ndarray:
    """P_0..P_n stacked along the first axis."""
    return _recurrence_table(rc, n, x, 0.0, 1.0 / math.sqrt(rc.beta[0]))


def secondary_table(rc: RecurrenceCoefficients, n: int, x) -> np.ndarray:
    """Q_0..Q_n stacked along the first axis.

    Q_n runs the same recurrence as P_n with seeds Q_{-1} = -1 and Q_0 = 0,
    so Q_1 = sqrt(beta_0 / beta_1); the seed is validated against the
    defining integral in the test suite before being trusted.
    """
    return _recurrence_table(rc, n, x, -1.0, 0.0)
