"""Recurrence coefficients and orthogonal-polynomial evaluation.

The three-term recurrence data (alpha_n, beta_n) of a measure doubles as
its Jacobi matrix.  Coefficients come either from closed forms attached to
an analytic weight family or from a discretized Stieltjes orthogonalization
over a dense tanh-sinh discretization of the measure, refined until the
coefficients stabilize.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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

    def shifted(self, offset: int) -> "RecurrenceCoefficients":
        """View starting at order `offset`; its beta_0 slot holds the parent's
        beta_offset (the mass of the offset-th beta-normalized member)."""
        if not 0 <= offset < self.n:
            raise IndexOutOfRange(f"offset {offset} outside 0..{self.n - 1}")
        return RecurrenceCoefficients(self.alpha[offset:], self.beta[offset:])


def _stieltjes_sweep(x: np.ndarray, w: np.ndarray, n: int):
    """Discretized Stieltjes procedure on the discrete measure sum w_k d(x_k)."""
    alpha = np.zeros(n)
    beta = np.zeros(n)
    pprev = np.zeros_like(x)
    pcur = np.ones_like(x)
    norm_prev = 1.0
    for k in range(n):
        wp2 = w * pcur * pcur
        norm = float(np.sum(wp2))
        if not norm > 0:
            raise IllConditioned(f"vanishing polynomial norm at order {k}")
        alpha[k] = float(np.sum(x * wp2)) / norm
        beta[k] = norm if k == 0 else norm / norm_prev
        pnext = (x - alpha[k]) * pcur - (beta[k] if k else 0.0) * pprev
        pprev, pcur, norm_prev = pcur, pnext, norm
    return alpha, beta


def _generic_coefficients(m: Measure, n: int) -> RecurrenceCoefficients:
    """Stieltjes orthogonalization over refined discretizations of the measure.

    The hull is affinely mapped near [-1, 1] for conditioning (coefficients
    transform exactly under affine maps), and the discretization level is
    raised until alpha and beta stabilize to 1e-12 relative.
    """
    poly_degree = 2 * n
    lo = m.support[0][0]
    hi = m.support[-1][1]
    if math.isinf(hi):
        hi = m._effective_intervals(poly_degree)[-1][1]
    shift = 0.5 * (lo + hi)
    scale = 0.5 * (hi - lo)

    rel_tol = 1e-12
    prev = None
    for level in range(7, 12):
        x, w = m.discretize(level, poly_degree)
        a, b = _stieltjes_sweep((x - shift) / scale, w, n)
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
    if method == "auto" and m.family is not None and not m.point_masses:
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
