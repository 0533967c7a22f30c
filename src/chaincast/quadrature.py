"""Double-exponential (tanh-sinh) quadrature over finite intervals.

One engine serves every integral in the package: weight-function moments,
Stieltjes transforms, reducer principal parts and the dense discretizations
behind the generic recurrence-coefficient path.  The tanh-sinh rule clusters
nodes double-exponentially at both endpoints, so integrable algebraic
(``x**s``, ``s > -1``) and logarithmic endpoint singularities converge
geometrically without per-family substitutions.

Nodes are represented by their *distances* to the two endpoints rather
than by their positions alone; this keeps ``x - a`` accurate down to
~1e-290 of the interval width, which is what makes endpoint-singular
weights evaluate cleanly.

The levels are nested (Bailey, Jeyabalan & Li, Exp. Math. 14 (2005) 317):
halving the step keeps every node of the previous level and adds the odd
ones between them, so ``integrate`` calls its integrand once per distinct
position of the nodes each level adds and reuses the values it already
has.  The integrand may return an array of shape ``(..., nodes)``; every
component then converges on its own, exactly as if it had been integrated
alone.

Next to a nonzero endpoint the nodes cluster closer than the spacing of
doubles there, so about half of each level rounds onto a few positions
(level 6 on [0.3, 1.6]: 775 nodes, 407 positions).  ``merge_nodes`` folds
them; every consumer that reads positions only evaluates each one once.

All reductions are plain ``np.sum`` over a fixed node ordering, so repeated
runs are bit-identical, and the reused values make each level's sum the
same as evaluating every node afresh.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import DivergentMoment

__all__ = [
    "nodes",
    "refinement",
    "merge_nodes",
    "integrate",
    "tail_cutoff",
]

# Levels: the rule at `level` has step h = 2**-level and O(2**level) nodes.
MIN_LEVEL = 6
MAX_LEVEL = 11

# |t| beyond ~6.1 gives weights below 1e-290 in double precision.
_TMAX = 6.1

_cache: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
_refine_cache: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}


def _rule(level: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(k, dist_left, dist_right, weights)``; node k sits at t = k * 2**-level."""
    h = 1.0 / 2**level
    k = np.arange(-int(_TMAX / h), int(_TMAX / h) + 1)
    t = k * h
    v = 0.5 * np.pi * np.sinh(t)
    # 1 -+ tanh(v) without cancellation
    dist_right = 2.0 / (np.expm1(2.0 * v) + 2.0)
    dist_left = 2.0 / (np.expm1(-2.0 * v) + 2.0)
    w = h * 0.5 * np.pi * np.cosh(t) / np.cosh(v) ** 2
    keep = (w > 1e-290) & (dist_right > 1e-290) & (dist_left > 1e-290)
    return k[keep], dist_left[keep], dist_right[keep], w[keep]


def nodes(level: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tanh-sinh nodes on (-1, 1) at the given level.

    Returns ``(dist_left, dist_right, weights)`` where ``dist_left[k]`` is the
    distance of node k from -1 and ``dist_right[k]`` its distance from +1,
    both computed without cancellation.
    """
    cached = _cache.get(level)
    if cached is None:
        cached = _cache[level] = _rule(level)[1:]
    return cached


def refinement(level: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """How the rule at ``level`` extends the rule at ``level - 1``, as
    boolean masks ``(old, carried, new)``.

    The nodes ``old`` selects from this level are, in order, the nodes
    ``carried`` selects from the previous one (same positions, half the
    weights, to the bit); ``new`` selects the nodes this level adds.  The
    weight cut-off drops a few outermost previous nodes, so ``carried``
    need not select the whole previous level.
    """
    cached = _refine_cache.get(level)
    if cached is None:
        k = _rule(level)[0]
        k_prev = _rule(level - 1)[0]
        old = (k % 2 == 0) & np.isin(k // 2, k_prev)
        cached = _refine_cache[level] = (old, np.isin(k_prev, k[old] // 2), ~old)
    return cached


def map_nodes(level: int, a: float, b: float):
    """Nodes of the rule mapped to [a, b]: ``(x, dist_a, dist_b, weights)``.

    Weights include the interval scaling; ``sum(w * f(x))`` approximates
    the integral of f over [a, b].
    """
    dl, dr, w = nodes(level)
    half = 0.5 * (b - a)
    da = half * dl
    db = half * dr
    x = np.where(dl <= dr, a + da, b - db)
    return x, da, db, w * half


def _distinct(x: np.ndarray) -> np.ndarray:
    """Mask of the first node at each position of the sorted nodes ``x``."""
    step = np.empty(len(x), bool)
    step[:1] = True
    np.not_equal(x[1:], x[:-1], out=step[1:])
    return step


def merge_nodes(x: np.ndarray, w: np.ndarray):
    """Merge equal consecutive positions of the sorted nodes ``x``:
    ``(positions, weights)``, the distinct positions in order and the
    summed weights of the nodes at each.
    """
    step = _distinct(x)
    return x[step], np.add.reduceat(w, np.flatnonzero(step))


def integrate(f: Callable, a: float, b: float, rel_tol: float = 1e-13,
              with_distances: bool = False):
    """Integrate f over [a, b], halving the step until two consecutive
    levels agree to ``rel_tol`` (at most ``MAX_LEVEL``).  An absolute floor
    proportional to the integrand's L1 mass keeps exactly-cancelling
    integrals (odd moments of symmetric weights) from chasing their roundoff.

    Each level calls f once per distinct position of the nodes it adds
    (``refinement``) and spreads the values back over the nodes, so the
    sums are the same as with f called on every node; with
    ``with_distances`` the distances tell coinciding nodes apart and f sees
    every node.  f may return shape ``(..., nodes)``: the value then has
    shape ``(...)`` and each component keeps the level at which it
    converged, so one call gives the same numbers as one scalar call per
    component.

    Returns ``(value, converged)``, ``converged`` being true when every
    component converged; the caller decides whether a non-converged result
    is an error.
    """
    if not b > a:
        return 0.0, True

    def call(x, da, db):
        if with_distances:
            return np.asarray(f(x, da, db))
        step = _distinct(x)
        return np.asarray(f(x[step]))[..., np.cumsum(step) - 1]

    x, da, db, w = map_nodes(MIN_LEVEL, a, b)
    vals = call(x, da, db)
    prev = np.sum(vals * w, axis=-1)
    value = prev
    done = np.zeros(np.shape(prev), bool)
    for level in range(MIN_LEVEL + 1, MAX_LEVEL + 1):
        x, da, db, w = map_nodes(level, a, b)
        old, carried, new = refinement(level)
        fresh = call(x[new], da[new], db[new])
        full = np.empty(vals.shape[:-1] + w.shape, np.result_type(vals, fresh))
        full[..., old] = vals[..., carried]
        full[..., new] = fresh
        vals = full
        cur = np.sum(vals * w, axis=-1)
        l1 = np.sum(np.abs(vals) * w, axis=-1)
        ok = ~done & (np.abs(cur - prev) <= rel_tol * np.abs(cur) + 1e-15 * l1 + 1e-300)
        value = np.where(ok, cur, value)
        done |= ok
        if done.all():
            return value[()], True
        prev = cur
    return np.where(done, value, prev)[()], False


def tail_cutoff(rate: float, power: float, stretch: float) -> float:
    """Truncation point T for a tail bounded by x**power * exp(-rate*x**stretch).

    Chosen so the bound at T is below 1e-16 times the bound's peak value
    (the peak taken at x >= 1);
    with double-exponential decay of the quadrature this certifies the
    discarded tail against the running total.  T doubles until it gets
    there, which it does since the bound decays; a T that overflows raises
    DivergentMoment.
    """
    if rate <= 0 or stretch <= 0:
        raise ValueError("tail bound must decay")

    def logbound(x):
        return power * np.log(x) - rate * x**stretch

    peak = max((max(power, 0.0) / (rate * stretch)) ** (1.0 / stretch), 1.0)
    target = logbound(peak) + np.log(1e-16)
    t = peak * 2 + 1.0
    while logbound(t) > target:
        t *= 2.0
        if math.isinf(t):
            raise DivergentMoment("tail cutoff overflows: the bound "
                                  f"x**{power} * exp(-{rate} * x**{stretch}) "
                                  "decays too slowly")
    return t
