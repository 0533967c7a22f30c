"""Double-exponential (tanh-sinh) quadrature over finite intervals.

One engine serves every integral in the package: weight-function moments,
Stieltjes transforms, reducer principal parts and the dense discretizations
behind the generic recurrence-coefficient path.  The tanh-sinh rule clusters
nodes double-exponentially at both endpoints, so integrable algebraic
(``x**s``, ``s > -1``) and logarithmic endpoint singularities converge
geometrically without per-family substitutions.

Nodes carry their *distances* to the two endpoints besides their
positions (``_every_node``); this keeps ``x - a`` accurate down to
~1e-290 of the interval width, which is what makes endpoint-singular
integrands of the distances evaluate cleanly.

The levels are nested, and one private loop (``_refine``, which states
the rule) refines the sums of both ``integrate`` and the Lipschitz
reducer; each calls its integrand only at the nodes a level adds.  The
integrand may return an array of shape ``(..., nodes)``; every component
then converges on its own, exactly as if it had been integrated alone.

Next to a nonzero endpoint the nodes cluster closer than the spacing of
doubles there, so about half of each level rounds onto a few positions
(level 6 on [0.3, 1.6]: 775 nodes, 407 positions).  ``map_nodes`` gives
each distinct position once with the summed weight of its nodes, so every
consumer that reads positions only evaluates each one once; only
``integrate(..., with_distances=True)`` sees every node, since the
distances tell coinciding nodes apart.  A map takes its positions half
by half, a + half * dist_left for k <= 0 and b - half * dist_right for
k > 0 (exactly where ``_every_node`` picks each form), and no distances.
One chain-plus-report computation asks for the same few levels on the
same intervals dozens of times, so ``map_nodes`` builds each map once and
keeps it in a bounded cache.

All reductions (``np.sum``, and ``np.add.reduceat`` for the merged weights)
run over a fixed node ordering, so repeated runs are bit-identical.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import DivergentMoment

__all__ = [
    "integrate",
    "tail_cutoff",
]

# Levels: the rule at `level` has step h = 2**-level and O(2**level) nodes.
MIN_LEVEL = 6
MAX_LEVEL = 11

# |t| beyond ~6.1 gives weights below 1e-290 in double precision.
_TMAX = 6.1

_cache: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = {}

# Node maps kept by ``map_nodes``, oldest use first: enough for every
# interval and level of one chain-plus-report computation, and at most
# about 9 MB (a level-11 map on [0, 1] holds 18672 positions).
_MAP_CACHE_SIZE = 32
_maps: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}


def _rule(level: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Tanh-sinh nodes on (-1, 1) at the given level: ``(k, dist_left,
    dist_right, weights)``, node k sitting at t = k * 2**-level with its
    distances from -1 and +1 computed without cancellation.  The kept k
    are consecutive."""
    cached = _cache.get(level)
    if cached is not None:
        return cached
    h = 1.0 / 2**level
    k = np.arange(-int(_TMAX / h), int(_TMAX / h) + 1)
    t = k * h
    v = 0.5 * np.pi * np.sinh(t)
    # 1 -+ tanh(v) without cancellation
    dist_right = 2.0 / (np.expm1(2.0 * v) + 2.0)
    dist_left = 2.0 / (np.expm1(-2.0 * v) + 2.0)
    w = h * 0.5 * np.pi * np.cosh(t) / np.cosh(v) ** 2
    keep = (w > 1e-290) & (dist_right > 1e-290) & (dist_left > 1e-290)
    cached = _cache[level] = k[keep], dist_left[keep], dist_right[keep], w[keep]
    return cached


def _level_nodes(level: int, added: bool):
    """``_rule(level)``, or with ``added`` its nodes at odd k only."""
    k, dl, dr, w = _rule(level)
    if not added:
        return k, dl, dr, w
    odd = slice(1 - k[0] % 2, None, 2)
    return k[odd], dl[odd], dr[odd], w[odd]


def _every_node(level: int, a: float, b: float, added: bool = False):
    """Every node of the rule mapped to [a, b], coinciding positions
    included: ``(x, dist_a, dist_b, weights)``, x non-decreasing.

    Weights include the interval scaling; ``sum(w * f(x))`` approximates
    the integral of f over [a, b].  With ``added`` only the nodes the level
    adds to ``level - 1``, those at odd k: half the previous level's sum
    plus their sum is the level's sum, up to the few outermost previous
    nodes whose halved weights fall below the cut-off.
    """
    _, dl, dr, w = _level_nodes(level, added)
    half = 0.5 * (b - a)
    da = half * dl
    db = half * dr
    x = np.where(dl <= dr, a + da, b - db)
    return x, da, db, w * half


def map_nodes(level: int, a: float, b: float, added: bool = False):
    """Nodes of the rule on [a, b] (with ``added``, those the level adds;
    see ``_every_node``), merged where they round onto one double:
    ``(positions, weights)``, the distinct positions in increasing order,
    each with the summed weight of its nodes.

    Each map is built once per ``(level, a, b, added)`` and kept in a
    bounded cache (``_MAP_CACHE_SIZE`` maps, least recently used out), so
    the arrays returned are read-only and shared between callers.
    """
    key = (level, a, b, added)
    hit = _maps.pop(key, None)
    if hit is None:
        hit = _merged(level, a, b, added)
        if len(_maps) >= _MAP_CACHE_SIZE:
            del _maps[next(iter(_maps))]
    _maps[key] = hit
    return hit


def _merged(level: int, a: float, b: float, added: bool):
    """``map_nodes``' map, built without the distances: the positions of
    ``_every_node`` half by half, since dl <= dr exactly where k <= 0."""
    k, dl, dr, w = _level_nodes(level, added)
    half = 0.5 * (b - a)
    mid = np.searchsorted(k, 0, "right")
    x = np.concatenate([a + half * dl[:mid], b - half * dr[mid:]])
    first = np.flatnonzero(np.concatenate([[True], x[1:] != x[:-1]]))
    x, w = x[first], np.add.reduceat(w * half, first)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _refine(part, first, accept):
    """Refine sums of several components over nested levels ``first`` to
    ``MAX_LEVEL``: the one loop behind ``integrate`` and the Lipschitz
    reducer.

    The levels are nested (Bailey, Jeyabalan & Li, Exp. Math. 14 (2005)
    317): the even-k nodes of a level are the nodes of the previous level
    at half the weights, so a level's sum is half the previous sum plus the
    sum over the odd-k nodes it adds (``map_nodes(..., added=True)``).
    ``part(level, added, rows)`` returns the sums over the level's nodes
    (over those it adds when ``added``) for the components ``rows``, one
    per entry of the first axis; ``rows`` is ``slice(None)`` until a
    component stops and an index array after.  A component whose sums
    ``cur`` pass ``accept(cur, prev, rows)`` against the previous level's
    keeps them and leaves the active rows, so each converges on its own,
    exactly as if it had been refined alone.

    Returns ``(sums, never)``: every component's sums, and the indices of
    those still active at ``MAX_LEVEL``, which keep that level's sums.
    """
    out = part(first, False, slice(None))
    active, rows = np.arange(len(out)), slice(None)  # rows: a view until one stops
    for level in range(first + 1, MAX_LEVEL + 1):
        prev = out[rows]
        cur = 0.5 * prev + part(level, True, rows)
        stop = accept(cur, prev, rows)
        out[rows] = cur  # only after accept: prev may be a view of out
        if np.count_nonzero(stop):
            rows = active = active[~stop]
        if not len(active):
            break
    return out, active


def integrate(f: Callable, a: float, b: float, rel_tol: float = 1e-13,
              with_distances: bool = False):
    """Integrate f over [a, b], refining the nested levels from
    ``MIN_LEVEL`` (``_refine``) until two consecutive levels agree to
    ``rel_tol`` (at most ``MAX_LEVEL``).  An absolute floor proportional to
    the integrand's L1 mass keeps exactly-cancelling integrals (odd moments
    of symmetric weights) from chasing their roundoff.

    f sees only the nodes each level adds, once per distinct position
    (``map_nodes``); with ``with_distances`` the distances tell coinciding
    nodes apart and f sees every node.  f may return shape ``(..., nodes)``:
    the value then has shape ``(...)`` and each component keeps the level
    at which it converged, so one call gives the same numbers as one scalar
    call per component.

    Returns ``(value, converged)``, ``converged`` being true when every
    component converged; the caller decides whether a non-converged result
    is an error.
    """
    if not b > a:
        return 0.0, True
    shape = ()

    def sums(level, added, rows):
        """Sum and L1 sum of each component over the level's nodes, or
        those it adds."""
        nonlocal shape
        if with_distances:
            x, da, db, w = _every_node(level, a, b, added)
            vals = np.asarray(f(x, da, db))
        else:
            x, w = map_nodes(level, a, b, added)
            vals = np.asarray(f(x))
        shape = vals.shape[:-1]
        both = np.array([np.sum(vals * w, axis=-1), np.sum(np.abs(vals) * w, axis=-1)])
        return both.reshape(2, -1).T[rows]

    def accept(cur, prev, rows):
        return (np.abs(cur[:, 0] - prev[:, 0])
                <= rel_tol * np.abs(cur[:, 0]) + 1e-15 * cur[:, 1].real + 1e-300)

    out, never = _refine(sums, MIN_LEVEL, accept)
    return out[:, 0].reshape(shape)[()], not len(never)


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
