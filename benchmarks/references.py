"""Closed-form references that the benchmark checks chaincast's outputs against.

Nothing here imports chaincast, so a defect in the library cannot leak into
its own reference.  Every function returns plain numpy arrays.

Recurrence data use chaincast's convention: ``alpha[k], beta[k]`` for
k = 0..n-1, with ``beta[0]`` the total mass of the measure.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import brentq


def jacobi_power_law(c: float, s: float, cut: float, n: int):
    """Weight ``c * x**s`` on ``[0, cut]``: shifted Jacobi, exponents (0, s)."""
    k = np.arange(n, dtype=float)
    alpha_t = np.zeros(n)
    if s != 0.0:
        alpha_t = s * s / ((2 * k + s) * (2 * k + s + 2))
    m = k[1:]
    beta_t = 4 * m**2 * (m + s) ** 2 / ((2 * m + s) ** 2 * (2 * m + s + 1)
                                        * (2 * m + s - 1))
    alpha = 0.5 * cut * (1.0 + alpha_t)
    beta = np.concatenate([[c * cut ** (s + 1) / (s + 1)], 0.25 * cut * cut * beta_t])
    return alpha, beta


def laguerre(c: float, s: float, scale: float, n: int):
    """Weight ``c * x**s * exp(-x/scale)`` on ``[0, inf)``."""
    k = np.arange(n, dtype=float)
    alpha = scale * (2 * k + 1 + s)
    beta = scale * scale * k * (k + s)
    beta[0] = c * scale ** (s + 1) * math.gamma(s + 1)
    return alpha, beta


def legendre(height: float, lo: float, hi: float, n: int):
    """Constant weight ``height`` on ``[lo, hi]``."""
    k = np.arange(n, dtype=float)
    alpha = np.full(n, 0.5 * (lo + hi))
    beta = 0.25 * (hi - lo) ** 2 * k * k / (4 * k * k - 1)
    beta[0] = height * (hi - lo)
    return alpha, beta


def semicircle(c: float, a: float, b: float, n: int):
    """Weight ``c * sqrt((x-a)(b-x))`` on ``[a, b]``."""
    alpha = np.full(n, 0.5 * (a + b))
    beta = np.full(n, (b - a) ** 2 / 16.0)
    beta[0] = c * math.pi * (b - a) ** 2 / 8.0
    return alpha, beta


def piecewise_constant(pieces, n: int):
    """Weight ``h`` on each ``(lo, hi, h)`` of disjoint pieces.

    Gauss-Legendre with 2n points per piece integrates every polynomial of
    degree below 4n exactly against this weight, so the Stieltjes procedure
    on that discrete measure yields the exact coefficients up to rounding.
    """
    t, wt = np.polynomial.legendre.leggauss(2 * n)
    xs, ws = [], []
    for lo, hi, h in pieces:
        half = 0.5 * (hi - lo)
        xs.append(lo + half * (t + 1.0))
        ws.append(h * half * wt)
    x, w = np.concatenate(xs), np.concatenate(ws)
    shift = 0.5 * (x.min() + x.max())
    scale = 0.5 * (x.max() - x.min())
    u = (x - shift) / scale
    alpha, beta = np.zeros(n), np.zeros(n)
    p_prev, p_cur, norm_prev = np.zeros_like(u), np.ones_like(u), 1.0
    for k in range(n):
        wp2 = w * p_cur * p_cur
        norm = wp2.sum()
        alpha[k] = (u * wp2).sum() / norm
        beta[k] = norm if k == 0 else norm / norm_prev
        p_next = (u - alpha[k]) * p_cur - (beta[k] if k else 0.0) * p_prev
        p_prev, p_cur, norm_prev = p_cur, p_next, norm
    beta[1:] *= scale * scale
    return alpha * scale + shift, beta


def flat_residual(height: float, lo: float, hi: float, orders, y):
    """``J_n`` of a spectral density whose chain measure is the constant
    ``height / pi`` on ``[lo, hi]``, evaluated at chain-measure points ``y``.

    J_n = J_0 / ((P_{n-1} phi/2 - Q_{n-1})^2 + J_0^2 P_{n-1}^2) with
    Legendre P and Q and the closed-form reducer
    phi(y) = 2 (height/pi) ln((y - lo)/(hi - y)).
    """
    mu = height / math.pi
    top = max(orders)
    alpha, beta = legendre(mu, lo, hi, top + 1)
    t = np.sqrt(beta)
    p = [np.full_like(y, 1.0 / t[0])]
    q = [np.zeros_like(y)]
    if top >= 2:
        p.append((y - alpha[0]) * p[0] / t[1])
        q.append(np.full_like(y, t[0] / t[1]))
    for k in range(1, top - 1):
        p.append(((y - alpha[k]) * p[k] - t[k] * p[k - 1]) / t[k + 1])
        q.append(((y - alpha[k]) * q[k] - t[k] * q[k - 1]) / t[k + 1])
    phi = 2.0 * mu * np.log((y - lo) / (hi - y))
    j0 = height
    return {n: j0 / ((p[n - 1] * phi / 2 - q[n - 1]) ** 2 + (j0 * p[n - 1]) ** 2)
            for n in orders}


def gap_zero(pieces) -> float:
    """Zero of S(z) = sum (h/pi) ln|(z - lo)/(z - hi)| inside the first gap
    of the measure ``h/pi`` on each piece; S falls from +inf to -inf there."""
    (_, b, _), (c, _, _) = pieces[:2]

    def s(z):
        return sum(h / math.pi * math.log(abs((z - lo) / (z - hi))) for lo, hi, h in pieces)

    guard = 1e-12 * (c - b)
    return brentq(s, b + guard, c - guard, xtol=1e-15, rtol=1e-15)


def digits(value, reference, floor=None) -> float:
    """Correct digits of ``value``: -log10 of its worst relative deviation.

    ``floor`` replaces small reference entries in the denominator (for
    quantities that may pass near zero).  Capped at 16.
    """
    value = np.asarray(value, float)
    reference = np.asarray(reference, float)
    if value.shape != reference.shape or not np.all(np.isfinite(value)):
        return 0.0
    den = np.abs(reference)
    if floor is not None:
        den = np.maximum(den, floor)
    dev = float(np.max(np.abs(value - reference) / np.maximum(den, 1e-300)))
    return -math.log10(max(dev, 1e-16))
