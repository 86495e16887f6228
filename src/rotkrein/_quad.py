"""Oscillatory k-axis quadrature for the radial spectral integrals.

The integrands are products of Bessel functions divided by (k^2 - z): a sharp
but integrable near-pole feature at k = |Re sqrt(z)| when Im z is small, then
slowly decaying oscillations with asymptotic period pi / (r + rp).  The head
is integrated on a pole-graded panel mesh, the tail on period-length panels
with epsilon-algorithm extrapolation of the partial sums.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .specfun import sqrt_upper

__all__ = ["osc_integral", "wynn_limit"]


def wynn_limit(s) -> complex:
    """Epsilon-algorithm limit of a sequence of partial sums."""
    n = len(s)
    e0 = np.zeros(n + 1, dtype=complex)
    e1 = np.array(s, dtype=complex)
    best = e1[-1]
    for k in range(1, n):
        e2 = np.empty(n - k, dtype=complex)
        ok = True
        for j in range(n - k):
            d = e1[j + 1] - e1[j]
            if d == 0 or not np.isfinite(d):
                ok = False
                break
            e2[j] = e0[j + 1] + 1.0 / d
        if not ok:
            break
        e0, e1 = e1, e2
        # Even columns of the epsilon table are the accelerated estimates.
        if k % 2 == 0 and len(e1):
            best = e1[-1]
    return complex(best)


def _panels_integrate(f: Callable, edges: np.ndarray, xg: np.ndarray, wg: np.ndarray) -> np.ndarray:
    """Gauss-Legendre integral of f over each panel [edges[i], edges[i+1]]."""
    a, b = edges[:-1], edges[1:]
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    k = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
    v = f(k).reshape(len(a), len(xg))
    return half * np.sum(wg[None, :] * v, axis=1)


def _graded_edges(kstar: float, pdist: float, hw: float, n_side: int = 18) -> np.ndarray:
    """Panel edges clustered toward k = kstar at scale pdist, half width hw."""
    t = np.sinh(np.linspace(0.0, np.arcsinh(hw / pdist), n_side)) * pdist
    return np.concatenate([kstar - t[::-1], kstar + t[1:]])


def osc_integral(
    f: Callable,
    z: complex,
    r: float,
    rp: float,
    decay_amp: float,
    decay_pow: float,
    tol_abs: float,
    k_max: float,
) -> complex:
    """Integrate f over (0, inf) for a kernel with a pole near |Re sqrt(z)|.

    decay_amp / k**decay_pow must bound |f| for large k; it sets where the
    panel-by-panel tail may be cut off.  k_max caps the tail extent;
    extrapolation absorbs the remainder.
    """
    w = sqrt_upper(complex(z))
    kstar, pdist = abs(w.real), max(abs(w.imag), 1e-8)
    xg, wg = np.polynomial.legendre.leggauss(24)
    sigma = r + rp
    period = np.pi / sigma
    k_far = max(2.0 * kstar + 2.0, 8.0)
    if kstar > 0.2:
        hw = min(1.0, kstar)
        pe = _graded_edges(kstar, min(pdist, 0.3), hw)
        pre = np.linspace(0.0, pe[0], max(3, int(pe[0] / min(period, 0.5)) + 1))
        post = np.linspace(pe[-1], k_far, max(3, int((k_far - pe[-1]) / min(period, 0.5)) + 1))
        edges = np.unique(np.concatenate([pre, pe, post]))
    else:
        edges = np.linspace(0.0, k_far, max(6, int(k_far / min(period, 0.5)) + 1))
    head = _panels_integrate(f, edges, xg, wg).sum()

    p = max(decay_pow - 1.0, 1.0)
    k_end = max(k_far + 40.0 * period, (decay_amp / (p * tol_abs)) ** (1.0 / p))
    k_end = min(k_end, max(k_max, k_far + 40.0 * period))
    n_tail = int(np.ceil((k_end - k_far) / period))
    n_tail = min(max(n_tail, 40), 3000)
    tedges = k_far + period * np.arange(n_tail + 1)
    sums = np.cumsum(_panels_integrate(f, tedges, xg, wg))
    tail = wynn_limit(sums[-40:])
    return complex(head + tail)
