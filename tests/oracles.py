"""Independent oracles of the library's closed kernels.

Nothing here runs in the library; the tests compare against it.

The k-quadrature route evaluates the free radial channel kernels as the
spectral integrals they are over the radial continuum,

    3D:  g_l(z; r, r')  =  (2/pi) int_0^inf j_l(k r) j_l(k r') k^2 / (k^2 - z) dk,
    2D:  g_n(z; r, r')  =  int_0^inf J_|n|(k r) J_|n|(k r') k / (k^2 - z) dk,

with a closed kernel subtracted (z = 0 in 3D, z = -1 in 2D) so the remainder
decays two powers of k faster.  The integrands have a sharp but integrable
near-pole feature at k = |Re sqrt(z)| when Im z is small, then slowly
decaying oscillations of asymptotic period pi / (r + r'): the head is
integrated on a pole-graded panel mesh, the tail on period-length panels
with epsilon-algorithm extrapolation of the partial sums.

The free Green functions are the closed kernels that the channel sums
resum to at omega = 0:

    3D:  exp(i w |x - x'|) / (4 pi |x - x'|),      w = sqrt_upper(z),
    2D:  (i/4) H_0^(1)(w |x - x'|).
"""

from __future__ import annotations

import cmath
import math
from typing import Callable

import numpy as np
import scipy.special as sp

from rotkrein.specfun import (
    SingularArgumentError,
    hankel1,
    require_resolvent_energy,
    sqrt_upper,
)

# The quadrature route: its k-axis cut-off, and the absolute tolerance that
# sets how far the oscillatory tail is resolved.
_K_MAX = 400.0
_ABS_TOL = 1e-10


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


def quadrature_kernel_3d(l: int, z: complex, r: float, rp: float) -> complex:
    """Radial channel kernel g_l(z; r, r') of the free 3D resolvent by
    k-quadrature; radii must be positive."""
    if l < 0:
        raise ValueError(f"degree must be nonnegative, got l={l}")
    z = require_resolvent_energy(z)
    if not (r >= 0.0 and rp >= 0.0):
        raise ValueError("radii must be nonnegative")
    if z.imag < 0.0:
        return complex(np.conj(quadrature_kernel_3d(l, np.conj(z), r, rp)))
    rmin, rmax = min(r, rp), max(r, rp)
    if rmin == 0.0:
        raise ValueError("the quadrature route requires strictly positive radii")
    # Subtract the z = 0 limit, which integrates in closed form; the remainder
    # gains two powers of k in decay.
    ws = rmin**l / ((2 * l + 1) * rmax ** (l + 1))

    def f(k):
        return sp.spherical_jn(l, k * r) * sp.spherical_jn(l, k * rp) / (k * k - z)

    tol = _ABS_TOL * (math.pi / 2.0) / max(abs(z), 1.0)
    corr = osc_integral(f, z, r, rp, 1.0 / (r * rp), 4.0, tol, _K_MAX)
    return ws + z * (2.0 / math.pi) * corr


def quadrature_kernel_2d(n: int, z: complex, r: float, rp: float) -> complex:
    """Radial channel kernel g_n(z; r, r') of the free 2D resolvent by
    k-quadrature; radii must be positive."""
    z = require_resolvent_energy(z)
    if not (r >= 0.0 and rp >= 0.0):
        raise ValueError("radii must be nonnegative")
    if z.imag < 0.0:
        return complex(np.conj(quadrature_kernel_2d(n, np.conj(z), r, rp)))
    nn = abs(n)
    rmin, rmax = min(r, rp), max(r, rp)
    if rmin == 0.0:
        raise ValueError("the quadrature route requires strictly positive radii")
    # Subtract the kernel at z = -1 (modified-Bessel closed form); the
    # difference carries the (z + 1) factor and decays two powers faster.
    base = sp.iv(nn, rmin) * sp.kn(nn, rmax)

    def f(k):
        return k * sp.jv(nn, k * r) * sp.jv(nn, k * rp) / ((k * k - z) * (k * k + 1.0))

    amp = 2.0 / (math.pi * math.sqrt(r * rp))
    tol = _ABS_TOL / max(abs(z + 1.0), 1.0)
    corr = osc_integral(f, z, r, rp, amp, 4.0, tol, _K_MAX)
    return base + (z + 1.0) * corr


def cartesian(x) -> np.ndarray:
    """Cartesian coordinates of a Point2 (r, theta) or Point3 (r, theta, phi)."""
    if x.dim == 2:
        return x.r * np.array([math.cos(x.theta), math.sin(x.theta)])
    st = math.sin(x.theta)
    return x.r * np.array(
        [st * math.cos(x.phi), st * math.sin(x.phi), math.cos(x.theta)]
    )


def free_green_3d(z: complex, x, xp) -> complex:
    """Free resolvent kernel exp(i w d) / (4 pi d) at d = |x - x'|."""
    z = require_resolvent_energy(z)
    d = float(np.linalg.norm(cartesian(x) - cartesian(xp)))
    if d == 0.0:
        raise SingularArgumentError("free kernel evaluated at coincident points")
    w = sqrt_upper(z)
    return cmath.exp(1j * w * d) / (4.0 * math.pi * d)


def free_green_2d(z: complex, x, xp) -> complex:
    """Free resolvent kernel (i/4) H_0^(1)(w d) at d = |x - x'|."""
    z = require_resolvent_energy(z)
    d = float(np.linalg.norm(cartesian(x) - cartesian(xp)))
    if d == 0.0:
        raise SingularArgumentError("free kernel evaluated at coincident points")
    return 0.25j * hankel1(0, sqrt_upper(z) * d)


def free_green_norm_sq_3d(z: complex) -> float:
    """Squared L2 norm of the free 3D kernel against a point, 1/(8 pi Im w)."""
    z = require_resolvent_energy(z)
    w = sqrt_upper(z)
    return 1.0 / (8.0 * math.pi * w.imag)
