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

The spherical Bessel functions of the 3D factors, j_l and h_l = h_l^(1) at
any complex argument, come from mpmath at 30 digits: j from besselj at the
top two degrees and the downward recurrence (j is the minimal solution, so
downward is stable), h from its closed forms h_0, h_1 and the upward
recurrence (h is the dominant one), both carried with guard digits.  The 3D
factors and kernels of the library are those functions at w r, with the
root w and the argument w r the library's own doubles.

The Krein coupling continued through any intermediate parameter w,

    1/lambda(z)  =  1/lambda(w) - sum_m [d_m(z + m omega) - d_m(w + m omega)],

from public channel diagonals, is the library's direct continuation from -i
(path independence).

radial_apply's product integration with one 8-point Gauss rule on every
interval (fixed_rule_integrals) is the reference of its sized rules.
"""

from __future__ import annotations

import cmath
import functools
import math
from typing import Callable

import mpmath
import numpy as np
import scipy.special as sp

from rotkrein import _radial, channel_diag, lambda_at
from rotkrein.specfun import (
    SingularArgumentError,
    hankel1,
    require_resolvent_energy,
    sqrt_upper,
)

@functools.lru_cache(maxsize=4096)
def _sph_bessel_jh_mp(top: int, x: complex, dps: int) -> tuple:
    """sph_bessel_jh as lists of mpmath numbers (x is used as given)."""
    with mpmath.workdps(dps + top // 2 + 15):
        z = mpmath.mpc(x)
        pre = mpmath.sqrt(mpmath.pi / (2 * z))
        above, j = pre * mpmath.besselj(top + 1.5, z), pre * mpmath.besselj(top + 0.5, z)
        js = [j]
        for l in range(top, 0, -1):
            above, j = j, (2 * l + 1) / z * j - above
            js.append(j)
        e = mpmath.exp(1j * z)
        hs = [-1j * e / z, -e * (z + 1j) / z**2]
        for l in range(1, top):
            hs.append((2 * l + 1) / z * hs[-1] - hs[-2])
        return js[::-1], hs[: top + 1]


def sph_bessel_jh(top: int, x: complex, dps: int = 30) -> tuple:
    """j_l(x) and h_l(x) = h_l^(1)(x), l = 0 .. top, at a nonzero complex x,
    to dps digits, as complex doubles (0 or inf where they leave the range).

    j: j_top and j_{top+1} by mpmath.besselj (sqrt(pi / 2x) J_{l+1/2}, DLMF
    10.47.3), then j_{l-1} = (2l + 1)/x j_l - j_{l+1} downward.  h: h_0 =
    -i e^{ix} / x, h_1 = -e^{ix} (x + i) / x^2 (DLMF 10.49.6), then h_{l+1}
    = (2l + 1)/x h_l - h_{l-1} upward.  The guard digits cover the rounding
    both recurrences carry."""
    js, hs = _sph_bessel_jh_mp(top, complex(x), dps)
    return np.array([complex(v) for v in js]), np.array([complex(v) for v in hs])


def root(z: complex) -> complex:
    """The root of one energy that every Bessel factor takes, by specfun's
    scalar route: sqrt_upper(z), or of conj z where Im z < 0.  The reference
    of _radial._roots, which roots many energies in one array pass."""
    return sqrt_upper(z.conjugate() if z.imag < 0.0 else z)


def sph_factors_3d(top: int, w: complex, r: float) -> tuple:
    """The 3D factors of _radial._factors at the root w (Im w >= 0) and a
    radius r > 0, degrees 0 .. top: (i pi / 2) sqrt(2 w / pi) j_l(w r) and
    sqrt(2 w / pi) h_l(w r) (J_{l+1/2}(w r) / sqrt(r) = sqrt(2 w / pi)
    j_l(w r)), at the double w r, as complex doubles: 0 or inf where they
    leave the range."""
    js, hs = _sph_bessel_jh_mp(top, complex(w * r), 30)
    scale = mpmath.sqrt(2 * mpmath.mpc(w) / mpmath.pi)
    return (np.array([complex(0.5j * mpmath.pi * scale * v) for v in js]),
            np.array([complex(scale * v) for v in hs]))


def kernel_3d(l: int, z: complex, r: float, rp: float, top: int | None = None) -> tuple:
    """The 3D channel kernel i w j_l(w r<) h_l(w r>) at the library's root
    and arguments, after its energy and radius checks (conj z where Im z <
    0, conjugated back), with a scale for its error: |i w j_l h_l|, or
    where w r< lies near the real axis in j_l's oscillation (|Im w r<| <= 1,
    |w r<| > l) |w h_l(w r<) h_l(w r>)|, the envelope of j there.  r< = 0,
    or a w r< that underflows to 0, takes j_l(0), 1 for l = 0 and else 0.  The functions are taken from the
    tables up to degree top (default l), so that the kernels of many
    degrees at one argument share one table."""
    z = require_resolvent_energy(z)
    if not (r >= 0.0 and rp >= 0.0):
        raise ValueError("radii must be nonnegative")
    if z.imag < 0.0:
        g, scale = kernel_3d(l, z.conjugate(), r, rp, top)
        return g.conjugate(), scale
    top = l if top is None else top
    w = sqrt_upper(z)
    lo, hi = min(r, rp), max(r, rp)
    if w * hi == 0.0:
        raise SingularArgumentError("h_l^(1) is singular at x = 0")
    mw = mpmath.mpc(w)
    h = _sph_bessel_jh_mp(top, complex(w * hi), 30)[1][l]
    x = complex(w * lo)
    if x == 0.0:  # r< = 0, or w r< underflows: j_l(0)
        g = complex(1j * mw * h) if l == 0 else 0.0j
        return g, abs(g)
    js, hs = _sph_bessel_jh_mp(top, x, 30)
    near_real = abs(x.imag) <= 1.0 and abs(x) > l
    scale = abs(mw * (hs[l] if near_real else js[l]) * h)
    return complex(1j * mw * js[l] * h), float(scale)


def rot_green_3d(z: complex, omega: float, x, xp, m_max: int, l_max: int) -> complex:
    """The windowed 3D rotating kernel sum_{|m| <= m_max} sum_{l = |m|}^{l_max}
    g_l(z + m omega; r, r') Y_l^m(x) conj Y_l^m(x'), with each g_l the
    mpmath kernel_3d and Y_l^m by scipy's sph_harm_y, shell by shell."""
    total = 0.0j
    for m in range(-m_max, m_max + 1):
        for l in range(abs(m), l_max + 1):
            g = kernel_3d(l, z + m * omega, x.r, xp.r)[0]
            total += (g * complex(sp.sph_harm_y(l, m, x.theta, x.phi))
                      * complex(sp.sph_harm_y(l, m, xp.theta, xp.phi)).conjugate())
    return total


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


def lambda_via(dim: int, z: complex, w: complex, kp, rot, src, t) -> complex:
    """The coupling at z continued from lambda_at(w) by the channel
    diagonals at z + m omega and w + m omega (public channel_diag), added
    channel by channel in the library's per-channel order."""
    diff = 0.0 + 0.0j
    for m in range(-t.m_max, t.m_max + 1):
        diff += channel_diag(dim, m, z + m * rot.omega, src, t)
        diff -= channel_diag(dim, m, w + m * rot.omega, src, t)
    return 1.0 / (1.0 / lambda_at(dim, w, kp, rot, src, t) - diff)


def fixed_rule_integrals(dim: int, orders, w, flip, a, b, need_j, need_h, nodes,
                         f=None, cells=None) -> tuple:
    """_radial._integrals with one 8-point Gauss rule on every interval, as
    radial_apply integrated before its rules were sized: the same
    arguments, with the node counts and the knot intervals ignored (f is
    evaluated with its own search), and the library's factors."""
    x, wx = np.polynomial.legendre.leggauss(8)
    half = 0.5 * (b - a)[:, None]
    t = 0.5 * (a + b)[:, None] + half * x
    wf = half * wx
    if f is not None:
        wf = wf * f(t)
    wf = wf * t ** (dim - 1)
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        jt, ht = _radial._factors(dim, orders, w, flip, t,
                                  np.broadcast_to(need_j[:, None], t.shape),
                                  np.broadcast_to(need_h[:, None], t.shape))
        return np.sum(jt * wf, axis=-1), np.sum(ht * wf, axis=-1)
