"""Free and channel-resolved Green functions in two and three dimensions.

The free resolvent (-Delta - z)^{-1} has the closed kernels

    3D:  exp(i w |x - x'|) / (4 pi |x - x'|),      w = sqrt_upper(z),
    2D:  (i/4) H_0^(1)(w |x - x'|),

and separates over angular channels into radial kernels

    3D:  g_l(z; r, r')  =  i w j_l(w r_min) h_l^(1)(w r_max),
    2D:  g_n(z; r, r')  =  (i pi / 2) J_|n|(w r_min) H_|n|^(1)(w r_max),

The library evaluates them in closed form, in one home per dimension that
takes an array of orders: _closed_3d the degrees l at one energy, _closed_2d
paired orders |n| and energies.  Each makes one ufunc call per Bessel factor
instead of one scalar call per term, keeps every check and branch of the
scalar specfun functions, and forms each term in Python complex arithmetic in
the scalar order, so every value equals the scalar composition bit for bit;
the closed mode of radial_kernel_2d/3d is their one-order view.  The kernels
are also spectral integrals over the radial continuum; mode="quadrature"
evaluates that integral and is kept only as the independent oracle of the
closed form.  The source sits on
the equator (3D: (y0, pi/2, 0), 2D: polar angle pi/2), so that rotation enters
downstream purely as an energy shift per channel; the channel sums and their
tail bounds live in rotframe.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
import scipy.special as sp

from ._quad import osc_integral
from .specfun import SingularArgumentError, _check_arg, hankel1, sqrt_upper

__all__ = [
    "Point2",
    "Point3",
    "TruncationError",
    "free_green_2d",
    "free_green_3d",
    "radial_kernel_2d",
    "radial_kernel_3d",
    "free_green_norm_sq_3d",
]


class TruncationError(RuntimeError):
    """A truncated channel sum could not meet its tail tolerance."""


@dataclass(frozen=True)
class Point3:
    """Point in spherical coordinates (r, theta, phi)."""

    r: float
    theta: float
    phi: float

    dim = 3

    def __post_init__(self) -> None:
        if not (self.r >= 0.0 and math.isfinite(self.r)):
            raise ValueError(f"radius must be finite and nonnegative, got {self.r}")
        if not 0.0 <= self.theta <= math.pi:
            raise ValueError(f"polar angle out of [0, pi]: {self.theta}")
        if not 0.0 <= self.phi < 2.0 * math.pi:
            raise ValueError(f"azimuth out of [0, 2*pi): {self.phi}")

    @property
    def angles(self) -> tuple:
        return (self.theta, self.phi)

    def cartesian(self) -> np.ndarray:
        st = math.sin(self.theta)
        return self.r * np.array(
            [st * math.cos(self.phi), st * math.sin(self.phi), math.cos(self.theta)]
        )


@dataclass(frozen=True)
class Point2:
    """Point in polar coordinates (r, theta)."""

    r: float
    theta: float

    dim = 2

    def __post_init__(self) -> None:
        if not (self.r >= 0.0 and math.isfinite(self.r)):
            raise ValueError(f"radius must be finite and nonnegative, got {self.r}")
        if not 0.0 <= self.theta < 2.0 * math.pi:
            raise ValueError(f"polar angle out of [0, 2*pi): {self.theta}")

    @property
    def angles(self) -> tuple:
        return (self.theta,)

    def cartesian(self) -> np.ndarray:
        return self.r * np.array([math.cos(self.theta), math.sin(self.theta)])


def require_resolvent_energy(z: complex) -> complex:
    """Reject spectral parameters on the essential spectrum [0, inf)."""
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"nonfinite spectral parameter {z!r}")
    if z.imag == 0.0 and z.real >= 0.0:
        raise ValueError(f"spectral parameter {z!r} lies on the essential spectrum")
    return z


def require_off_axis_energy(z: complex) -> complex:
    """Reject spectral parameters on the real axis entirely."""
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"nonfinite spectral parameter {z!r}")
    if z.imag == 0.0:
        raise ValueError(f"spectral parameter {z!r} must have nonzero imaginary part")
    return z


def free_green_3d(z: complex, x: Point3, xp: Point3) -> complex:
    """Free resolvent kernel exp(i w d) / (4 pi d) at d = |x - x'|."""
    z = require_resolvent_energy(z)
    d = float(np.linalg.norm(x.cartesian() - xp.cartesian()))
    if d == 0.0:
        raise SingularArgumentError("free kernel evaluated at coincident points")
    w = sqrt_upper(z)
    return cmath.exp(1j * w * d) / (4.0 * math.pi * d)


def free_green_2d(z: complex, x: Point2, xp: Point2) -> complex:
    """Free resolvent kernel (i/4) H_0^(1)(w d) at d = |x - x'|."""
    z = require_resolvent_energy(z)
    d = float(np.linalg.norm(x.cartesian() - xp.cartesian()))
    if d == 0.0:
        raise SingularArgumentError("free kernel evaluated at coincident points")
    return 0.25j * hankel1(0, sqrt_upper(z) * d)


# The quadrature route: its k-axis cut-off, and the absolute tolerance that
# sets how far the oscillatory tail is resolved.
_K_MAX = 400.0
_ABS_TOL = 1e-10


def _sph_j(ls, nu, x: complex) -> list:
    """j_l(x) for the degrees ls (nu = l + 1/2 each), routed as sph_bessel_j
    routes one degree: x = 0, parity for Re x < 0, the real axis, and one
    prefactored jv call otherwise."""
    if x == 0:
        return [1.0 + 0.0j if l == 0 else 0.0 + 0.0j for l in ls]
    if x.real < 0.0:
        return [(-1.0) ** l * j for l, j in zip(ls, _sph_j(ls, nu, -x))]
    if x.imag == 0.0:
        return [complex(j) for j in sp.spherical_jn(ls, x.real).tolist()]
    pre = cmath.sqrt(math.pi / 2.0 / x)
    return [pre * j for j in sp.jv(nu, x).tolist()]


def _closed_3d(ls, z: complex, r: float, rp: float) -> list:
    """Closed kernels g_l(z; r, r') = i w j_l(w r<) h_l^(1)(w r>) for the
    degrees ls at one energy, as Python complex numbers.

    Every degree shares w and the two arguments, so each check and branch
    runs once and each Bessel factor is one ufunc call over the degrees.
    The terms are formed in Python complex arithmetic in the order of the
    one-degree formula, so each equals 1j*w*sph_bessel_j*sph_hankel1 bit for
    bit.  An empty ls is an empty sum: nothing is checked.
    """
    if len(ls) == 0:
        return []
    for l in ls:
        if l < 0:
            raise ValueError(f"degree must be nonnegative, got l={l}")
    z = require_resolvent_energy(z)
    if not (r >= 0.0 and rp >= 0.0):
        raise ValueError("radii must be nonnegative")
    # Im z < 0: the conjugate of the kernel at conj(z).
    flip = z.imag < 0.0
    w = sqrt_upper(z.conjugate() if flip else z)
    nu = [l + 0.5 for l in ls]
    js = _sph_j(ls, nu, _check_arg(w * min(r, rp)))
    x = _check_arg(w * max(r, rp))
    if x == 0:
        raise SingularArgumentError("h_l^(1) is singular at x = 0")
    pre = cmath.sqrt(math.pi / 2.0 / x)
    c = 1j * w
    gs = [c * j * (pre * h) for j, h in zip(js, sp.hankel1(nu, x).tolist())]
    return [g.conjugate() for g in gs] if flip else gs


def _cyl_j(ns, xs) -> list:
    """J_n(x) for paired orders ns >= 0 and arguments xs, each routed as
    bessel_j routes it: parity for Re x < 0, a real argument on the real
    axis, complex otherwise; one jv call per route."""
    signs, args = [], []
    for n, x in zip(ns, xs):
        sign = None
        if x.real < 0.0:
            sign, x = (-1.0) ** (n % 2), -x
        signs.append(sign)
        args.append(x.real if x.imag == 0.0 else x)
    js = [None] * len(args)
    for route in (float, complex):
        idx = [i for i, x in enumerate(args) if type(x) is route]
        if idx:
            vals = sp.jv([ns[i] for i in idx], [args[i] for i in idx]).tolist()
            for i, j in zip(idx, vals):
                js[i] = complex(j) if signs[i] is None else signs[i] * complex(j)
    return js


def _closed_2d(ns, zs, r: float, rp: float) -> list:
    """Closed kernels g_n(z; r, r') = (i pi/2) J_|n|(w r<) H_|n|^(1)(w r>)
    for paired orders ns and energies zs, as Python complex numbers.

    Each pair is checked as one radial_kernel_2d call checks it: energy,
    radii, the conj(z) route for Im z < 0 and the argument bounds.  Then the
    J factors take one jv call per route and the H factors one hankel1 call,
    elementwise, and the terms are formed in Python complex arithmetic in
    the order of the one-order formula, so each equals
    0.5j*pi*bessel_j*hankel1 bit for bit.  An empty ns is an empty sum.
    """
    nn = [abs(n) for n in ns]
    if not nn:
        return []
    flip, xs, ys = [], [], []
    for z in zs:
        z = require_resolvent_energy(z)
        if not (r >= 0.0 and rp >= 0.0):
            raise ValueError("radii must be nonnegative")
        flip.append(z.imag < 0.0)
        w = sqrt_upper(z.conjugate() if z.imag < 0.0 else z)
        xs.append(_check_arg(w * min(r, rp)))
        ys.append(_check_arg(w * max(r, rp)))
        if ys[-1] == 0:
            raise SingularArgumentError("H_n^(1) is singular at x = 0")
    c = 0.5j * math.pi
    gs = [c * j * h for j, h in zip(_cyl_j(nn, xs), sp.hankel1(nn, ys).tolist())]
    return [g.conjugate() if f else g for g, f in zip(gs, flip)]


def radial_kernel_3d(
    l: int, z: complex, r: float, rp: float, mode: str = "closed"
) -> complex:
    """Radial channel kernel g_l(z; r, r') of the free 3D resolvent.

    mode "closed" is the library's evaluation, the one-degree view of the
    closed form evaluated over many degrees at once; "quadrature" integrates
    the spectral representation and serves as its oracle.
    """
    if mode == "closed":
        return _closed_3d([l], z, r, rp)[0]
    if l < 0:
        raise ValueError(f"degree must be nonnegative, got l={l}")
    z = require_resolvent_energy(z)
    if not (r >= 0.0 and rp >= 0.0):
        raise ValueError("radii must be nonnegative")
    if z.imag < 0.0:
        return complex(np.conj(radial_kernel_3d(l, np.conj(z), r, rp, mode)))
    rmin, rmax = min(r, rp), max(r, rp)
    if mode != "quadrature":
        raise ValueError(f"unknown mode {mode!r}")
    if rmin == 0.0:
        raise ValueError("quadrature mode requires strictly positive radii")
    # Subtract the z = 0 limit, which integrates in closed form; the remainder
    # gains two powers of k in decay.
    ws = rmin**l / ((2 * l + 1) * rmax ** (l + 1))

    def f(k):
        return sp.spherical_jn(l, k * r) * sp.spherical_jn(l, k * rp) / (k * k - z)

    tol = _ABS_TOL * (math.pi / 2.0) / max(abs(z), 1.0)
    corr = osc_integral(f, z, r, rp, 1.0 / (r * rp), 4.0, tol, _K_MAX)
    return ws + z * (2.0 / math.pi) * corr


def radial_kernel_2d(
    n: int, z: complex, r: float, rp: float, mode: str = "closed"
) -> complex:
    """Radial channel kernel g_n(z; r, r') of the free 2D resolvent; mode as
    in radial_kernel_3d."""
    if mode == "closed":
        return _closed_2d([n], [z], r, rp)[0]
    z = require_resolvent_energy(z)
    if not (r >= 0.0 and rp >= 0.0):
        raise ValueError("radii must be nonnegative")
    if z.imag < 0.0:
        return complex(np.conj(radial_kernel_2d(n, np.conj(z), r, rp, mode)))
    nn = abs(n)
    rmin, rmax = min(r, rp), max(r, rp)
    if mode != "quadrature":
        raise ValueError(f"unknown mode {mode!r}")
    if rmin == 0.0:
        raise ValueError("quadrature mode requires strictly positive radii")
    # Subtract the kernel at z = -1 (modified-Bessel closed form); the
    # difference carries the (z + 1) factor and decays two powers faster.
    base = sp.iv(nn, rmin) * sp.kn(nn, rmax)

    def f(k):
        return k * sp.jv(nn, k * r) * sp.jv(nn, k * rp) / ((k * k - z) * (k * k + 1.0))

    amp = 2.0 / (math.pi * math.sqrt(r * rp))
    tol = _ABS_TOL / max(abs(z + 1.0), 1.0)
    corr = osc_integral(f, z, r, rp, amp, 4.0, tol, _K_MAX)
    return base + (z + 1.0) * corr


def free_green_norm_sq_3d(z: complex) -> float:
    """Squared L2 norm of the free 3D kernel against a point, 1/(8 pi Im w)."""
    z = require_resolvent_energy(z)
    w = sqrt_upper(z)
    return 1.0 / (8.0 * math.pi * w.imag)
