"""Free and channel-resolved Green functions in two and three dimensions.

The free resolvent (-Delta - z)^{-1} has the closed kernels

    3D:  exp(i w |x - x'|) / (4 pi |x - x'|),      w = sqrt_upper(z),
    2D:  (i/4) H_0^(1)(w |x - x'|),

and separates over angular channels into radial kernels

    3D:  g_l(z; r, r')  =  i w j_l(w r_min) h_l^(1)(w r_max),
    2D:  g_n(z; r, r')  =  (i pi / 2) J_|n|(w r_min) H_|n|^(1)(w r_max),

The closed mode of radial_kernel_2d/3d is the one-order, one-radius view of
_radial.separable_kernels, the library's one evaluation of these kernels:
pointwise sums, boundary matrices and resolvent profiles all call it, with
many orders and energies in one call.  The kernels are also spectral
integrals over the radial continuum; mode="quadrature" evaluates that
integral and is kept only as the independent oracle of the closed form.
The source sits on the equator (3D: (y0, pi/2, 0), 2D: polar angle pi/2),
so that rotation enters downstream purely as an energy shift per channel;
the channel sums and their tail bounds live in rotframe.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
import scipy.special as sp

from ._quad import osc_integral
from ._radial import separable_kernels
from .specfun import SingularArgumentError, hankel1, require_resolvent_energy, sqrt_upper

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


def radial_kernel_3d(
    l: int, z: complex, r: float, rp: float, mode: str = "closed"
) -> complex:
    """Radial channel kernel g_l(z; r, r') of the free 3D resolvent.

    mode "closed" is the library's evaluation, the one-degree view of
    _radial.separable_kernels; "quadrature" integrates the spectral
    representation and serves as its oracle.
    """
    if mode == "closed":
        return complex(separable_kernels(3, l, z, r, rp))
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
        return complex(separable_kernels(2, n, z, r, rp))
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
