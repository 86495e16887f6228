"""Free and channel-resolved Green functions in two and three dimensions.

The free resolvent (-Delta - z)^{-1} has the closed kernels

    3D:  exp(i w |x - x'|) / (4 pi |x - x'|),      w = sqrt_upper(z),
    2D:  (i/4) H_0^(1)(w |x - x'|),

and separates over angular channels into radial kernels

    3D:  g_l(z; r, r')  =  i w j_l(w r_min) h_l^(1)(w r_max),
    2D:  g_n(z; r, r')  =  (i pi / 2) J_|n|(w r_min) H_|n|^(1)(w r_max),

which are also spectral integrals over the radial continuum; both routes are
implemented and cross-checked.  Channel Green functions against a fixed point
source carry the angular factors, with the source placed on the equator
(3D: (y0, pi/2, 0), 2D: polar angle pi/2) so that rotation enters downstream
purely as an energy shift per channel.
"""

from __future__ import annotations

import cmath
import logging
import math
from dataclasses import dataclass

import numpy as np
import scipy.special as sp

from ._quad import _panels_integrate, osc_integral
from .specfun import (
    ChannelIndex2,
    ChannelIndex3,
    SingularArgumentError,
    bessel_j,
    hankel1,
    sph_bessel_j,
    sph_hankel1,
    sph_harm,
    sqrt_upper,
)

__all__ = [
    "KQuadrature",
    "Point2",
    "Point3",
    "TruncationError",
    "free_green_2d",
    "free_green_3d",
    "radial_kernel_2d",
    "radial_kernel_3d",
    "channel_green_2d",
    "channel_green_3d",
    "free_green_norm_sq_3d",
]

logger = logging.getLogger(__name__)

# Source angles as the channel classes state them: polar angle pi/2 in 2D,
# the equator at phi = 0 in 3D.  Phases are absorbed into the channel kernels.
(SOURCE_THETA_2D,) = ChannelIndex2.source_angles
SOURCE_ANGLES_3D = ChannelIndex3.source_angles


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


@dataclass(frozen=True)
class KQuadrature:
    """Controls for the radial spectral-integral route.

    rule "adaptive" grades panels into the near-pole region and extrapolates
    the oscillatory tail; "fixed-node" integrates uniform panels up to k_max
    only.
    """

    rule: str = "adaptive"
    k_max: float = 400.0
    rel_tol: float = 1e-8
    abs_tol: float = 1e-10

    def __post_init__(self) -> None:
        if self.rule not in ("adaptive", "fixed-node"):
            raise ValueError(f"unknown quadrature rule {self.rule!r}")
        if not self.k_max > 0.0:
            raise ValueError("k_max must be positive")
        if not (self.rel_tol > 0.0 and self.abs_tol > 0.0):
            raise ValueError("tolerances must be positive")


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


def _fixed_node_integral(f, period: float, k_max: float) -> complex:
    xg, wg = np.polynomial.legendre.leggauss(24)
    n_panels = max(8, int(k_max / min(period, 0.5)) + 1)
    edges = np.linspace(0.0, k_max, n_panels + 1)
    return complex(np.sum(_panels_integrate(f, edges, xg, wg)))


def radial_kernel_3d(
    l: int,
    z: complex,
    r: float,
    rp: float,
    mode: str = "closed",
    q: KQuadrature | None = None,
) -> complex:
    """Radial channel kernel g_l(z; r, r') of the free 3D resolvent."""
    if l < 0:
        raise ValueError(f"degree must be nonnegative, got l={l}")
    z = require_resolvent_energy(z)
    if not (r >= 0.0 and rp >= 0.0):
        raise ValueError("radii must be nonnegative")
    if z.imag < 0.0:
        return complex(np.conj(radial_kernel_3d(l, np.conj(z), r, rp, mode, q)))
    rmin, rmax = min(r, rp), max(r, rp)
    if mode == "closed":
        w = sqrt_upper(z)
        return 1j * w * sph_bessel_j(l, w * rmin) * sph_hankel1(l, w * rmax)
    if mode != "quadrature":
        raise ValueError(f"unknown mode {mode!r}")
    if q is None:
        q = KQuadrature()
    if rmin == 0.0:
        raise ValueError("quadrature mode requires strictly positive radii")
    # Subtract the z = 0 limit, which integrates in closed form; the remainder
    # gains two powers of k in decay.
    ws = rmin**l / ((2 * l + 1) * rmax ** (l + 1))

    def f(k):
        return sp.spherical_jn(l, k * r) * sp.spherical_jn(l, k * rp) / (k * k - z)

    if q.rule == "fixed-node":
        corr = _fixed_node_integral(f, math.pi / (r + rp), q.k_max)
    else:
        amp = 1.0 / (r * rp)
        tol = q.abs_tol * (math.pi / 2.0) / max(abs(z), 1.0)
        corr = osc_integral(f, z, r, rp, amp, 4.0, tol, k_max=q.k_max)
    return ws + z * (2.0 / math.pi) * corr


def radial_kernel_2d(
    n: int,
    z: complex,
    r: float,
    rp: float,
    mode: str = "closed",
    q: KQuadrature | None = None,
) -> complex:
    """Radial channel kernel g_n(z; r, r') of the free 2D resolvent."""
    z = require_resolvent_energy(z)
    if not (r >= 0.0 and rp >= 0.0):
        raise ValueError("radii must be nonnegative")
    if z.imag < 0.0:
        return complex(np.conj(radial_kernel_2d(n, np.conj(z), r, rp, mode, q)))
    nn = abs(n)
    rmin, rmax = min(r, rp), max(r, rp)
    if mode == "closed":
        w = sqrt_upper(z)
        return 0.5j * math.pi * bessel_j(nn, w * rmin) * hankel1(nn, w * rmax)
    if mode != "quadrature":
        raise ValueError(f"unknown mode {mode!r}")
    if q is None:
        q = KQuadrature()
    if rmin == 0.0:
        raise ValueError("quadrature mode requires strictly positive radii")
    # Subtract the kernel at z = -1 (modified-Bessel closed form); the
    # difference carries the (z + 1) factor and decays two powers faster.
    base = sp.iv(nn, rmin) * sp.kn(nn, rmax)

    def f(k):
        return k * sp.jv(nn, k * r) * sp.jv(nn, k * rp) / ((k * k - z) * (k * k + 1.0))

    if q.rule == "fixed-node":
        corr = _fixed_node_integral(f, math.pi / (r + rp), q.k_max)
    else:
        amp = 2.0 / (math.pi * math.sqrt(r * rp))
        tol = q.abs_tol / max(abs(z + 1.0), 1.0)
        corr = osc_integral(f, z, r, rp, amp, 4.0, tol, k_max=q.k_max)
    return base + (z + 1.0) * corr


def _geometric_tail(mags: list[float]) -> float:
    """Tail bound from the last retained term magnitudes, geometric model.

    Magnitudes oscillate under the decay envelope (parity structure of the
    angular factors), so the ratio is taken between 3-term blocks rather
    than consecutive terms.
    """
    tail_terms = [m for m in mags if m > 0.0]
    if not tail_terms:
        return 0.0
    if len(tail_terms) < 3:
        return tail_terms[-1]
    if len(tail_terms) < 6:
        a, b, c = tail_terms[-3:]
        ratio = max(b / a, c / b)
        if ratio >= 1.0:
            return math.inf
        return c * ratio / (1.0 - ratio)
    s1 = sum(tail_terms[-6:-3])
    s2 = sum(tail_terms[-3:])
    if s2 >= s1:
        return math.inf
    ratio = s2 / s1
    return s2 * ratio / (1.0 - ratio)


def channel_green_3d(
    m: int,
    z: complex,
    x: Point3,
    y0: float,
    l_max: int,
    mode: str = "closed",
    q: KQuadrature | None = None,
    tail_tol: float = 1e-8,
) -> complex:
    """Channel-m Green function against the equatorial source at radius y0.

    Sums g_l(z; r, y0) Y_l^m(theta, phi) conj(Y_l^m(pi/2, 0)) over degrees
    l = |m| .. l_max.  The tail beyond l_max is estimated geometrically from
    the last retained nonzero terms; a relative estimate above tail_tol
    raises, since the result would not be trustworthy at that truncation.
    """
    z = require_resolvent_energy(z)
    if y0 <= 0.0:
        raise ValueError("source radius must be positive")
    if l_max < abs(m):
        raise ValueError(f"l_max={l_max} below channel order |m|={abs(m)}")
    acc = 0.0 + 0.0j
    mags: list[float] = []
    eq_theta, eq_phi = SOURCE_ANGLES_3D
    for l in range(abs(m), l_max + 1):
        if (l + m) % 2 != 0:
            continue
        y_eq = sph_harm(l, m, eq_theta, eq_phi)
        term = (
            radial_kernel_3d(l, z, x.r, y0, mode, q)
            * sph_harm(l, m, x.theta, x.phi)
            * y_eq.conjugate()
        )
        acc += term
        mags.append(abs(term))
    tail = _geometric_tail(mags)
    scale = max(abs(acc), 1e-300)
    if tail > tail_tol * scale:
        raise TruncationError(
            f"l-sum tail estimate {tail / scale:.3g} relative exceeds "
            f"{tail_tol:.3g} at l_max={l_max} (channel m={m})"
        )
    logger.debug("channel_green_3d m=%d l_max=%d tail=%.3g", m, l_max, tail)
    return acc


def channel_green_2d(
    n: int,
    z: complex,
    x: Point2,
    y0: float,
    mode: str = "closed",
    q: KQuadrature | None = None,
) -> complex:
    """Channel-n Green function against the source at polar angle pi/2."""
    z = require_resolvent_energy(z)
    if y0 <= 0.0:
        raise ValueError("source radius must be positive")
    phase = cmath.exp(1j * n * (x.theta - SOURCE_THETA_2D))
    return phase * radial_kernel_2d(n, z, x.r, y0, mode, q) / (2.0 * math.pi)


def free_green_norm_sq_3d(z: complex) -> float:
    """Squared L2 norm of the free 3D kernel against a point, 1/(8 pi Im w)."""
    z = require_resolvent_energy(z)
    w = sqrt_upper(z)
    return 1.0 / (8.0 * math.pi * w.imag)
