"""Points, and the free radial channel kernels one order at a time.

The free resolvent (-Delta - z)^{-1} separates over angular channels into
radial kernels

    3D:  g_l(z; r, r')  =  i w j_l(w r_min) h_l^(1)(w r_max),
    2D:  g_n(z; r, r')  =  (i pi / 2) J_|n|(w r_min) H_|n|^(1)(w r_max),

with w = sqrt_upper(z).  radial_kernel_2d/3d are the one-order, one-radius
views of _radial.separable_kernels, the library's one evaluation of these
kernels: pointwise sums, boundary matrices and resolvent profiles all call
it, with many orders and energies in one call.  Their independent oracles
(the k-quadrature of the spectral integrals, and the free Green functions
the channel sums resum to) live with the tests, in tests/oracles.py.
The source sits on the equator (3D: (y0, pi/2, 0), 2D: polar angle pi/2),
so that rotation enters downstream purely as an energy shift per channel;
the channel sums and their tail bounds live in rotframe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._radial import separable_kernels
from .specfun import _require_integer

__all__ = [
    "Point2",
    "Point3",
    "TruncationError",
    "radial_kernel_2d",
    "radial_kernel_3d",
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


def require_off_axis_energy(z: complex) -> complex:
    """Reject spectral parameters on the real axis entirely."""
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"nonfinite spectral parameter {z!r}")
    if z.imag == 0.0:
        raise ValueError(f"spectral parameter {z!r} must have nonzero imaginary part")
    return z


def radial_kernel_3d(l: int, z: complex, r: float, rp: float) -> complex:
    """Radial channel kernel g_l(z; r, r') of the free 3D resolvent: the
    one-degree view of _radial.separable_kernels."""
    _require_integer("degree l", l)
    return complex(separable_kernels(3, l, z, r, rp))


def radial_kernel_2d(n: int, z: complex, r: float, rp: float) -> complex:
    """Radial channel kernel g_n(z; r, r') of the free 2D resolvent: the
    one-order view of _radial.separable_kernels."""
    _require_integer("channel n", n)
    return complex(separable_kernels(2, n, z, r, rp))
