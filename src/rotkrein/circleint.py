"""Interaction supported on the circle through the source point.

A delta shell of coupling gamma on the circle (2D) or sphere latitude circle
(3D) of radius y0 resolves channel by channel.  Per-channel coefficients,
with the dimension's own bookkeeping convention,

    3D:  Gamma_m(z)  =  gamma - 2 pi sum_l |Y_l^m(eq)|^2 g_l(z; y0, y0),
    2D:  Gamma_n(z)  =  1/gamma - g_n(z; y0, y0),

enter the resolvent as correction weight 2 pi / Gamma.  gamma_from_alpha
computes the coupling whose circle operator reproduces, in the fast-rotation
limit, the point interaction of parameter alpha; limits.point_convergence_study
measures how far the two resolvents are apart at finite speed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._radial import radial_apply, separable_kernels
from .greens import radial_kernel_2d
from .pointint import RadialChannelFunction, ResonanceError
from .rotframe import Truncation, _equatorial_sums
from .specfun import (
    ChannelIndex2,
    ChannelIndex3,
    _require_integer,
    channel_class,
    require_resolvent_energy,
)

__all__ = [
    "CircleParam",
    "gamma_coeff_2d",
    "gamma_coeff_3d",
    "apply_circle_resolvent",
    "gamma_from_alpha",
]


@dataclass(frozen=True)
class CircleParam:
    """Circle interaction: coupling gamma on the radius-y0 circle."""

    gamma: float
    radius: float
    dim: int

    def __post_init__(self) -> None:
        if not math.isfinite(self.gamma):
            raise ValueError(f"gamma must be finite and real, got {self.gamma}")
        if not (math.isfinite(self.radius) and self.radius > 0.0):
            raise ValueError(f"radius must be positive, got {self.radius}")
        channel_class(self.dim)


def gamma_coeff_3d(m: int, cp: CircleParam, z: complex, l_max: int) -> complex:
    """Channel coefficient Gamma_m(z) of the 3D circle interaction."""
    channel_class(3, cp)
    _require_integer("channel order m", m)
    _require_integer("l_max", l_max)
    z = require_resolvent_energy(z)
    return cp.gamma - 2.0 * math.pi * _equatorial_sums([(m, z)], cp.radius, l_max)[0]


def gamma_coeff_2d(n: int, cp: CircleParam, z: complex) -> complex:
    """Channel coefficient Gamma_n(z) of the 2D circle interaction."""
    channel_class(2, cp)
    _require_integer("channel n", n)
    if cp.gamma == 0.0:
        raise ValueError("gamma = 0 has no 2D channel coefficient")
    z = require_resolvent_energy(z)
    return 1.0 / cp.gamma - radial_kernel_2d(n, z, cp.radius, cp.radius)


def _gamma_for_channel(
    ch: ChannelIndex2 | ChannelIndex3, cp: CircleParam, z: complex, t: Truncation
) -> complex:
    if isinstance(ch, ChannelIndex2):
        return gamma_coeff_2d(ch.n, cp, z)
    return gamma_coeff_3d(ch.m, cp, z, t.require_l_max())


def apply_circle_resolvent(
    dim: int,
    psi: RadialChannelFunction,
    cp: CircleParam,
    z: complex,
    t: Truncation,
) -> RadialChannelFunction:
    """Apply the circle-interaction resolvent to a single-channel function.

    Returns the input channel's projection: the free part plus the channel's
    share of the shell correction, whose weight is exactly 2 pi / Gamma.  In
    3D the correction carries |Y_l0^m0(eq)|^2, so equatorially odd channels
    come back with the free part alone.
    """
    channel_class(dim, psi, cp)
    z = complex(z)
    if not z.imag > 0.0:
        raise ValueError("resolvent application needs Im z > 0")
    # One pass gives the free part on the grid and its value on the circle.
    vals = radial_apply(psi, z, np.append(psi.grid, cp.radius))
    free_vals, i_chi = vals[:-1], complex(vals[-1])
    gamma_ch = _gamma_for_channel(psi.channel, cp, z, t)
    scale = max(abs(cp.gamma) if dim == 3 else abs(1.0 / cp.gamma), 1.0)
    if abs(gamma_ch) < 1e-12 * scale:
        raise ResonanceError(
            f"channel coefficient Gamma = {gamma_ch:.3g} vanishes at z={z}"
        )
    if dim == 2:
        weight = 1.0 / gamma_ch  # (2 pi / Gamma) * (1/2 pi)
    else:
        weight = 2.0 * math.pi * psi.channel.source_weight() / gamma_ch
    corr = weight * i_chi * separable_kernels(dim, psi.order, z, psi.grid, cp.radius)
    return RadialChannelFunction(psi.channel, psi.grid, free_vals + corr, psi.weights)


def gamma_from_alpha(
    dim: int,
    alpha: float,
    y0: float,
    l_max: int = 64,
) -> float:
    """Circle coupling matched to a point interaction of parameter alpha.

    Real by construction: both dimensions reduce to
    tan(alpha/2) Im g + Re g evaluated at the reference parameter i on the
    circle radius, summed with equatorial weights in 3D.  alpha = pi has no
    finite matching coupling and is rejected.  The returned value slots into
    the dimension's own Gamma convention, so it can be used directly as
    CircleParam.gamma at the same truncation.
    """
    channel_class(dim)
    if not (0.0 <= alpha < 2.0 * math.pi):
        raise ValueError(f"alpha must lie in [0, 2*pi), got {alpha}")
    if abs(alpha - math.pi) < 1e-12:
        raise ValueError("alpha = pi is the free case; no matching circle coupling")
    _require_integer("l_max", l_max)
    if l_max < 0:
        raise ValueError(f"l_max must be nonnegative, got {l_max}")
    th = math.tan(0.5 * alpha)
    if dim == 2:
        g = radial_kernel_2d(0, 1j, y0, y0)
        val = th * g.imag + g.real
        if abs(val) < 1e-300:
            raise ResonanceError("matching integral vanishes; coupling diverges")
        return 1.0 / val
    g = _equatorial_sums([(0, 1j)], y0, l_max)[0]
    return 2.0 * math.pi * (th * g.imag + g.real)
