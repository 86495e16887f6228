"""Interaction supported on the circle through the source point.

A delta shell of coupling gamma on the circle (2D) or sphere latitude circle
(3D) of radius y0 resolves channel by channel, with one coefficient formula
for both dimensions,

    Gamma_m(z)  =  circle_term(gamma) - 2 pi d_m(z),

d_m = sum |Y(src)|^2 g the channel diagonal of shift m (rotframe): 3D
gamma - 2 pi sum_l |Y_l^m(eq)|^2 g_l(z; y0, y0), 2D 1/gamma - g_n(z; y0, y0).
Gamma enters the resolvent as correction weight 2 pi / Gamma.
gamma_from_alpha computes the coupling whose circle operator reproduces, in
the fast-rotation limit, the point interaction of parameter alpha;
limits.point_convergence_study measures how far the two resolvents are
apart at finite speed.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from ._radial import radial_apply, separable_kernels
from .pointint import RadialChannelFunction, ResonanceError
from .rotframe import Truncation, _channel_diags
from .specfun import (
    _require_integer,
    channel_class,
    require_resolvent_energy,
    require_upper_energy,
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
    cls = channel_class(3, cp)
    _require_integer("channel order m", m)
    _require_integer("l_max", l_max)
    return _gamma(cls, m, cp, z, l_max)


def gamma_coeff_2d(n: int, cp: CircleParam, z: complex) -> complex:
    """Channel coefficient Gamma_n(z) of the 2D circle interaction."""
    cls = channel_class(2, cp)
    _require_integer("channel n", n)
    return _gamma(cls, n, cp, z)


def _gamma(cls: type, m: int, cp: CircleParam, z: complex, l_max: int | None = None) -> complex:
    """Gamma of shift m: the constant term less 2 pi d."""
    term = cls.circle_term(cp.gamma)
    z = require_resolvent_energy(z)
    return term - 2.0 * math.pi * _channel_diags(cls, [(m, z)], cp.radius, l_max)[0]


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
    come back with the free part alone.  A 2D coupling whose constant term
    1/gamma is not finite (gamma 0, or below about 5.6e-309 in size) raises
    ValueError, as in gamma_coeff_2d.
    """
    cls = channel_class(dim, psi, cp)
    z = require_upper_energy(z, "resolvent application")
    # One pass gives the free part on the grid and its value on the circle.
    vals = radial_apply(psi, z, np.append(psi.grid, cp.radius))
    free_vals, i_chi = vals[:-1], complex(vals[-1])
    ch = psi.channel
    gamma_ch = _gamma(cls, ch.shift, cp, z, t.l_max)
    scale = max(abs(cls.circle_term(cp.gamma)), 1.0)
    if abs(gamma_ch) < 1e-12 * scale:
        raise ResonanceError(
            f"channel coefficient Gamma = {gamma_ch:.3g} vanishes at z={z}"
        )
    # (2 pi / Gamma) times the source weight.
    weight = 2.0 * math.pi * ch.source_weight() / gamma_ch
    corr = weight * i_chi * separable_kernels(dim, psi.order, z, psi.grid, cp.radius)
    return RadialChannelFunction(ch, psi.grid, free_vals + corr, psi.weights)


def gamma_from_alpha(
    dim: int,
    alpha: float,
    y0: float,
    l_max: int = 64,
) -> float:
    """Circle coupling matched to a point interaction of parameter alpha.

    Real by construction: both dimensions reduce to the constant term
    2 pi (tan(alpha/2) Im d + Re d) of Gamma, with d the channel diagonal
    of shift 0 at the reference parameter i on the circle radius (2D:
    g_0 / (2 pi), 3D: summed with equatorial weights), and map it to the
    coupling by the class's circle_term, which is its own inverse.  alpha =
    pi has no finite matching coupling and is rejected, and so is a coupling
    of size 1e300 or more (2D: a vanishing constant term), and so is a
    radius y0 that is not a positive finite real.  The returned value slots
    into CircleParam.gamma at the same truncation.
    """
    cls = channel_class(dim)
    if not (isinstance(y0, numbers.Real) and math.isfinite(y0) and y0 > 0.0):
        raise ValueError(f"radius must be a positive finite real, got {y0!r}")
    if not (0.0 <= alpha < 2.0 * math.pi):
        raise ValueError(f"alpha must lie in [0, 2*pi), got {alpha}")
    if abs(alpha - math.pi) < 1e-12:
        raise ValueError("alpha = pi is the free case; no matching circle coupling")
    _require_integer("l_max", l_max)
    if l_max < 0:
        raise ValueError(f"l_max must be nonnegative, got {l_max}")
    th = math.tan(0.5 * alpha)
    d = _channel_diags(cls, [(0, 1j)], y0, l_max)[0]
    val = 2.0 * math.pi * (th * d.imag + d.real)
    try:
        gamma = cls.circle_term(val)
    except ValueError:  # no coupling has this term
        gamma = math.inf
    if not abs(gamma) < 1e300:
        raise ResonanceError("matching integral vanishes; coupling diverges")
    return gamma
