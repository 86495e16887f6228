"""Point interaction in the rotating frame: coupling and resolvent.

The interaction of strength parameter alpha sits at the source point and its
resolvent differs from the rotating frame resolvent by a rank-one term,

    kernel(x, x')  =  G_z(x, x') + lambda(z, alpha) conj(G_zbar(x', y0)) G_z(x, y0),

with the scalar coupling pinned at the reference parameter -i,

    lambda(-i, alpha)  =  (1 + exp(i alpha)) / (2 i |G_-|^2),
    1/lambda(z)        =  1/lambda(-i) - (z + i) (G_z, G_-i)  (channel-exact),

where |G_-|^2 and the inner product are the windowed quantities from
rotframe.  alpha = pi switches the interaction off identically.
"""

from __future__ import annotations

import cmath
import logging
import math
from dataclasses import dataclass

import numpy as np

from ._radial import radial_apply, spline_interpolant, trapezoid_weights
from .greens import Point2, Point3, require_off_axis_energy, require_resolvent_energy
from .rotframe import (
    PointSource,
    RotationSpec,
    Truncation,
    channel_diag,
    rot_green,
)
from .specfun import ChannelIndex2, ChannelIndex3, sph_harm

__all__ = [
    "KreinParam",
    "RadialChannelFunction",
    "ResonanceError",
    "lambda_ref",
    "lambda_at",
    "krein_kernel",
    "apply_krein_resolvent",
]

logger = logging.getLogger(__name__)

_Z_REF = -1j


class ResonanceError(RuntimeError):
    """The coupling denominator vanished: z sits at an interaction resonance."""


@dataclass(frozen=True)
class KreinParam:
    """Interaction parameter alpha in [0, 2*pi); alpha = pi is the free case."""

    alpha: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.alpha) and 0.0 <= self.alpha < 2.0 * math.pi):
            raise ValueError(f"alpha must lie in [0, 2*pi), got {self.alpha}")

    @property
    def is_free(self) -> bool:
        return self.alpha == math.pi


@dataclass(eq=False)
class RadialChannelFunction:
    """Radial profile of a single angular channel.

    values[i] is the coefficient of the orthonormal angular factor
    (exp(i n theta)/sqrt(2 pi) in 2D, Y_l^m in 3D) at radius grid[i].
    weights, when given, are plain dr quadrature weights for the grid;
    norms carry the r^(dim-1) surface factor separately.
    """

    channel: ChannelIndex2 | ChannelIndex3
    grid: np.ndarray
    values: np.ndarray
    weights: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.grid = np.asarray(self.grid, dtype=float)
        self.values = np.asarray(self.values, dtype=complex)
        if self.grid.ndim != 1 or self.grid.shape != self.values.shape:
            raise ValueError("grid and values must be 1D arrays of equal length")
        if len(self.grid) < 2:
            raise ValueError("need at least two grid points")
        if not np.all(np.diff(self.grid) > 0.0):
            raise ValueError("grid must be strictly increasing")
        if self.grid[0] < 0.0:
            raise ValueError("radii must be nonnegative")
        if self.dim == 3 and self.grid[0] == 0.0:
            # The 3D kernels carry 1/sqrt(r r'), which has no value at r = 0.
            raise ValueError("3D channel function grid must start above r = 0")
        if self.weights is not None:
            self.weights = np.asarray(self.weights, dtype=float)
            if self.weights.shape != self.grid.shape:
                raise ValueError("weights must match the grid")

    @property
    def dim(self) -> int:
        return 2 if isinstance(self.channel, ChannelIndex2) else 3

    @property
    def order(self) -> int:
        """Radial kernel order: |n| in 2D, l in 3D."""
        if isinstance(self.channel, ChannelIndex2):
            return abs(self.channel.n)
        return self.channel.l

    def quad_weights(self) -> np.ndarray:
        if self.weights is not None:
            return self.weights
        return trapezoid_weights(self.grid)

    def interpolant(self):
        return spline_interpolant(self.grid, self.values)

    def norm_sq(self) -> float:
        w = self.quad_weights()
        return float(np.sum(w * np.abs(self.values) ** 2 * self.grid ** (self.dim - 1)))


def _channel_shift(ch: ChannelIndex2 | ChannelIndex3) -> int:
    """Rotation couples to the azimuthal index."""
    return ch.n if isinstance(ch, ChannelIndex2) else ch.m


def _inv_lambda_ref(
    dim: int, kp: KreinParam, rot: RotationSpec, src: PointSource, t: Truncation,
    mode: str,
) -> complex:
    # Windowed reference norm from the same channel sums as the continuation:
    # ||G_ref||^2 = sum_m Im ch_m(conj(ref) + m w).  Anything else (for example
    # a tail-completed norm) breaks the conjugation identity at the window edge.
    norm_sq = 0.0
    for m in range(-t.m_max, t.m_max + 1):
        norm_sq += channel_diag(
            dim, m, _Z_REF.conjugate() + m * rot.omega, src, t, mode
        ).imag
    return 2j * norm_sq / (1.0 + cmath.exp(1j * kp.alpha))


def lambda_ref(
    dim: int,
    kp: KreinParam,
    rot: RotationSpec,
    src: PointSource,
    t: Truncation,
    mode: str = "closed",
) -> complex:
    """Coupling at the reference parameter -i; zero exactly at alpha = pi."""
    if kp.is_free:
        return 0.0 + 0.0j
    return 1.0 / _inv_lambda_ref(dim, kp, rot, src, t, mode)


def lambda_at(
    dim: int,
    z: complex,
    kp: KreinParam,
    rot: RotationSpec,
    src: PointSource,
    t: Truncation,
    mode: str = "closed",
    via: complex | None = None,
) -> complex:
    """Coupling at spectral parameter z, continued from the reference point.

    The continuation subtracts channel diagonals at matched shifted energies,
    so the windowed identity is exact.  via routes the continuation through an
    intermediate parameter (the two routes must agree; useful as a check).
    A vanishing denominator raises ResonanceError, distinct from any
    quadrature failure; a merely tiny one is logged as a finding.
    """
    z = require_off_axis_energy(z)
    if kp.is_free:
        return 0.0 + 0.0j
    if via is not None:
        inv_via = 1.0 / lambda_at(dim, via, kp, rot, src, t, mode)
        z_from, inv_from = complex(via), inv_via
    else:
        z_from, inv_from = _Z_REF, _inv_lambda_ref(dim, kp, rot, src, t, mode)
    diff = 0.0 + 0.0j
    for m in range(-t.m_max, t.m_max + 1):
        diff += channel_diag(dim, m, z + m * rot.omega, src, t, mode)
        diff -= channel_diag(dim, m, z_from + m * rot.omega, src, t, mode)
    inv = inv_from - diff
    scale = max(abs(inv_from), abs(diff), 1e-300)
    if abs(inv) < 1e-14 * scale:
        raise ResonanceError(
            f"coupling denominator vanished at z={z}: interaction resonance"
        )
    if abs(inv) < 1e-12 * scale:
        logger.warning(
            "near-resonance at z=%s: |1/lambda| = %.3g against scale %.3g",
            z, abs(inv), scale,
        )
    return 1.0 / inv


def source_point(src: PointSource) -> Point2 | Point3:
    """The interaction site as a point, equatorial by convention."""
    if src.dim == 2:
        return Point2(src.y0, math.pi / 2.0)
    return Point3(src.y0, math.pi / 2.0, 0.0)


def krein_kernel(
    dim: int,
    z: complex,
    kp: KreinParam,
    rot: RotationSpec,
    x: Point2 | Point3,
    xp: Point2 | Point3,
    src: PointSource,
    t: Truncation,
    mode: str = "closed",
) -> complex:
    """Resolvent kernel of the interacting operator between two points."""
    z = require_resolvent_energy(z)
    free = rot_green(dim, z, rot, x, xp, t, mode)
    if kp.is_free:
        return free
    lam = lambda_at(dim, z, kp, rot, src, t, mode)
    y0pt = source_point(src)
    left = rot_green(dim, z, rot, x, y0pt, t, mode)
    right = rot_green(dim, np.conj(z), rot, xp, y0pt, t, mode)
    return free + lam * complex(np.conj(right)) * left


def apply_krein_resolvent(
    dim: int,
    psi: RadialChannelFunction,
    z: complex,
    kp: KreinParam,
    rot: RotationSpec,
    src: PointSource,
    t: Truncation,
    mode: str = "closed",
) -> tuple[RadialChannelFunction, complex]:
    """Apply the interacting resolvent to a single-channel function.

    The spectral parameter convention keeps the input channel at energy z:
    for channel shift m0 this is the resolvent of the operator shifted by
    m0*omega.  Returns the free part, which stays in the input channel and
    is sampled on the input grid, together with the rank-one coefficient
    that multiplies the rotating kernel at parameter z - m0*omega against
    the source.  At alpha = pi the coefficient is exactly zero.
    """
    if dim != psi.dim:
        raise ValueError(f"psi lives in dimension {psi.dim}, got dim={dim}")
    z = complex(z)
    if not z.imag > 0.0:
        raise ValueError("resolvent application needs Im z > 0")
    m0 = _channel_shift(psi.channel)
    order = psi.order
    f = psi.interpolant()
    rmax = float(psi.grid[-1])
    free_vals = radial_apply(dim, order, z, psi.grid, f, rmax=rmax)
    free = RadialChannelFunction(psi.channel, psi.grid, free_vals, psi.weights)
    if kp.is_free:
        return free, 0.0 + 0.0j
    lam = lambda_at(dim, z - m0 * rot.omega, kp, rot, src, t, mode)
    i_chi = complex(radial_apply(dim, order, z, np.array([src.y0]), f, rmax=rmax)[0])
    if dim == 2:
        n0 = psi.channel.n
        proj = cmath.exp(1j * n0 * math.pi / 2.0) / math.sqrt(2.0 * math.pi)
    else:
        proj = sph_harm(psi.channel.l, psi.channel.m, math.pi / 2.0, 0.0)
    return free, lam * proj * i_chi
