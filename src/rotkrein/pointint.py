"""Point interaction in the rotating frame: coupling and resolvent.

The interaction of strength parameter alpha sits at the source point and its
resolvent differs from the rotating frame resolvent by a rank-one term,

    kernel(x, x')  =  G_z(x, x') + lambda(z, alpha) conj(G_zbar(x', y0)) G_z(x, y0),

with the scalar coupling pinned at the reference parameter -i,

    lambda(-i, alpha)  =  (1 + exp(i alpha)) / (2 i |G_-|^2),
    1/lambda(z)        =  1/lambda(-i) - (z + i) (G_z, G_-i)  (channel-exact),

where |G_-|^2 and the inner product are the windowed quantities from
rotframe.  alpha = pi switches the interaction off identically.  lambda_ref
is lambda_at at -i, and lambda_at, whose one route is the continuation from
-i, is the one-energy view of _lambdas_at, which takes the couplings of many
(z, omega) rows from one channel-diagonal call, each row summed in the
one-row order and checked for resonance on its own; the diagonals at -i,
where the continuation starts, are the conjugates of those of |G_-|^2.
krein_kernel takes its three rotating sums from one kernel call.  Shift,
order, angular factor and source angles come from the specfun channel
classes.
"""

from __future__ import annotations

import cmath
import logging
import math
from dataclasses import dataclass

import numpy as np

from ._radial import radial_apply, spline_interpolant, trapezoid_weights
from .greens import Point2, Point3
from .rotframe import (
    PointSource,
    RotationSpec,
    Truncation,
    _channel_diags,
    _rot_greens,
    rot_green,
)
from .specfun import (
    ChannelIndex2,
    ChannelIndex3,
    channel_class,
    require_off_axis_energy,
    require_resolvent_energy,
    require_upper_energy,
)

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

    values[i] is the coefficient of the channel's orthonormal angular factor
    (channel.angular: exp(i n theta)/sqrt(2 pi) in 2D, Y_l^m in 3D) at
    radius grid[i].  A grid may start at r = 0 in both dimensions.
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
        if self.weights is not None:
            self.weights = np.asarray(self.weights, dtype=float)
            if self.weights.shape != self.grid.shape:
                raise ValueError("weights must match the grid")
        for name, v in (("grid", self.grid), ("values", self.values), ("weights", self.weights)):
            if v is not None and not np.isfinite(v).all():
                raise ValueError(f"channel function {name} must be finite")

    @property
    def dim(self) -> int:
        return self.channel.dim

    @property
    def order(self) -> int:
        """Radial kernel order: |n| in 2D, l in 3D."""
        return self.channel.order

    def quad_weights(self) -> np.ndarray:
        if self.weights is not None:
            return self.weights
        return trapezoid_weights(self.grid)

    def interpolant(self):
        return spline_interpolant(self.grid, self.values)

    def norm_sq(self) -> float:
        w = self.quad_weights()
        return float(np.sum(w * np.abs(self.values) ** 2 * self.grid ** (self.dim - 1)))


def lambda_ref(
    dim: int,
    kp: KreinParam,
    rot: RotationSpec,
    src: PointSource,
    t: Truncation,
) -> complex:
    """Coupling at the reference parameter -i: lambda_at there."""
    return lambda_at(dim, _Z_REF, kp, rot, src, t)


def lambda_at(
    dim: int,
    z: complex,
    kp: KreinParam,
    rot: RotationSpec,
    src: PointSource,
    t: Truncation,
) -> complex:
    """Coupling at spectral parameter z, continued from the reference point.

    The continuation subtracts channel diagonals at matched shifted energies,
    so the windowed identity is exact; at z = -i it subtracts exact
    conjugates and leaves the reference coupling.  A vanishing denominator
    raises ResonanceError, distinct from any quadrature failure; a merely
    tiny one is logged as a finding.  The one-energy view of _lambdas_at.
    """
    return _lambdas_at(dim, [z], kp, [rot], src, t)[0]


def _lambdas_at(
    dim: int,
    zs: list,
    kp: KreinParam,
    rots: list,
    src: PointSource,
    t: Truncation,
) -> list:
    """lambda_at(dim, z, kp, rot, src, t) for each (z, rot) of zs and rots.

    One _channel_diags call over two shells per window channel of every
    row: the reference diagonals at conj(-i) + m w, then those at z + m w.
    The reference ones give the windowed reference norm,
    ||G_ref||^2 = sum_m Im d_m(conj(-i) + m w), and their conjugates are
    the diagonals at -i + m w where the continuation starts (one root,
    conjugated factors).  Anything else, for example a tail-completed norm,
    breaks the conjugation identity at the window edge.  Each row sums its
    own diagonals in the one-row order, so its coupling is the same bit for
    bit.  The first row whose denominator vanishes raises ResonanceError;
    the near-resonance findings are logged after every row has passed that
    check.
    """
    cls = channel_class(dim, src)
    zs = [require_off_axis_energy(z) for z in zs]
    if kp.is_free:
        return [0.0 + 0.0j] * len(zs)
    ms = range(-t.m_max, t.m_max + 1)
    n = len(ms)
    # Each order's weights are shared by every pair.
    pairs = [(m, e + m * rot.omega)
             for z, rot in zip(zs, rots) for e in (_Z_REF.conjugate(), z) for m in ms]
    d = _channel_diags(cls, pairs, src.y0, t.l_max)
    invs, scales = [], []
    for k in range(0, len(d), 2 * n):
        ref, d_zs = d[k : k + n], d[k + n : k + 2 * n]
        norm_sq = 0.0
        for d_ref in ref:
            norm_sq += d_ref.imag
        inv_ref = 2j * norm_sq / (1.0 + cmath.exp(1j * kp.alpha))
        diff = 0.0 + 0.0j
        for d_z, d_ref in zip(d_zs, ref):
            diff += d_z
            diff -= d_ref.conjugate()
        invs.append(inv_ref - diff)
        scales.append(max(abs(inv_ref), abs(diff), 1e-300))
    for z, inv, scale in zip(zs, invs, scales):
        if abs(inv) < 1e-14 * scale:
            raise ResonanceError(
                f"coupling denominator vanished at z={z}: interaction resonance"
            )
    for z, inv, scale in zip(zs, invs, scales):
        if abs(inv) < 1e-12 * scale:
            logger.warning(
                "near-resonance at z=%s: |1/lambda| = %.3g against scale %.3g",
                z, abs(inv), scale,
            )
    return [1.0 / inv for inv in invs]


def krein_kernel(
    dim: int,
    z: complex,
    kp: KreinParam,
    rot: RotationSpec,
    x: Point2 | Point3,
    xp: Point2 | Point3,
    src: PointSource,
    t: Truncation,
) -> complex:
    """Resolvent kernel of the interacting operator between two points.

    free + lambda(z) conj(G_conj z(x', y0)) G_z(x, y0), the three rotating
    sums from one kernel call (rotframe._rot_greens: G at conj z is the
    conjugate of G at z, channel by channel).  Errors come in the order of
    the terms: the free sum's checks, then the coupling's (ResonanceError),
    then the overflow and tail checks of the left and right sums.
    """
    cls = channel_class(dim, x, xp, src)
    z = require_resolvent_energy(z)
    if kp.is_free:
        return rot_green(dim, z, rot, x, xp, t)
    # The interaction site, as a point of the same class as x.
    y0pt = type(x)(src.y0, *cls.source_angles)
    sums = _rot_greens(cls, z, rot, [(x, xp, False), (x, y0pt, False), (xp, y0pt, True)], t)
    free = next(sums)
    lam = lambda_at(dim, z, kp, rot, src, t)
    left, right = sums
    return free + lam * complex(np.conj(right)) * left


def apply_krein_resolvent(
    dim: int,
    psi: RadialChannelFunction,
    z: complex,
    kp: KreinParam,
    rot: RotationSpec,
    src: PointSource,
    t: Truncation,
) -> tuple[RadialChannelFunction, complex]:
    """Apply the interacting resolvent to a single-channel function.

    The spectral parameter convention keeps the input channel at energy z:
    for channel shift m0 this is the resolvent of the operator shifted by
    m0*omega.  Returns the free part, which stays in the input channel and
    is sampled on the input grid, together with the rank-one coefficient
    that multiplies the rotating kernel at parameter z - m0*omega against
    the source.  At alpha = pi the coefficient is exactly zero.
    """
    channel_class(dim, psi, src)
    z = require_upper_energy(z, "resolvent application")
    ch = psi.channel
    # One pass gives the free part on the grid and its value at the source.
    vals = radial_apply(psi, z, np.append(psi.grid, src.y0))
    free = RadialChannelFunction(ch, psi.grid, vals[:-1], psi.weights)
    if kp.is_free:
        return free, 0.0 + 0.0j
    lam = lambda_at(dim, z - ch.shift * rot.omega, kp, rot, src, t)
    i_chi = complex(vals[-1])
    proj = ch.angular(*ch.source_angles)
    return free, lam * proj * i_chi
