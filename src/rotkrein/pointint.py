"""Point interaction in the rotating frame: coupling and resolvent.

The interaction of strength parameter alpha sits at the source point and its
resolvent differs from the rotating frame resolvent by a rank-one term,

    kernel(x, x')  =  G_z(x, x') + lambda(z, alpha) conj(G_zbar(x', y0)) G_z(x, y0),

with the scalar coupling pinned at the reference parameter -i,

    lambda(-i, alpha)  =  (1 + exp(i alpha)) / (2 i |G_-|^2),
    1/lambda(z)        =  1/lambda(-i) - (z + i) (G_z, G_-i)  (channel-exact),

where |G_-|^2 and the inner product are the windowed quantities from
rotframe.  alpha = pi switches the interaction off identically.  lambda_at
is the one-energy view of _lambdas_at, which takes the couplings of many
(z, omega) rows from one channel-diagonal call, each row summed in the
one-row order and checked for resonance on its own.  Shift, order, angular
factor and source angles come from the specfun channel classes.
"""

from __future__ import annotations

import cmath
import logging
import math
from dataclasses import dataclass

import numpy as np

from ._radial import radial_apply, spline_interpolant, trapezoid_weights
from .greens import Point2, Point3, require_off_axis_energy
from .rotframe import (
    PointSource,
    RotationSpec,
    Truncation,
    _channel_diags,
    rot_green,
)
from .specfun import ChannelIndex2, ChannelIndex3, channel_class, require_resolvent_energy

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
    radius grid[i].
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


def _inv_lambda_ref(kp: KreinParam, ref_diags: list) -> complex:
    # Windowed reference norm from the same channel sums as the continuation:
    # ||G_ref||^2 = sum_m Im ch_m(conj(ref) + m w).  Anything else (for example
    # a tail-completed norm) breaks the conjugation identity at the window edge.
    norm_sq = 0.0
    for d in ref_diags:
        norm_sq += d.imag
    return 2j * norm_sq / (1.0 + cmath.exp(1j * kp.alpha))


def _ref_pairs(omega: float, t: Truncation) -> list:
    """(m, conj(ref) + m w) over the window: where the reference norm reads
    the channel diagonals."""
    return [(m, _Z_REF.conjugate() + m * omega) for m in range(-t.m_max, t.m_max + 1)]


def lambda_ref(
    dim: int,
    kp: KreinParam,
    rot: RotationSpec,
    src: PointSource,
    t: Truncation,
) -> complex:
    """Coupling at the reference parameter -i; zero exactly at alpha = pi."""
    if kp.is_free:
        return 0.0 + 0.0j
    return 1.0 / _inv_lambda_ref(kp, _channel_diags(dim, _ref_pairs(rot.omega, t), src, t))


def lambda_at(
    dim: int,
    z: complex,
    kp: KreinParam,
    rot: RotationSpec,
    src: PointSource,
    t: Truncation,
    via: complex | None = None,
) -> complex:
    """Coupling at spectral parameter z, continued from the reference point.

    The continuation subtracts channel diagonals at matched shifted energies,
    so the windowed identity is exact.  via routes the continuation through an
    intermediate parameter (the two routes must agree; useful as a check).
    A vanishing denominator raises ResonanceError, distinct from any
    quadrature failure; a merely tiny one is logged as a finding.  The
    one-energy view of _lambdas_at.
    """
    return _lambdas_at(dim, [z], kp, [rot], src, t, via)[0]


def _lambdas_at(
    dim: int,
    zs: list,
    kp: KreinParam,
    rots: list,
    src: PointSource,
    t: Truncation,
    via: complex | None = None,
) -> list:
    """lambda_at(dim, z, kp, rot, src, t, via) for each (z, rot) of zs and rots.

    One _channel_diags call over the reference and continuation pairs of
    every row; each row sums its own diagonals in the one-row order, so its
    coupling is the same bit for bit.  The first row whose denominator
    vanishes raises ResonanceError; the near-resonance findings are logged
    after every row has passed that check.
    """
    channel_class(dim, src)
    zs = [require_off_axis_energy(z) for z in zs]
    if kp.is_free:
        return [0.0 + 0.0j] * len(zs)
    ms = range(-t.m_max, t.m_max + 1)
    if via is not None:
        inv_from = [1.0 / lam for lam in _lambdas_at(dim, [via] * len(zs), kp, rots, src, t)]
        z_from, n_ref = complex(via), 0
    else:
        z_from, n_ref = _Z_REF, len(ms)
    # Per row: the reference pairs, then the pairs at z and z_from per
    # channel; each order's weights are shared by every pair.
    pairs = []
    for z, rot in zip(zs, rots):
        if n_ref:
            pairs += _ref_pairs(rot.omega, t)
        pairs += [(m, e + m * rot.omega) for m in ms for e in (z, z_from)]
    d = _channel_diags(dim, pairs, src, t)
    n = n_ref + 2 * len(ms)
    invs, scales = [], []
    for k in range(len(zs)):
        dk = d[k * n : (k + 1) * n]
        inv_k = _inv_lambda_ref(kp, dk[:n_ref]) if n_ref else inv_from[k]
        diff = 0.0 + 0.0j
        for d_z, d_from in zip(dk[n_ref::2], dk[n_ref + 1 :: 2]):
            diff += d_z
            diff -= d_from
        invs.append(inv_k - diff)
        scales.append(max(abs(inv_k), abs(diff), 1e-300))
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
    """Resolvent kernel of the interacting operator between two points."""
    cls = channel_class(dim, x, xp, src)
    z = require_resolvent_energy(z)
    free = rot_green(dim, z, rot, x, xp, t)
    if kp.is_free:
        return free
    lam = lambda_at(dim, z, kp, rot, src, t)
    # The interaction site, as a point of the same class as x.
    y0pt = type(x)(src.y0, *cls.source_angles)
    left = rot_green(dim, z, rot, x, y0pt, t)
    right = rot_green(dim, np.conj(z), rot, xp, y0pt, t)
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
    z = complex(z)
    if not z.imag > 0.0:
        raise ValueError("resolvent application needs Im z > 0")
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
