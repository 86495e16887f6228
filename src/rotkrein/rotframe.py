"""Resolvent of the rotating frame operator, channel by channel.

Rotation at angular speed omega enters each angular channel of the free
resolvent as an energy shift: channel m is evaluated at z + m*omega, with the
closed radial kernels of _radial.separable_kernels.  Each operation makes one
kernel call over its whole window, every (order, energy) pair at once:
rot_green over all (l, m) (and one spherical-harmonic call), the channel
diagonals of many (m, energy) pairs over every live degree of every pair
(_channel_diags, _equatorial_sums), with each order's equatorial weights
computed once.  rot_norm_sq is the one-energy view of _norm_sqs, which takes
the norms of many energies (an eps study) in one such call.
All operations here take an explicit channel window (Truncation); the
windowed object is the thing computed, and the norm and inner-product
reductions below are exact identities on that window.  _check_shell_tail is
the one tail model of the pointwise sums.

    rot_green      kernel sum over |m| <= m_max at shifted energies
    rot_norm_sq    squared L2 norm of the kernel against a point source,
                   via Im of the channel diagonals (first-resolvent identity)
    rot_inner      inner product of two such kernels, via diagonal differences
    remainder_norm norm of the kernel minus its central channel
"""

from __future__ import annotations

import cmath
import logging
import math
from dataclasses import dataclass

import numpy as np
import scipy.special as sp

from ._radial import separable_kernels
from .greens import (
    Point2,
    Point3,
    TruncationError,
    require_off_axis_energy,
    require_resolvent_energy,
)
from .specfun import _equatorial_weights, _require_integer, channel_class

__all__ = [
    "PointSource",
    "RotationSpec",
    "Truncation",
    "rot_green",
    "rot_norm_sq",
    "rot_inner",
    "remainder_norm",
    "channel_diag",
]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class RotationSpec:
    """Rotation speed omega >= 0."""

    omega: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.omega) and self.omega >= 0.0):
            raise ValueError(f"omega must be finite and nonnegative, got {self.omega}")


@dataclass(frozen=True)
class Truncation:
    """Channel window and tail policy.

    m_max caps the azimuthal window |m| <= m_max; l_max (3D only) caps the
    degree sums and must dominate m_max.  tail_tol bounds the estimated
    relative tail of pointwise kernel sums (rot_green); math.inf switches the
    check off.  The norm and inner-product reductions treat the window as the
    definition of the object and do not police it.
    """

    m_max: int
    l_max: int | None = None
    tail_tol: float = 1e-8

    def __post_init__(self) -> None:
        _require_integer("m_max", self.m_max)
        if self.l_max is not None:
            _require_integer("l_max", self.l_max)
        if self.m_max < 0:
            raise ValueError(f"m_max must be nonnegative, got {self.m_max}")
        if self.l_max is not None and self.l_max < self.m_max:
            raise ValueError(
                f"l_max={self.l_max} must be at least m_max={self.m_max}"
            )
        if not self.tail_tol > 0.0:
            raise ValueError("tail_tol must be positive")

    def require_l_max(self) -> int:
        if self.l_max is None:
            raise ValueError("3D operation needs l_max in the truncation")
        return self.l_max


@dataclass(frozen=True)
class PointSource:
    """Point interaction site at radius y0 > 0 on the equator."""

    y0: float
    dim: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.y0) and self.y0 > 0.0):
            raise ValueError(
                f"source radius must be strictly positive, got {self.y0}"
            )
        channel_class(self.dim)


def channel_diag(
    dim: int,
    m: int,
    zz: complex,
    src: PointSource,
    t: Truncation,
) -> complex:
    """Channel diagonal d_m(zz) of the free resolvent at the source point.

    3D: sum over degrees of |Y_l^m(eq)|^2 g_l(zz; y0, y0) up to t.l_max.
    2D: g_m(zz; y0, y0) / (2 pi).  The one-channel view of _channel_diags.
    """
    return _channel_diags(dim, [(m, zz)], src, t)[0]


def _channel_diags(dim: int, pairs: list, src: PointSource, t: Truncation) -> list:
    """channel_diag(dim, m, zz, src, t) for each (m, zz) of pairs, in order:
    one kernel evaluation over all pairs (3D: _equatorial_sums)."""
    if not pairs:
        return []
    if src.dim != dim:
        channel_class(dim, src)
    if dim == 2:
        gs = separable_kernels(2, [m for m, _ in pairs], [zz for _, zz in pairs], src.y0, src.y0)
        return (gs / (2.0 * math.pi)).tolist()
    return _equatorial_sums(pairs, src.y0, t.require_l_max())


def _live_degrees(m: int, l_max: int) -> tuple:
    """The degrees l = |m| .. l_max of nonzero weight |Y_l^m(eq)|^2, and those
    weights, as arrays in increasing l; the degrees of zero weight are never
    evaluated.  An order beyond the degree cap, |m| > l_max, has no degrees
    and raises."""
    if l_max < abs(m):
        raise ValueError(f"l_max={l_max} below channel order |m|={abs(m)}")
    wgt = np.array(_equatorial_weights(range(abs(m), l_max + 1), m))
    live = wgt != 0.0
    return np.arange(abs(m), l_max + 1)[live], wgt[live]


def _run_sums(terms: np.ndarray, counts: list) -> list:
    """Sums of the consecutive runs of terms, of the given positive lengths."""
    return np.add.reduceat(terms, np.cumsum([0] + counts[:-1])).tolist()


def _live_terms(pairs: list, y0: float, l_max: int) -> tuple:
    """The terms |Y_l^m(eq)|^2 g_l(zz; y0, y0) over the live degrees l of
    each (m, zz) of pairs, in pair order and increasing l, with their
    degrees and the number of terms of each pair: one kernel call, with the
    weights of each order m computed once."""
    live = {m: _live_degrees(m, l_max) for m in dict.fromkeys(m for m, _ in pairs)}
    counts = [len(live[m][0]) for m, _ in pairs]
    ls = np.concatenate([live[m][0] for m, _ in pairs])
    wgt = np.concatenate([live[m][1] for m, _ in pairs])
    g = separable_kernels(3, ls, np.repeat([zz for _, zz in pairs], counts), y0, y0)
    return ls, wgt * g, counts


def _equatorial_sums(pairs: list, y0: float, l_max: int) -> list:
    """sum over the live degrees l of |Y_l^m(eq)|^2 g_l(zz; y0, y0), for each
    (m, zz) of pairs."""
    _, terms, counts = _live_terms(pairs, y0, l_max)
    return _run_sums(terms, counts)


def _check_shell_tail(shells: dict[int, complex], total: complex, tail_tol: float) -> None:
    """Geometric tail estimate from the outermost window shells, per side.

    Per-shell magnitudes oscillate under the decay envelope, so each side is
    judged by the ratio of 3-shell block sums when the window allows it.
    """
    ms = sorted(shells)
    if len(ms) < 7:
        # Window too small for a sided estimate; the window is the object.
        return
    blocked = len(ms) >= 13
    est = 0.0
    for side in (ms[:6][::-1], ms[-6:]):
        # side runs inner to outer
        mags = [abs(shells[m]) for m in side]
        if blocked:
            inner, outer = sum(mags[:3]), sum(mags[3:])
            if outer == 0.0:
                continue
            if outer >= inner:
                est += math.inf
                continue
            ratio = outer / inner
            est += outer * ratio / (1.0 - ratio)
            continue
        mags = [m for m in mags[-3:] if m > 0.0]
        if not mags:
            continue
        if len(mags) < 3:
            est += max(mags)
            continue
        a, b, c = mags
        ratio = max(b / a, c / b)
        est += math.inf if ratio >= 1.0 else c * ratio / (1.0 - ratio)
    scale = max(abs(total), 1e-300)
    if est > tail_tol * scale:
        raise TruncationError(
            f"channel window tail estimate {est / scale:.3g} relative exceeds "
            f"{tail_tol:.3g}; widen m_max"
        )
    logger.debug("rot_green shell tail %.3g (relative %.3g)", est, est / scale)


def rot_green(
    dim: int,
    z: complex,
    rot: RotationSpec,
    x: Point3 | Point2,
    xp: Point3 | Point2,
    t: Truncation,
) -> complex:
    """Rotating-frame resolvent kernel between two points.

    Channel m contributes at shifted energy z + m*omega; the window is
    |m| <= t.m_max with the geometric tail of the outer shells checked
    against t.tail_tol.
    """
    channel_class(dim, x, xp)
    z = require_resolvent_energy(z)
    ms = range(-t.m_max, t.m_max + 1)
    if dim == 2:
        dtheta = x.theta - xp.theta
        gs = separable_kernels(2, list(ms), [z + m * rot.omega for m in ms], x.r, xp.r)
        shells = {m: cmath.exp(1j * m * dtheta) * g / (2.0 * math.pi)
                  for m, g in zip(ms, gs.tolist())}
    else:
        l_max = t.require_l_max()
        # Every (l, m) of the window, m outer: one kernel call at the shell
        # energies and one harmonic call at both points.
        counts = [l_max + 1 - abs(m) for m in ms]
        lm = np.array([(l, m) for m in ms for l in range(abs(m), l_max + 1)])
        zs = np.repeat([z + m * rot.omega for m in ms], counts)
        g = separable_kernels(3, lm[:, 0], zs, x.r, xp.r)
        ys = sp.sph_harm_y(lm[:, 0], lm[:, 1], [[x.theta], [xp.theta]], [[x.phi], [xp.phi]])
        # shell m: sum over l = |m| .. l_max of g_l Y_l^m(x) conj(Y_l^m(x'))
        shells = dict(zip(ms, _run_sums(g * ys[0] * np.conj(ys[1]), counts)))
    total = sum(shells.values())
    _check_shell_tail(shells, total, t.tail_tol)
    return complex(total)


def _power_law_tail(prof: np.ndarray, n_fit: int = 17) -> float:
    """Complete a degree profile beyond its cap by a power-law fit.

    Fits the last n_fit entries against l^-2, l^-3, l^-4 and sums the fitted
    model over the remaining degrees with Hurwitz zeta values.  Falls back to
    zero when the window is too short for a meaningful fit.
    """
    l_max = len(prof) - 1
    if l_max < n_fit + 6:
        return 0.0
    ls = np.arange(l_max - n_fit + 1, l_max + 1, dtype=float)
    ys = prof[l_max - n_fit + 1 :]
    basis = np.stack([ls**-2, ls**-3, ls**-4], axis=1)
    coef, *_ = np.linalg.lstsq(basis, ys, rcond=None)
    tail = sum(
        c * float(sp.zeta(p, l_max + 1)) for c, p in zip(coef, (2.0, 3.0, 4.0))
    )
    return float(tail)


def rot_norm_sq(
    dim: int,
    z: complex,
    rot: RotationSpec,
    src: PointSource,
    t: Truncation,
) -> float:
    """Squared norm of the windowed rotating kernel against the source.

    Reduces exactly to the Im parts of the channel diagonals at their shifted
    energies divided by Im z.  In 3D the degree cap is completed by a
    power-law tail fit; the azimuthal window is taken as given.  The
    one-energy view of _norm_sqs.
    """
    return _norm_sqs(dim, [z], rot, src, t)[0]


def _norm_sqs(dim: int, zs: list, rot: RotationSpec, src: PointSource, t: Truncation) -> list:
    """rot_norm_sq(dim, z, rot, src, t) for each z of zs.

    One kernel call over the shifted channel pairs of every energy, with
    each order's live degrees and weights computed once (_live_terms); each
    energy reduces its own terms in the one-energy order.  In 3D that is the
    degree profile S_l, the Im parts of each degree's terms added in
    increasing m, completed by _power_law_tail.
    """
    channel_class(dim, src)
    zs = [require_off_axis_energy(z) for z in zs]
    ms = range(-t.m_max, t.m_max + 1)
    pairs = [(m, z + m * rot.omega) for z in zs for m in ms]
    out = []
    if dim == 2:
        d = _channel_diags(2, pairs, src, t)
        for k, z in enumerate(zs):
            total = 0.0
            for dk in d[k * len(ms) : (k + 1) * len(ms)]:
                total += dk.imag / z.imag
            out.append(total)
        return out
    l_max = t.require_l_max()
    ls, terms, counts = _live_terms(pairs, src.y0, l_max)
    n = sum(counts[: len(ms)])  # terms per energy: each has the same live degrees
    for k, z in enumerate(zs):
        prof = np.zeros(l_max + 1)
        np.add.at(prof, ls[k * n : (k + 1) * n], terms[k * n : (k + 1) * n].imag / z.imag)
        tail = _power_law_tail(prof)
        logger.debug("rot_norm_sq degree tail %.3g of %.3g", tail, prof.sum())
        out.append(float(prof.sum() + tail))
    return out


def rot_inner(
    dim: int,
    z: complex,
    zp: complex,
    rot: RotationSpec,
    src: PointSource,
    t: Truncation,
) -> complex:
    """Inner product of windowed rotating kernels at parameters z and zp.

    Uses the first-resolvent identity channel by channel: the sum of
    [d_m(z + m w) - d_m(zp + m w)] / (z - zp).  Coincident parameters are
    rejected; use rot_norm_sq for the zp = conj(z) diagonal.
    """
    channel_class(dim, src)
    z = require_off_axis_energy(z)
    zp = require_off_axis_energy(zp)
    if z == zp:
        raise ValueError("coincident spectral parameters; no difference quotient")
    pairs = [(m, e + m * rot.omega) for m in range(-t.m_max, t.m_max + 1) for e in (z, zp)]
    d = _channel_diags(dim, pairs, src, t)
    acc = 0.0 + 0.0j
    for dz, dzp in zip(d[::2], d[1::2]):
        acc += dz - dzp
    return complex(acc / (z - zp))


def remainder_norm(
    dim: int,
    m0: int,
    z: complex,
    rot: RotationSpec,
    src: PointSource,
    t: Truncation,
) -> float:
    """Norm of the windowed rotating kernel minus its central channel m0.

    The resolvent here sits at spectral parameter z - m0*omega, so side
    channel m contributes at z + (m - m0)*omega and the central channel
    cancels exactly.  m0 must be an integer in the window, |m0| <= t.m_max;
    requires Im z > 0.
    """
    channel_class(dim, src)
    _require_integer("central channel m0", m0)
    if abs(m0) > t.m_max:
        raise ValueError(f"central channel m0={m0} lies outside the window |m| <= {t.m_max}")
    z = complex(z)
    if not z.imag > 0.0:
        raise ValueError("remainder norm needs Im z > 0")
    ms = [m for m in range(-t.m_max, t.m_max + 1) if m != m0]
    acc = 0.0
    for d in _channel_diags(dim, [(m, z + (m - m0) * rot.omega) for m in ms], src, t):
        acc += d.imag / z.imag
    if acc < 0.0:
        # Roundoff at severe cancellation; the exact value is nonnegative.
        acc = 0.0
    return math.sqrt(acc)
