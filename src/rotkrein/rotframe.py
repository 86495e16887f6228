"""Resolvent of the rotating frame operator, channel by channel.

Rotation at angular speed omega enters each angular channel of the free
resolvent as an energy shift: channel m is evaluated at z + m*omega, with the
closed radial kernels of _radial.separable_kernels.  Every 2D/3D fact (order,
orthonormal harmonic, source shell, window) comes from the specfun channel
classes, so each operation is one path for both, and makes one kernel call
over its whole window: rot_green over the window's index arrays (and one
harmonic call at both points; _rot_greens takes several point pairs, the
three sums of a Krein kernel, in one kernel call), the channel diagonals of
many (m, energy) pairs over the source shell of every pair.  A diagonal d is the shell sum
sum |Y(src)|^2 g (_channel_diags; circleint reads it too).  rot_norm_sq is
the one-energy view of _norm_sqs, which takes the norms of many energies.
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

import logging
import math
from dataclasses import dataclass

import numpy as np
import scipy.special as sp

from ._radial import _check_kernels, _kernels, separable_kernels
from .greens import Point2, Point3, TruncationError
from .specfun import (
    _NO_L_MAX,
    SingularArgumentError,
    _require_integer,
    channel_class,
    require_off_axis_energy,
    require_resolvent_energy,
    require_upper_energy,
)

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
            raise ValueError(_NO_L_MAX)
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
    _require_integer("channel order m", m)
    return _channel_diags(channel_class(dim, src), [(m, zz)], src.y0, t.l_max)[0]


def _run_sums(terms: np.ndarray, counts) -> np.ndarray:
    """Sums of the consecutive runs of terms, of the given positive lengths."""
    return np.add.reduceat(terms, np.cumsum(counts) - counts)


def _shell_terms(cls: type, pairs: list, y0: float, l_max: int | None) -> tuple:
    """Orders, terms (source weight) g(zz; y0, y0) and term counts of the
    source shell of each (m, zz) of pairs: one kernel call."""
    orders, wgt, counts = cls.source_shells([m for m, _ in pairs], l_max)
    g = separable_kernels(cls.dim, orders, np.repeat([zz for _, zz in pairs], counts), y0, y0)
    return orders, wgt * g, counts


def _channel_diags(cls: type, pairs: list, y0: float, l_max: int | None) -> list:
    """The channel diagonal d of each (m, zz) of pairs at radius y0, in
    order: the terms of its source shell added, one kernel call over all
    pairs."""
    if not pairs:
        return []
    return _run_sums(*_shell_terms(cls, pairs, y0, l_max)[1:]).tolist()


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
    against t.tail_tol.  The one-pair view of _rot_greens.
    """
    cls = channel_class(dim, x, xp)
    z = require_resolvent_energy(z)
    return next(_rot_greens(cls, z, rot, [(x, xp, False)], t))


def _rot_greens(cls: type, z: complex, rot: RotationSpec, pairs: list, t: Truncation):
    """rot_green of each (x, x', at_conj) of pairs in turn, at conj z where
    at_conj is set.

    One kernel call at the shift energies z + m omega of every channel of
    the window, over the radii of every pair (each J and H factor once per
    order, energy and radius), and one harmonic call at the distinct angles
    of the points.  The kernels at conj z + m omega are the conjugates of
    those at z + m omega, bit for bit, so a pair at conj z takes them
    conjugated.  Each pair's checks (SingularArgumentError, OverflowError,
    TruncationError) run when its value is taken, so a caller that takes
    the values one at a time orders the errors of its pairs.
    """
    orders, shifts = cls.window_indices(t)
    ms = range(-t.m_max, t.m_max + 1)
    counts = np.bincount(shifts + t.m_max)
    zs = z + shifts * rot.omega
    r = np.array([x.r for x, _, _ in pairs])
    rp = np.array([xp.r for _, xp, _ in pairs])
    try:
        g, finite = _kernels(cls.dim, orders, zs, r, rp)
    except SingularArgumentError:
        # An H factor at argument 0 (r = r' = 0, or w r underflows) is the
        # error of one pair: each pair takes its kernels at its turn.
        g, finite = None, False
    angles = list(dict.fromkeys(p.angles for pair in pairs for p in pair[:2]))
    ys = cls.harmonics(orders, shifts, *[[[a] for a in axis] for axis in zip(*angles)])
    for k, (x, xp, at_conj) in enumerate(pairs):
        gk = g[:, k] if g is not None else _kernels(cls.dim, orders, zs, r[k], rp[k])[0]
        gk = np.conj(gk) if at_conj else gk
        if not finite:
            _check_kernels(cls.dim, orders, np.conj(zs) if at_conj else zs, gk, x.r, xp.r)
        # shell m: the sum over its channels of g Y(x) conj(Y(x'))
        terms = gk * ys[angles.index(x.angles)] * np.conj(ys[angles.index(xp.angles)])
        shells = dict(zip(ms, _run_sums(terms, counts).tolist()))
        total = sum(shells.values())
        _check_shell_tail(shells, total, t.tail_tol)
        yield complex(total)


# The last degrees of a 3D norm's profile that its tail fit reads.
_N_FIT = 17
# The largest rounding bound, as a share of its norm, that a norm may carry.
_NOISE_SHARE = 1e-2


def _degree_norm(degrees: np.ndarray, v: np.ndarray, l_max: int) -> float:
    """The sum of the terms v of the given degrees, completed beyond l_max.

    The degree profile (v added per degree, in order) is fitted over its
    last _N_FIT degrees against l^-2, l^-3, l^-4, and the fitted model is
    summed over the remaining degrees with Hurwitz zeta values.  A window
    too short for a meaningful fit gets no tail.
    """
    prof = np.zeros(l_max + 1)
    np.add.at(prof, degrees, v)
    tail = 0.0
    if l_max >= _N_FIT + 6:
        ls = np.arange(l_max - _N_FIT + 1, l_max + 1, dtype=float)
        basis = np.stack([ls**-2, ls**-3, ls**-4], axis=1)
        coef, *_ = np.linalg.lstsq(basis, prof[l_max - _N_FIT + 1 :], rcond=None)
        tail = float(sum(c * float(sp.zeta(p, l_max + 1)) for c, p in zip(coef, (2.0, 3.0, 4.0))))
    logger.debug("rot_norm_sq degree tail %.3g of %.3g", tail, prof.sum())
    return float(prof.sum() + tail)


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
    one-energy view of _norm_sqs.  A norm whose rounding bound is over
    _NOISE_SHARE of it, whatever its sign (a source near the origin), raises
    ValueError.
    """
    (val,), (bound,) = _norm_sqs(dim, [z], rot, src, t)
    if not bound <= _NOISE_SHARE * val:
        raise ValueError(f"squared norm {val:.6g} at z={z} has a rounding bound {bound:.3g}, "
                         f"over {_NOISE_SHARE:g} of it, at y0={src.y0:g}")
    return val


def _norm_sqs(dim: int, zs: list, rot: RotationSpec, src: PointSource, t: Truncation) -> tuple:
    """rot_norm_sq(dim, z, rot, src, t) for each z of zs, and a bound on
    the rounding of each window sum: eps sum |d| / |Im z| over its terms.

    One kernel call over the shifted channel pairs of every energy; each
    energy sums its own terms Im d / Im z in the one-energy order: the
    window's in 2D, and where the window cuts a degree series (3D), per
    degree in increasing m, completed by _degree_norm.  Each term's Im part
    carries a rounding error of about eps |d|, which outgrows the norm
    where Re d is large against Im d (a source near the origin, where Re d
    grows as 1/y0 in 3D).
    """
    cls = channel_class(dim, src)
    zs = [require_off_axis_energy(z) for z in zs]
    ms = range(-t.m_max, t.m_max + 1)
    pairs = [(m, z + m * rot.omega) for z in zs for m in ms]
    orders, d, counts = _shell_terms(cls, pairs, src.y0, t.l_max)
    n = sum(counts[: len(ms)])  # terms per energy: each has the same shells
    out, noise = [], []
    for k, z in enumerate(zs):
        dk = d[k * n : (k + 1) * n]
        ls, v = orders[k * n : (k + 1) * n], dk.imag / z.imag
        # np.cumsum adds the terms one after the other, as a loop would.
        out.append(_degree_norm(ls, v, t.l_max) if cls.capped_degrees else float(np.cumsum(v)[-1]))
        noise.append(float(np.finfo(float).eps * np.abs(dk).sum() / abs(z.imag)))
    return out, noise


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
    cls = channel_class(dim, src)
    z = require_off_axis_energy(z)
    zp = require_off_axis_energy(zp)
    if z == zp:
        raise ValueError("coincident spectral parameters; no difference quotient")
    pairs = [(m, e + m * rot.omega) for m in range(-t.m_max, t.m_max + 1) for e in (z, zp)]
    d = _channel_diags(cls, pairs, src.y0, t.l_max)
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
    cls = channel_class(dim, src)
    _require_integer("central channel m0", m0)
    if abs(m0) > t.m_max:
        raise ValueError(f"central channel m0={m0} lies outside the window |m| <= {t.m_max}")
    z = require_upper_energy(z, "remainder norm")
    ms = [m for m in range(-t.m_max, t.m_max + 1) if m != m0]
    acc = 0.0
    for d in _channel_diags(cls, [(m, z + (m - m0) * rot.omega) for m in ms], src.y0, t.l_max):
        acc += d.imag / z.imag
    if acc < 0.0:
        # Roundoff at severe cancellation; the exact value is nonnegative.
        acc = 0.0
    return math.sqrt(acc)
