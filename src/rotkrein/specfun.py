"""Special functions on the complex upper half plane.

Everything downstream evaluates Bessel-type kernels at arguments w * r where
w is the upper square root of a spectral parameter, so the functions here are
written for complex arguments with Im >= 0 and validated there.  Real negative
arguments of the regular Bessel functions are handled by parity reflection
(the functions are entire); the outgoing Hankel combinations are only ever
called off the negative real axis.

The scalar Bessel and Hankel functions are the public one-term API; no
library code calls them (the channel kernels evaluate their Bessel factors
over arrays in _radial.separable_kernels), so their |Im x| backstop guards
this API only.  They stay public, and the benchmark tracer wraps them by
name.  Equatorial weights are evaluated over the degrees of many shells
at once (_equatorial_weights); equatorial_weight is its one-degree view.
A window's spherical harmonics are read off one sph_harm_y_all triangle
per angle (ChannelIndex3.harmonics); sph_harm evaluates one by itself, and
is the angular factor of one 3D channel.  The channel classes state every
fact of a channel that differs by dimension; every channel harmonic they
give is orthonormal, exp(i n theta)/sqrt(2 pi) on the circle and Y_l^m on
the sphere, so no sum over channels divides by a norm.
The require_*_energy checks of a spectral parameter live here, and every
module imports them from here.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass

import numpy as np
import scipy.special as sp

__all__ = [
    "ChannelIndex2",
    "ChannelIndex3",
    "channel_class",
    "SingularArgumentError",
    "sqrt_upper",
    "sph_bessel_j",
    "sph_hankel1",
    "bessel_j",
    "hankel1",
    "sph_harm",
    "equatorial_weight",
]

_NO_L_MAX = "3D operation needs l_max in the truncation"

# Beyond this the Bessel factors overflow double precision; callers are expected
# to stay within |Im x| <= 50 or so, this is a hard backstop.
_IM_MAX = 600.0

_SQRT_2PI = math.sqrt(2.0 * math.pi)


class SingularArgumentError(ValueError):
    """Evaluation requested at a singular point of the function."""


def _require_integer(name: str, v) -> None:
    """Reject a degree, order or cap that is not an integer (numpy integers pass)."""
    if not isinstance(v, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {v!r}")


def _require_integers(ch) -> None:
    """Reject channel indices that are not integers."""
    for name, v in vars(ch).items():
        _require_integer(f"channel index {name}", v)


class _Channel:
    """The one-channel views of the array facts of a channel class."""

    def angular(self, *angles) -> complex:
        """The orthonormal angular factor at the angles."""
        return complex(self.harmonics(self.order, self.shift, *angles))

    def source_weight(self) -> float:
        return float(self.source_weights([self.order], self.shift)[0])


@dataclass(frozen=True)
class ChannelIndex2(_Channel):
    """Angular channel n on the circle, and what a channel means in 2D.

    Rotation couples to shift = n (channel n sits at z + n w), the radial
    kernel has order |n|, and the harmonic exp(i n theta) / sqrt(2 pi) is
    orthonormal on the circle.  The interaction site sits at polar angle
    source_angles = (pi/2,), where |harmonic|^2 = source_weight() = 1/(2 pi).
    A circle coupling enters as 1/gamma (circle_term: Gamma_n = 1/gamma - g_n).
    """

    n: int

    dim = 2
    source_angles = (math.pi / 2.0,)
    capped_degrees = False

    def __post_init__(self) -> None:
        _require_integers(self)

    @property
    def shift(self) -> int:
        return self.n

    @property
    def order(self) -> int:
        return abs(self.n)

    @property
    def label(self) -> str:
        return f"n={self.n}"

    @staticmethod
    def circle_term(gamma: float) -> float:
        """Gamma's constant term 1/gamma of a circle coupling gamma; the map
        is its own inverse, so it also takes that term to the coupling.
        ValueError where 1/gamma is not finite (|gamma| below ~5.6e-309)."""
        if gamma == 0.0:
            raise ValueError("gamma = 0 has no 2D channel coefficient")
        if not math.isfinite(1.0 / gamma):
            raise ValueError(f"gamma = {gamma!r} has no finite 2D channel coefficient")
        return 1.0 / gamma

    @staticmethod
    def source_weights(orders, shift) -> np.ndarray:
        """|harmonic|^2 at the source of the given orders: 1/(2 pi)."""
        return np.full(len(orders), 1.0 / (2.0 * math.pi))

    @staticmethod
    def source_shells(shifts, l_max=None) -> tuple:
        """Orders, source weights and sizes of the source shells of the
        shifts n, concatenated: each is the one order |n|, of weight
        1/(2 pi)."""
        ns = np.asarray(shifts)
        return np.abs(ns), np.full(ns.shape, 1.0 / (2.0 * math.pi)), np.ones(ns.shape, dtype=int)

    @staticmethod
    def harmonics(orders, shifts, theta) -> np.ndarray:
        """exp(i n theta) / sqrt(2 pi) of each shift n, broadcast against
        theta.  Each part is divided by the root (numpy's complex / real
        would multiply by its reciprocal), as Python divides a complex."""
        e = np.exp(1j * np.asarray(shifts) * theta)
        out = np.empty(e.shape, dtype=complex)
        out.real, out.imag = e.real / _SQRT_2PI, e.imag / _SQRT_2PI
        return out

    @classmethod
    def window(cls, t) -> list:
        """Channels |n| <= t.m_max, in increasing n."""
        return [cls(n) for n in cls.window_indices(t)[1].tolist()]

    @staticmethod
    def window_indices(t) -> tuple:
        """Orders and shifts of window(t), as arrays in its order."""
        ns = np.arange(-t.m_max, t.m_max + 1)
        return np.abs(ns), ns

    @classmethod
    def cutoff(cls, cap: int, t) -> list:
        """Sharp cutoff |n| <= min(cap, t.m_max), in increasing n."""
        cc = min(cap, t.m_max)
        return [cls(n) for n in range(-cc, cc + 1)]


@dataclass(frozen=True)
class ChannelIndex3(_Channel):
    """Angular channel (l, m) on the sphere, and what a channel means in 3D.

    Rotation couples to shift = m (channel (l, m) sits at z + m w), the
    radial kernel has order l, and the harmonic Y_l^m is orthonormal on the
    sphere; one channel evaluates it by sph_harm, not off a triangle.  The
    interaction site sits on the equator, source_angles = (theta, phi) =
    (pi/2, 0), where |Y_l^m|^2 = source_weight() = equatorial_weight(l, m).
    A circle coupling enters as gamma (circle_term: Gamma_m = gamma - 2 pi
    d_m), and the window cuts each degree series at l_max (capped_degrees).
    """

    l: int
    m: int

    dim = 3
    source_angles = (math.pi / 2.0, 0.0)
    capped_degrees = True

    def __post_init__(self) -> None:
        _require_integers(self)
        if self.l < 0:
            raise ValueError(f"degree must be nonnegative, got l={self.l}")
        if abs(self.m) > self.l:
            raise ValueError(f"order out of range: |m|={abs(self.m)} > l={self.l}")

    @property
    def shift(self) -> int:
        return self.m

    @property
    def order(self) -> int:
        return self.l

    @property
    def label(self) -> str:
        return f"l={self.l},m={self.m}"

    def angular(self, theta: float, phi: float) -> complex:
        """Y_l^m(theta, phi): the bits of harmonics at (l, m)."""
        return sph_harm(self.l, self.m, theta, phi)

    @staticmethod
    def circle_term(gamma: float) -> float:
        """Gamma's constant term of a circle coupling gamma: gamma itself."""
        return gamma

    @staticmethod
    def source_weights(orders, shift) -> np.ndarray:
        """|Y_l^m(eq)|^2 of the degrees l (orders) of shift m."""
        return _equatorial_weights(orders, shift)

    @staticmethod
    def source_shells(shifts, l_max) -> tuple:
        """Orders, source weights and sizes of the source shells of the
        shifts m, concatenated: each is the degrees l = |m| .. l_max of
        nonzero weight |Y_l^m(eq)|^2, in increasing l.  The weights of every
        distinct shift come from one _equatorial_weights call over all of
        their degrees.  Needs l_max >= |m|."""
        if l_max is None:
            raise ValueError(_NO_L_MAX)
        ms = list(dict.fromkeys(shifts))
        for m in ms:
            if l_max < abs(m):
                raise ValueError(f"l_max={l_max} below channel order |m|={abs(m)}")
        sizes = l_max + 1 - np.abs(ms)
        ls = _ranges(np.abs(ms), sizes)
        wgt = _equatorial_weights(ls, np.repeat(ms, sizes))
        live = wgt != 0.0
        kept = np.add.reduceat(live.astype(int), np.cumsum(sizes) - sizes)
        shell = {m: d for d, m in enumerate(ms)}
        d = np.array([shell[m] for m in shifts])
        take = _ranges((np.cumsum(kept) - kept)[d], kept[d])
        return ls[live][take], wgt[live][take], kept[d]

    @staticmethod
    def harmonics(orders, shifts, theta, phi) -> np.ndarray:
        """Y_l^m(theta, phi) of each order l and shift m, broadcast.

        One sph_harm_y_all call gives, for each angle pair of the broadcast
        theta and phi, the triangle of every Y_l^m with l up to the largest
        order and |m| up to the largest |shift|, from one three-term
        recurrence (DLMF 14.10); each value is gathered from its angle's
        triangle, the bits of sph_harm_y at that (l, m).  Empty orders or
        shifts give an empty result.
        """
        orders, shifts = np.asarray(orders), np.asarray(shifts)
        theta, phi = np.broadcast_arrays(theta, phi)
        if not (orders.size and shifts.size):
            return np.zeros(np.broadcast_shapes(orders.shape, shifts.shape, theta.shape),
                            dtype=complex)
        ys = sp.sph_harm_y_all(int(orders.max()), int(np.abs(shifts).max()), theta, phi)
        at = np.arange(theta.size).reshape(theta.shape)
        return ys.reshape(ys.shape[:2] + (-1,))[orders, shifts, at]

    @classmethod
    def window(cls, t) -> list:
        """Channels |m| <= t.m_max, l = |m| .. t.l_max; m outer, l inner."""
        return [cls(l, m) for l, m in zip(*(a.tolist() for a in cls.window_indices(t)))]

    @staticmethod
    def window_indices(t) -> tuple:
        """Orders and shifts of window(t), as arrays in its order."""
        l_max = t.require_l_max()
        ms = np.arange(-t.m_max, t.m_max + 1)
        ls = np.concatenate([np.arange(abs(m), l_max + 1) for m in ms.tolist()])
        return ls, np.repeat(ms, l_max + 1 - np.abs(ms))

    @classmethod
    def cutoff(cls, cap: int, t) -> list:
        """Sharp cutoff l <= cap, |m| <= min(l, t.m_max); l outer, m inner."""
        return [cls(l, m) for l in range(0, cap + 1)
                for m in range(-min(l, t.m_max), min(l, t.m_max) + 1)]


def _ranges(starts, sizes) -> np.ndarray:
    """The integer ranges starts[i] .. starts[i] + sizes[i] - 1, concatenated."""
    return np.arange(sizes.sum()) + np.repeat(starts - np.cumsum(sizes) + sizes, sizes)


def channel_class(dim: int, *parts) -> type:
    """The channel class of dimension dim, after checking that every part
    (point, channel, channel function, source, mesh, blade or circle
    parameter: anything with a dim) lives there; raises ValueError if not."""
    _require_integer("dim", dim)
    if dim not in (2, 3):
        raise ValueError(f"dimension must be 2 or 3, got {dim}")
    for part in parts:
        if part.dim != dim:
            raise ValueError(
                f"{type(part).__name__} lives in dimension {part.dim}, not {dim}"
            )
    return (ChannelIndex2, ChannelIndex3)[dim - 2]


def sqrt_upper(z: complex) -> complex:
    """Square root with branch chosen in the closed upper half plane.

    For z on the nonnegative real axis the root is the nonnegative real one;
    everywhere else Im of the result is strictly positive.
    """
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"nonfinite argument {z!r}")
    w = cmath.sqrt(z)
    if w.imag < 0.0 or (w.imag == 0.0 and w.real < 0.0):
        w = -w
    return w


def _finite_energy(z: complex) -> complex:
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"nonfinite spectral parameter {z!r}")
    return z


def require_resolvent_energy(z: complex) -> complex:
    """Reject spectral parameters on the essential spectrum [0, inf)."""
    z = _finite_energy(z)
    if z.imag == 0.0 and z.real >= 0.0:
        raise ValueError(f"spectral parameter {z!r} lies on the essential spectrum")
    return z


def require_off_axis_energy(z: complex) -> complex:
    """Reject spectral parameters on the real axis entirely."""
    z = _finite_energy(z)
    if z.imag == 0.0:
        raise ValueError(f"spectral parameter {z!r} must have nonzero imaginary part")
    return z


def require_upper_energy(z: complex, use: str) -> complex:
    """Reject spectral parameters off the open upper half plane, for use."""
    z = _finite_energy(z)
    if not z.imag > 0.0:
        raise ValueError(f"{use} needs Im z > 0, got z={z!r}")
    return z


def _check_arg(x: complex) -> complex:
    x = complex(x)
    if not (math.isfinite(x.real) and math.isfinite(x.imag)):
        raise ValueError(f"nonfinite argument {x!r}")
    if abs(x.imag) > _IM_MAX:
        raise OverflowError(
            f"|Im x| = {abs(x.imag):.3g} exceeds supported bound {_IM_MAX:g}"
        )
    return x


def sph_bessel_j(l: int, x: complex) -> complex:
    """Spherical Bessel function j_l at complex argument.

    Entire in x; the principal-branch square roots in the half-integer
    reduction cancel, and the negative real axis is covered by the parity
    j_l(-x) = (-1)^l j_l(x).
    """
    if l < 0:
        raise ValueError(f"degree must be nonnegative, got l={l}")
    x = _check_arg(x)
    if x == 0:
        return 1.0 + 0.0j if l == 0 else 0.0 + 0.0j
    if x.real < 0.0:
        return (-1.0) ** l * sph_bessel_j(l, -x)
    if x.imag == 0.0:
        return complex(sp.spherical_jn(l, x.real))
    # Python complex product: at subnormal x the prefactor overflows, and
    # inf * 0 gives NaN without a numpy warning.
    return cmath.sqrt(math.pi / 2.0 / x) * complex(sp.jv(l + 0.5, x))


def sph_hankel1(l: int, x: complex) -> complex:
    """Outgoing spherical Hankel function h_l^(1) at complex argument.

    Singular at x = 0.  Intended for arguments in the closed upper half plane
    away from the negative real axis, which is where the resolvent kernels
    evaluate it.
    """
    if l < 0:
        raise ValueError(f"degree must be nonnegative, got l={l}")
    x = _check_arg(x)
    if x == 0:
        raise SingularArgumentError("h_l^(1) is singular at x = 0")
    return cmath.sqrt(math.pi / 2.0 / x) * complex(sp.hankel1(l + 0.5, x))


def bessel_j(n: int, x: complex) -> complex:
    """Bessel function J_n of integer order at complex argument."""
    x = _check_arg(x)
    if x.imag == 0.0 and x.real >= 0.0:
        return complex(sp.jv(n, x.real))
    if x.real < 0.0:
        # J_n is entire with parity (-1)^n; avoid the principal branch cut.
        return (-1.0) ** (n % 2) * bessel_j(n, -x)
    return complex(sp.jv(n, x))


def hankel1(n: int, x: complex) -> complex:
    """Hankel function H_n^(1) of integer order at complex argument."""
    x = _check_arg(x)
    if x == 0:
        raise SingularArgumentError("H_n^(1) is singular at x = 0")
    return complex(sp.hankel1(n, x))


def sph_harm(l: int, m: int, theta: float, phi: float) -> complex:
    """Orthonormal spherical harmonic Y_l^m(theta, phi), physics convention.

    theta is the polar angle from the positive axis, phi the azimuth.
    """
    _require_integer("degree l", l)
    _require_integer("order m", m)
    if l < 0:
        raise ValueError(f"degree must be nonnegative, got l={l}")
    if abs(m) > l:
        raise ValueError(f"order out of range: |m|={abs(m)} > l={l}")
    return complex(sp.sph_harm_y(l, m, theta, phi))


def equatorial_weight(l: int, m: int) -> float:
    """|Y_l^m(pi/2, 0)|^2 via log-gamma, stable to large degree.

    Zero whenever l + m is odd (the equatorial node of the associated
    Legendre function).  The one-degree view of _equatorial_weights.
    """
    _require_integer("degree l", l)
    _require_integer("order m", m)
    return float(_equatorial_weights([l], m)[0])


def _equatorial_weights(ls, m) -> np.ndarray:
    """equatorial_weight(l, m) for the degrees ls, as an array: m is one
    order or one order per degree.

    One gammaln, one log and one exp call over the degrees with a nonzero
    weight.  The log-gamma sum is formed in numpy in the term order of the
    one-degree formula, so each weight is the same bit for bit.
    """
    ls = np.asarray(ls)
    m = np.broadcast_to(m, ls.shape)
    if (ls < 0).any():
        raise ValueError(f"degree must be nonnegative, got l={ls[ls < 0][0]}")
    live = (np.abs(m) <= ls) & ((ls + m) % 2 == 0)
    l, m = ls[live], m[live]
    g = sp.gammaln([l - m + 1, l + m + 1, (l + m) / 2 + 1, (l - m) / 2 + 1])
    lg = (np.log((2 * l + 1) / (4.0 * math.pi)) + g[0] + g[1] - 2.0 * g[2] - 2.0 * g[3]
          - 2.0 * l * math.log(2.0))
    wgt = np.zeros(ls.shape)
    wgt[live] = np.exp(lg)
    return wgt
