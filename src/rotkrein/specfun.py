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
name.  Equatorial weights are evaluated per shell over an array of degrees
(_equatorial_weights); equatorial_weight is its one-degree view.
require_resolvent_energy is the one check of a resolvent's spectral
parameter, and every module imports it from here.
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

# Beyond this the Bessel factors overflow double precision; callers are expected
# to stay within |Im x| <= 50 or so, this is a hard backstop.
_IM_MAX = 600.0


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


@dataclass(frozen=True)
class ChannelIndex2:
    """Angular channel n on the circle, and what a channel means in 2D.

    Rotation couples to shift = n (channel n sits at z + n w), the radial
    kernel has order |n|, and the harmonic exp(i n theta) has squared norm
    harmonic_norm_sq = 2 pi on the circle, so the orthonormal angular factor
    is exp(i n theta) / sqrt(2 pi).  The interaction site sits at polar angle
    source_angles = (pi/2,), where |harmonic|^2 = source_weight() = 1.
    """

    n: int

    dim = 2
    harmonic_norm_sq = 2.0 * math.pi
    source_angles = (math.pi / 2.0,)

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

    def harmonic(self, theta: float) -> complex:
        return cmath.exp(1j * self.n * theta)

    def angular(self, theta: float) -> complex:
        return self.harmonic(theta) / math.sqrt(self.harmonic_norm_sq)

    def source_weight(self) -> float:
        return 1.0

    @classmethod
    def window(cls, t) -> list:
        """Channels |n| <= t.m_max, in increasing n."""
        return [cls(n) for n in range(-t.m_max, t.m_max + 1)]

    @classmethod
    def cutoff(cls, cap: int, t) -> list:
        """Sharp cutoff |n| <= min(cap, t.m_max), in increasing n."""
        cc = min(cap, t.m_max)
        return [cls(n) for n in range(-cc, cc + 1)]


@dataclass(frozen=True)
class ChannelIndex3:
    """Angular channel (l, m) on the sphere, and what a channel means in 3D.

    Rotation couples to shift = m (channel (l, m) sits at z + m w), the
    radial kernel has order l, and the harmonic Y_l^m is orthonormal on the
    sphere (harmonic_norm_sq = 1), so it is its own angular factor.  The
    interaction site sits on the equator, source_angles = (theta, phi) =
    (pi/2, 0), where |Y_l^m|^2 = source_weight() = equatorial_weight(l, m).
    """

    l: int
    m: int

    dim = 3
    harmonic_norm_sq = 1.0
    source_angles = (math.pi / 2.0, 0.0)

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
        return sph_harm(self.l, self.m, theta, phi)

    harmonic = angular

    def source_weight(self) -> float:
        return equatorial_weight(self.l, self.m)

    @classmethod
    def window(cls, t) -> list:
        """Channels |m| <= t.m_max, l = |m| .. t.l_max; m outer, l inner."""
        l_max = t.require_l_max()
        return [cls(l, m) for m in range(-t.m_max, t.m_max + 1)
                for l in range(abs(m), l_max + 1)]

    @classmethod
    def cutoff(cls, cap: int, t) -> list:
        """Sharp cutoff l <= cap, |m| <= min(l, t.m_max); l outer, m inner."""
        return [cls(l, m) for l in range(0, cap + 1)
                for m in range(-min(l, t.m_max), min(l, t.m_max) + 1)]


def channel_class(dim: int, *parts) -> type:
    """The channel class of dimension dim, after checking that every part
    (point, channel, channel function, source, mesh, blade or circle
    parameter: anything with a dim) lives there; raises ValueError if not."""
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


def require_resolvent_energy(z: complex) -> complex:
    """Reject spectral parameters on the essential spectrum [0, inf)."""
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"nonfinite spectral parameter {z!r}")
    if z.imag == 0.0 and z.real >= 0.0:
        raise ValueError(f"spectral parameter {z!r} lies on the essential spectrum")
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
    return _equatorial_weights([l], m)[0]


def _equatorial_weights(ls, m: int) -> list:
    """equatorial_weight(l, m) for the degrees ls of one order m, as floats.

    One gammaln and one exp call over the degrees with a nonzero weight.
    The log-gamma sum is formed per degree in the order of the one-degree
    formula, in double arithmetic, so each weight is the same bit for bit.
    """
    for l in ls:
        if l < 0:
            raise ValueError(f"degree must be nonnegative, got l={l}")
    live = [abs(m) <= l and (l + m) % 2 == 0 for l in ls]
    a = [l for l, keep in zip(ls, live) if keep]
    if not a:
        return [0.0] * len(live)
    g = sp.gammaln(
        [l - m + 1 for l in a] + [l + m + 1 for l in a]
        + [(l + m) / 2 + 1 for l in a] + [(l - m) / 2 + 1 for l in a]
    ).tolist()
    k = len(a)
    lg = [
        math.log((2 * l + 1) / (4.0 * math.pi))
        + g[i]
        + g[k + i]
        - 2.0 * g[2 * k + i]
        - 2.0 * g[3 * k + i]
        - 2.0 * l * math.log(2.0)
        for i, l in enumerate(a)
    ]
    wgt = iter(np.exp(lg).tolist())
    return [next(wgt) if keep else 0.0 for keep in live]
