"""Shared builders for the test suite."""

import math

import numpy as np
import scipy.special as sp
from scipy.linalg import solve_banded
from scipy.special import hankel1 as _hankel1

from rotkrein import ChannelIndex2, ChannelIndex3, RadialChannelFunction


def gauss_radial(n: int, r_max: float = 8.0):
    """Plain-dr Gauss grid and weights on (0, r_max)."""
    xg, wg = np.polynomial.legendre.leggauss(n)
    half = 0.5 * r_max
    return half * (xg + 1.0), half * wg


def bump_profile(r):
    return r * np.exp(-(r**2))


def make_psi(dim: int, channel, n: int = 200, r_max: float = 8.0):
    """The standard single-channel input r exp(-r^2) on a Gauss grid."""
    rg, wq = gauss_radial(n, r_max)
    if dim == 2 and not isinstance(channel, ChannelIndex2):
        channel = ChannelIndex2(channel)
    if dim == 3 and not isinstance(channel, ChannelIndex3):
        channel = ChannelIndex3(*channel)
    return RadialChannelFunction(channel, rg, bump_profile(rg), wq)


def fd_averaged_solution(dim: int, z: complex, order: int, alpha: float,
                         blade_a: float, h: float = 1e-3, r_cap: float = 9.0):
    """Finite-difference solve of the averaged radial equation.

    Second-order stencil for the radial operator with centrifugal index
    `order`, attractive potential alpha on [0, blade_a], outgoing Robin
    closure at r_cap through the Hankel ratio.  Returns (grid, solution).
    """
    rg = np.arange(h, r_cap + h / 2, h)
    w = np.sqrt(complex(z))
    if w.imag < 0:
        w = -w
    theta = (rg < blade_a - 1e-12).astype(float)
    j = int(np.argmin(np.abs(rg - blade_a)))
    if abs(rg[j] - blade_a) < 1e-9:
        theta[j] = 0.5
    if dim == 2:
        cent = order**2 / rg**2
        lower = -1 / h**2 + 1 / (2 * h * rg)
        upper = -1 / h**2 - 1 / (2 * h * rg)
        nu = order
        extra = 1.0
    else:
        cent = order * (order + 1) / rg**2
        lower = -1 / h**2 + 1 / (h * rg)
        upper = -1 / h**2 - 1 / (h * rg)
        nu = order + 0.5
        extra = np.sqrt(rg[-1] / (rg[-1] + h))
    main = (2 / h**2 + cent - z - alpha * theta).astype(complex)
    ratio = _hankel1(nu, w * (rg[-1] + h)) / _hankel1(nu, w * rg[-1]) * extra
    main[-1] += upper[-1] * ratio
    ab = np.zeros((3, len(rg)), dtype=complex)
    ab[0, 1:] = upper[:-1]
    ab[1, :] = main
    ab[2, :-1] = lower[1:]
    return rg, solve_banded((1, 1), ab, bump_profile(rg))


class CountingSpecial:
    """scipy.special with every function call counted (.calls), and the
    elements each call evaluates, the broadcast size of its positional
    arguments (.elements)."""

    def __init__(self):
        self.calls = 0
        self.elements = 0

    def __getattr__(self, name):
        fn = getattr(sp, name)

        def counted(*args, **kwargs):
            self.calls += 1
            self.elements += math.prod(np.broadcast_shapes(*map(np.shape, args)))
            return fn(*args, **kwargs)

        return counted
