"""Separable radial channel kernels and resolvent application on grids.

The scalar kernels in greens are the reference; these evaluate the same
closed formulas over arrays for the quadrature-heavy paths (resolvent
application, boundary matrices, study norms).  With w = sqrt(z) in the
closed upper half plane, where the principal-branch Bessel products are the
right analytic continuation, the channel kernel separates into one-radius
factors,

    g(z; r, r')  =  (i pi / 2) J_nu(w r<) H_nu(w r>)      nu = |n|   (2D)
    g(z; r, r')  =  (i pi / 2) J_nu(w r<) H_nu(w r>) / sqrt(r r')
                                                        nu = l + 1/2 (3D)

so separable_kernel evaluates J and H once per radius and assembles every
entry as a lower/upper-triangular product of two factors.  radial_apply uses
the same core: per output radius, one factor per quadrature node.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.special as sp
from scipy.interpolate import CubicSpline

from .specfun import sqrt_upper

__all__ = [
    "g2_vec",
    "g3_vec",
    "radial_apply",
    "separable_kernel",
    "spline_interpolant",
    "trapezoid_weights",
]


def _needed(mask: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcast mask to an operand's shape: any over its broadcast axes."""
    lead = mask.ndim - len(shape)
    axes = tuple(range(lead)) + tuple(
        lead + i for i, s in enumerate(shape) if s == 1 and mask.shape[lead + i] != 1
    )
    return np.any(mask, axis=axes).reshape(shape)


def _factors(nu: float, w: complex, x: np.ndarray, need_j, need_h):
    """(i pi / 2) J_nu(w x) and H_nu(w x), each only where needed (zero elsewhere)."""
    j = np.zeros(x.shape, dtype=complex)
    h = np.zeros(x.shape, dtype=complex)
    j[need_j] = 0.5j * math.pi * sp.jv(nu, w * x[need_j])
    h[need_h] = sp.hankel1(nu, w * x[need_h])
    return j, h


def separable_kernel(dim: int, order: int, z: complex, r, rp) -> np.ndarray:
    """Radial channel kernel g(z; r, r') of order |n| (2D) or l (3D).

    r and rp broadcast against each other (row and column vectors give the
    matrix).  J is evaluated once at each radius that is the smaller member
    of some pair and H once at each radius that is the larger one, and
    entries are the products (i pi / 2 J) * H in that order, so every value
    equals the elementwise closed formula bit for bit.  Lower half-plane z
    goes through g(conj z) = conj g(z).  A nonfinite entry (Bessel overflow
    at large |z| r) raises OverflowError naming the order, z and radii.
    """
    z = complex(z)
    r = np.asarray(r, dtype=float)
    rp = np.asarray(rp, dtype=float)
    w = sqrt_upper(z.conjugate() if z.imag < 0.0 else z)
    nu = abs(order) if dim == 2 else order + 0.5
    lower = r <= rp  # entry takes J at r and H at rp; otherwise the reverse
    # An overflowed factor, or the unselected product of an entry, may give
    # inf * 0; only the selected entries are checked below.
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        jr, hr = _factors(nu, w, r, _needed(lower, r.shape), _needed(~lower, r.shape))
        jp, hp = _factors(nu, w, rp, _needed(~lower, rp.shape), _needed(lower, rp.shape))
        g = np.where(lower, jr * hp, jp * hr)
        if dim == 3:
            g = g / np.sqrt(r * rp)
    if z.imag < 0.0:
        g = np.conj(g)
    bad = ~np.isfinite(g)
    if bad.any():
        radii = np.concatenate([np.broadcast_to(r, g.shape)[bad],
                                np.broadcast_to(rp, g.shape)[bad]])
        raise OverflowError(
            f"{dim}D radial kernel of order {order} at z={z} is not finite "
            f"for radii in [{radii.min():.6g}, {radii.max():.6g}]"
        )
    return g


def g2_vec(n: int, z: complex, r, rp):
    """2D radial channel kernel g_n(z; r, r') over array arguments."""
    return separable_kernel(2, n, z, r, rp)


def g3_vec(l: int, z: complex, r, rp):
    """3D radial channel kernel g_l(z; r, r') over array arguments."""
    return separable_kernel(3, l, z, r, rp)


def _panel_nodes(a, b, n_seg: int, xg, wg):
    """Composite Gauss nodes and weights on [a, b] in n_seg equal panels.

    a and b are arrays of endpoints; row k holds the rule for [a[k], b[k]].
    """
    edges = np.linspace(a, b, n_seg + 1, axis=-1)
    mid = 0.5 * (edges[:, :-1] + edges[:, 1:])
    half = 0.5 * np.diff(edges, axis=-1)
    t = (mid[:, :, None] + half[:, :, None] * xg).reshape(len(edges), -1)
    w = (half[:, :, None] * wg).reshape(len(edges), -1)
    return t, w


# Quadrature points per batch of output radii in radial_apply.
_APPLY_BATCH = 1 << 15


def radial_apply(
    dim: int,
    order: int,
    z: complex,
    r_out,
    f,
    rmax: float = 8.0,
    n_gl: int = 80,
) -> np.ndarray:
    """Apply the channel radial resolvent to f, sampled at the radii r_out.

    Computes int_0^rmax g(z; r, t) f(t) t^(dim-1) dt per output radius,
    splitting at the kernel kink t = r and subdividing each side by the
    oscillation count of sqrt(z); a side narrower than 1e-14 is dropped.
    Output radii with the same panel counts are integrated together, and
    the separable kernel needs J and H at r and one factor per node: J
    below the kink, H above it.
    """
    z = complex(z)
    xg, wg = np.polynomial.legendre.leggauss(n_gl)
    r_out = np.asarray(r_out, dtype=float)
    r = r_out.ravel()
    speed = abs(sqrt_upper(z))
    split = np.minimum(r, rmax)
    sides = ((np.zeros_like(split), split), (split, np.full_like(split, rmax)))
    counts = np.stack(
        [np.where(b - a > 1e-14, ((b - a) * speed / 3.0).astype(int) + 1, 0)
         for a, b in sides],
        axis=1,
    )
    out = np.zeros(len(r), dtype=complex)
    for key in np.unique(counts, axis=0):
        if not key.any():
            continue
        rows = np.flatnonzero((counts == key).all(axis=1))
        step = max(1, _APPLY_BATCH // (int(key.sum()) * n_gl))
        for k in range(0, len(rows), step):
            idx = rows[k : k + step]
            nodes = [
                _panel_nodes(a[idx], b[idx], int(n_seg), xg, wg)
                for (a, b), n_seg in zip(sides, key)
                if n_seg
            ]
            t = np.concatenate([tn for tn, _ in nodes], axis=1)
            w = np.concatenate([wn for _, wn in nodes], axis=1)
            g = separable_kernel(dim, order, z, r[idx, None], t)
            vals = w * g * f(t) * t ** (dim - 1)
            start = 0
            for tn, _ in nodes:
                out[idx] += np.sum(vals[:, start : start + tn.shape[1]], axis=-1)
                start += tn.shape[1]
    return out.reshape(r_out.shape)


def trapezoid_weights(grid: np.ndarray) -> np.ndarray:
    """Composite trapezoid weights for an arbitrary increasing grid."""
    w = np.zeros(len(grid))
    d = np.diff(grid)
    w[:-1] += 0.5 * d
    w[1:] += 0.5 * d
    return w


def spline_interpolant(grid: np.ndarray, values: np.ndarray):
    """Cubic interpolant of complex samples, zero outside the grid."""
    grid = np.asarray(grid, dtype=float)
    values = np.asarray(values, dtype=complex)
    if len(grid) < 4:
        def f_lin(t):
            t = np.asarray(t, dtype=float)
            re = np.interp(t, grid, values.real, left=0.0, right=0.0)
            im = np.interp(t, grid, values.imag, left=0.0, right=0.0)
            return re + 1j * im

        return f_lin
    spl = CubicSpline(grid, values, bc_type="natural", extrapolate=False)

    def f(t):
        t = np.asarray(t, dtype=float)
        v = spl(t)
        return np.where(np.isnan(v), 0.0 + 0.0j, v)

    return f
