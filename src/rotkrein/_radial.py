"""Separable radial channel kernels and resolvent application on grids.

The one closed evaluation of the free radial channel kernels: pointwise
channel sums, boundary matrices, study profiles and the one-order views
greens.radial_kernel_2d/3d all call separable_kernels.  With w = sqrt(z) in
the closed upper half plane, where the principal-branch Bessel products are
the right analytic continuation, the channel kernel separates into
one-radius factors,

    g(z; r, r')  =  (i pi / 2) J_nu(w r<) H_nu(w r>)      nu = |n|   (2D)
    g(z; r, r')  =  (i pi / 2) J_nu(w r<) H_nu(w r>) / sqrt(r r')
                                                        nu = l + 1/2 (3D)

so separable_kernels evaluates J and H once per radius, in one call over
every order (each at one shared energy or at its own), and assembles every
entry as a lower/upper-triangular product of two factors.  Its oracles, the
k-quadrature of the spectral integrals among them, live in tests/oracles.py.

radial_apply integrates the same factors against a channel function's
interpolant in O(N) (Greengard & Rokhlin, CPAM 1991): one Gauss rule per
interval between the spline knots, refined to a bounded oscillation, gives
the interval integrals of J f and H f once, and a forward and a backward
running sum of them give every output as H(w r) L(r) + J(w r) R(r).  The
result is the integral of the interpolant to about 1e-12 relative.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
import scipy.special as sp
from scipy.interpolate import CubicSpline

from .specfun import SingularArgumentError, require_resolvent_energy, sqrt_upper

__all__ = [
    "g2_vec",
    "g3_vec",
    "radial_apply",
    "separable_kernels",
    "spline_interpolant",
    "trapezoid_weights",
]


_TINY = np.finfo(float).tiny  # smallest normal double


def _needed(mask: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcast mask to an operand's shape: any over its broadcast axes."""
    if mask.shape == shape:
        return mask
    lead = mask.ndim - len(shape)
    axes = tuple(range(lead)) + tuple(
        lead + i for i, s in enumerate(shape) if s == 1 and mask.shape[lead + i] != 1
    )
    return np.any(mask, axis=axes).reshape(shape)


def _nu(dim: int, order):
    """Bessel order of the channel kernel: |n| in 2D, l + 1/2 in 3D (elementwise)."""
    return abs(order) if dim == 2 else order + 0.5


def _check_finite(what: str, dim: int, order: int, z: complex, values, *radii) -> None:
    """Raise OverflowError naming the radii (broadcast to values) of nonfinite values."""
    bad = ~np.isfinite(values)
    if bad.any():
        hit = np.concatenate([np.broadcast_to(x, values.shape)[bad] for x in radii])
        raise OverflowError(
            f"{dim}D {what} of order {order} at z={z} is not finite "
            f"for radii in [{hit.min():.6g}, {hit.max():.6g}]"
        )


def _factors(nu, w, x: np.ndarray, need_j, need_h):
    """(i pi / 2) J_nu(w x) and H_nu(w x), each only where needed (zero elsewhere).

    nu holds one order or an array of orders, whose axes lead the results';
    w is one root, or an array of one root per order.  Every order is
    evaluated in the same jv and hankel1 call, at the needed entries of the
    flattened radius axes.  A zero argument of H (r = r' = 0 in a kernel)
    raises SingularArgumentError.
    """
    k = nu.size
    nu2 = nu.reshape(k, 1)
    w2 = w.reshape(k, 1) if isinstance(w, np.ndarray) else w
    xs = x.ravel()
    j = np.zeros((k, xs.size), dtype=complex)
    h = np.zeros((k, xs.size), dtype=complex)
    ij = need_j.ravel().nonzero()[0]
    ih = need_h.ravel().nonzero()[0]
    if ij.size:
        j[:, ij] = 0.5j * math.pi * sp.jv(nu2, w2 * xs[ij])
    if ih.size:
        xh = w2 * xs[ih]
        if not xh.all():
            raise SingularArgumentError(
                "H_nu is singular at w r = 0 (r = r' = 0, or w r underflows)")
        h[:, ih] = sp.hankel1(nu2, xh)
    shape = nu.shape + x.shape
    return j.reshape(shape), h.reshape(shape)


def _origin_limit(g, nu, w, r, rp):
    """3D entries at r = 0 < r' (J(w r)/sqrt(r) is 0/0) take their limit,
    exp(i w r')/r' for l = 0 and 0 for l >= 1."""
    big = np.maximum(r, rp)
    at0 = (np.minimum(r, rp) == 0.0) & (big > 0.0)
    lead = (1,) * at0.ndim
    with np.errstate(divide="ignore", invalid="ignore"):
        s_wave = np.exp(1j * np.reshape(w, np.shape(w) + lead) * big) / big
    l_zero = nu.reshape(nu.shape + lead) == 0.5
    return np.where(at0, np.where(l_zero, s_wave, 0.0), g)


def _roots(z: np.ndarray):
    """w = sqrt_upper of each energy, or of its conjugate where Im z < 0: one
    complex for one energy, else an array of z's shape.  Each distinct energy
    is checked (require_resolvent_energy) and rooted once."""
    if z.ndim == 0:
        e = require_resolvent_energy(z.item())
        return sqrt_upper(e.conjugate() if e.imag < 0.0 else e)
    zs = z.ravel().tolist()
    roots = {}
    for e in dict.fromkeys(zs):
        require_resolvent_energy(e)
        roots[e] = sqrt_upper(e.conjugate() if e.imag < 0.0 else e)
    return np.array([roots[e] for e in zs]).reshape(z.shape)


def separable_kernels(dim: int, orders, z, r, rp) -> np.ndarray:
    """Radial channel kernels g(z; r, r') of one or several orders.

    orders holds |n| (2D) or l (3D): one order, or an array of orders whose
    axes lead the result's; z is one energy, or one energy per order (an
    array of the orders' shape).  r and rp broadcast against each other (row
    and column vectors give the matrices).  J is evaluated in one call over
    every order and each radius that is the smaller member of some pair, and
    H likewise at the larger ones; entries are the products (i pi / 2 J) * H
    in that order, so every value equals the elementwise closed formula at
    its own energy bit for bit (in 3D, where r r' is a normal double; below,
    the product is divided by sqrt(r) and sqrt(r') in turn).  Lower
    half-plane energies go through g(conj z) = conj g(z).

    Each distinct energy is checked once (require_resolvent_energy); a
    negative or NaN radius and a negative 3D degree raise ValueError, and
    r = r' = 0 (an H factor at argument 0) SingularArgumentError.  A
    nonfinite entry (Bessel overflow at large |z| r) raises OverflowError
    naming the first such order, its z and the radii.  An empty order list
    gives an empty result and checks nothing.
    """
    orders = np.asarray(orders)
    r = np.asarray(r, dtype=float)
    rp = np.asarray(rp, dtype=float)
    if orders.size == 0:
        return np.zeros(orders.shape + np.broadcast_shapes(r.shape, rp.shape), dtype=complex)
    if dim == 3 and orders.min() < 0:
        raise ValueError(f"degree must be nonnegative, got l={orders.min()}")
    z = np.asarray(z, dtype=complex)
    w = _roots(z)
    if not (r.min(initial=0.0) >= 0.0 and rp.min(initial=0.0) >= 0.0):
        raise ValueError("radii must be nonnegative")
    nu = _nu(dim, orders.astype(float))
    if nu.ndim and r.ndim != rp.ndim:
        # Order axes lead the factors of r and of rp: pad both to one ndim.
        nd = max(r.ndim, rp.ndim)
        r = r.reshape((1,) * (nd - r.ndim) + r.shape)
        rp = rp.reshape((1,) * (nd - rp.ndim) + rp.shape)
    lower = r <= rp  # entry takes J at r and H at rp; otherwise the reverse
    # An overflowed factor, or the unselected product of an entry, may give
    # inf * 0; only the selected entries are checked below.
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        jr, hr = _factors(nu, w, r, _needed(lower, r.shape), _needed(~lower, r.shape))
        jp, hp = _factors(nu, w, rp, _needed(~lower, rp.shape), _needed(lower, rp.shape))
        g = np.where(lower, jr * hp, jp * hr)
        if dim == 3:
            rr = r * rp
            if rr.min() >= _TINY:
                g = g / np.sqrt(rr)
            else:
                # r r' below the normal range: divide by each root (entries
                # with a radius 0 are mended below).
                g = np.where(rr < _TINY, g / np.sqrt(r) / np.sqrt(rp), g / np.sqrt(rr))
            if not (r.all() and rp.all()):
                g = _origin_limit(g, nu, w, r, rp)
    flip = z.imag < 0.0
    if flip.any():
        g = np.where(flip.reshape(flip.shape + (1,) * lower.ndim), np.conj(g), g)
    if not np.isfinite(g).all():
        per_order = g.reshape((-1,) + lower.shape)
        energies = np.broadcast_to(z, orders.shape).ravel()
        for order, e, gk in zip(orders.ravel(), energies, per_order):
            _check_finite("radial kernel", dim, order, complex(e), gk, r, rp)
    return g


def g2_vec(n: int, z: complex, r, rp):
    """2D radial channel kernel g_n(z; r, r') over array arguments,
    separable_kernels(2, n, z, r, rp).

    No library code calls it.  The name stays because the benchmark tracer
    (perfbench/tracing.py) wraps it, and tests/test_imports.py checks that
    every name the tracer wraps exists; it goes when the tracer is
    retargeted at separable_kernels.
    """
    return separable_kernels(2, n, z, r, rp)


def g3_vec(l: int, z: complex, r, rp):
    """3D radial channel kernel g_l(z; r, r') over array arguments,
    separable_kernels(3, l, z, r, rp); kept for the tracer as g2_vec is."""
    return separable_kernels(3, l, z, r, rp)


# Gauss-Legendre rule of radial_apply on each interval between breakpoints.
_APPLY_NODES = 8
_APPLY_X, _APPLY_W = np.polynomial.legendre.leggauss(_APPLY_NODES)
_GRADING = 1.25
_GRADING_FLOOR = 1e-8


def radial_apply(psi, z: complex, r_out) -> np.ndarray:
    """Apply the channel radial resolvent to psi, sampled at the radii r_out.

    Computes int g(z; r, t) f(t) t^(dim-1) dt for each output radius r,
    where f is the interpolant of psi (cubic spline, linear below 4 points,
    zero outside [lo, hi] = [grid[0], grid[-1]]) and g the kernel of psi's
    channel.  With the kernel separated as (i pi / 2) J(w r<) H(w r>),

        int g f t^(dim-1)  =  H(w r) L(r) + J(w r) R(r),
        L(r) = int_lo^r (i pi / 2) J f t^(dim-1),   R(r) = int_r^hi H f t^(dim-1)

    (each factor over sqrt(r) or sqrt(t) in 3D).  The breakpoints are the
    grid knots, uniform edges at most 3/|sqrt z| apart and geometric edges
    towards the origin, where the H integrand is singular, so f is one cubic
    on each interval between them and no interval is wider than a quarter of
    its distance from 0; one _APPLY_NODES-point Gauss rule per interval then
    integrates f against J and H to about 1e-12 relative.  A
    forward and a backward running sum of the interval integrals give L and
    R at every breakpoint; an output radius inside an interval adds the two
    pieces of that interval on either side of it.  Work is O(len(grid) +
    len(r_out)), and the value at r does not depend on the other radii.

    Radii r >= hi take L only and radii r <= lo (r = 0 in 2D too) R only.
    J is evaluated only below the largest output radius and H only above
    the smallest, so a large Im sqrt(z) overflows only where the kernel
    itself would; a nonfinite result raises OverflowError.  Lower half-plane
    z uses the conjugated factors at conj z.
    """
    z = complex(z)
    dim, grid = psi.dim, psi.grid
    lo, hi = float(grid[0]), float(grid[-1])
    f = psi.interpolant()
    r_out = np.asarray(r_out, dtype=float)
    r = r_out.ravel()
    rc = np.clip(r, lo, hi)
    w = sqrt_upper(z.conjugate() if z.imag < 0.0 else z)
    n_uniform = int((hi - lo) * abs(w) / 3.0) + 1
    # Geometric edges from lo (from just above 0 if lo = 0) keep each interval
    # within _GRADING times its left end: the H integrand is singular at 0.
    start = lo if lo > 0.0 else _GRADING_FLOOR * grid[1]
    graded = start * _GRADING ** np.arange(math.log(hi / start, _GRADING))
    edges = np.unique(np.concatenate([grid, np.linspace(lo, hi, n_uniform + 1), graded]))
    nb = len(edges) - 1
    k = np.searchsorted(edges, rc, side="right") - 1  # edges[k] <= rc
    inside = rc > edges[k]  # rc splits interval k in two pieces
    kr = k + inside  # R(rc) sums the whole intervals from kr on
    ks, cs = k[inside], rc[inside]
    n_in = len(cs)
    # Rows: the nb intervals, then the pieces below and above each inside rc.
    a = np.concatenate([edges[:-1], edges[ks], cs])
    b = np.concatenate([edges[1:], cs, edges[ks + 1]])
    half = 0.5 * (b - a)[:, None]
    t = 0.5 * (a + b)[:, None] + half * _APPLY_X
    wf = half * _APPLY_W * f(t) * t ** (dim - 1)
    if dim == 3:
        wf = wf / np.sqrt(t)
    whole = np.arange(nb)
    yes, no = np.ones(n_in, bool), np.zeros(n_in, bool)
    need_j = np.concatenate([whole < k.max(initial=0), yes, no])[:, None]
    need_h = np.concatenate([whole >= kr.min(initial=nb), no, yes])[:, None]
    nu = _nu(dim, np.asarray(psi.order, dtype=float))
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        jt, ht = _factors(nu, w, t, np.broadcast_to(need_j, t.shape),
                          np.broadcast_to(need_h, t.shape))
        jr, hr = _factors(nu, w, r, r < hi, r > lo)
        if z.imag < 0.0:
            jt, ht, jr, hr = np.conj(jt), np.conj(ht), np.conj(jr), np.conj(hr)
        jint = np.sum(jt * wf, axis=1)
        hint = np.sum(ht * wf, axis=1)
        left = np.concatenate([[0.0], np.cumsum(jint[:nb])])[k]
        right = np.concatenate([np.cumsum(hint[nb - 1 :: -1])[::-1], [0.0]])[kr]
        left[inside] += jint[nb : nb + n_in]
        right[inside] += hint[nb + n_in :]
        out = hr * left + jr * right
        if dim == 3:
            out = out / np.sqrt(r)
            # r = 0: left = 0, (i pi/2) J(w r)/sqrt(r) -> (i pi/2) sqrt(2w/pi) if l = 0, else 0.
            at0 = r == 0.0
            if at0.any():
                lim = 0.5j * math.pi * cmath.sqrt(2.0 * w / math.pi) if psi.order == 0 else 0.0
                out[at0] = (np.conj(lim) if z.imag < 0.0 else lim) * right[at0]
    _check_finite("radial resolvent", dim, psi.order, z, out, r)
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
