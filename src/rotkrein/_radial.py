"""Separable radial channel kernels and resolvent application on grids.

The one closed evaluation of the free radial channel kernels: pointwise
channel sums, boundary matrices, study profiles and the one-order views
greens.radial_kernel_2d/3d all call separable_kernels.  With w = sqrt(z) in
the closed upper half plane, where the principal-branch Bessel products are
the right analytic continuation, the channel kernel separates into
one-radius factors,

    g(z; r, r')  =  (i pi / 2) J(w r<) H(w r>),
    2D:  J(w r) = J_nu(w r),            H(w r) = H_nu(w r),            nu = |n|
    3D:  J(w r) = J_nu(w r) / sqrt(r),  H(w r) = H_nu(w r) / sqrt(r),  nu = l + 1/2

(j_l(x) = sqrt(pi / 2x) J_{l+1/2}(x), DLMF 10.47.3, so the 3D factors are
sqrt(2 w / pi) j_l(w r) and sqrt(2 w / pi) h_l(w r); J at r = 0 is its
limit).  separable_kernels evaluates J and H once per radius, over every
order (each at one shared energy or at its own), and assembles every entry
as a lower/upper-triangular product of two factors.  Its oracles, the
k-quadrature of the spectral integrals and mpmath's spherical Bessel
functions among them, live in tests/oracles.py.

radial_apply integrates the same factors against a channel function's
interpolant, the natural cubic spline of its samples (de Boor, A Practical
Guide to Splines, ch. IV; spline_interpolant builds it from one
solve_banded call, bit for bit as scipy's CubicSpline does, without
loading scipy.interpolate), in O(N) (Greengard & Rokhlin, CPAM 1991): one
Gauss rule per interval between the spline knots, refined to a bounded
oscillation and held to a breakpoint budget, gives the interval
integrals of J f and H f once, and a forward and a backward running sum
of them give every output as H(w r) L(r) + J(w r) R(r).  The result is
the integral of the interpolant to about 1e-12 relative.  The
interpolant, the breakpoints and the running sums depend only on (psi, z),
so they form a plan that a memo of the last 8 plans keeps, keyed on the
content of those inputs; a later call on the same psi and z, such as the
next resolvent of a Krein/circle/averaged comparison, evaluates only the
pieces cut by its own output radii.  Results are the same bits with or
without the memo.

Every J and H factor of both comes from _factors, the one home of what
differs between the dimensions here.  In 2D that is one jv and one hankel1
call per side of a kernel call (J again by jv at the real argument where w
r is real: _jv).  In 3D the orders of a call that share a root are one run
of consecutive degrees, which three-term recurrences serve (DLMF 10.51):
each argument w r takes one pass over the degrees up to the largest of its
root (_sph_j, _sph_h), h upward from its closed forms and j upward where
that is stable, else from backward ratios and the cross product with h.
Where both sides hold several radii, the factors are taken over their
distinct radii (_shared_factors), so that each factor of a square matrix
or of the point pairs of a Krein kernel is evaluated once per order,
energy and radius.  The energies of a call are checked and rooted in one
array pass (_roots), a numpy transcription of CPython's complex square
root.
"""

from __future__ import annotations

import functools
import math

import numpy as np
import scipy.special as sp
from scipy.linalg import solve_banded

from .specfun import SingularArgumentError, require_resolvent_energy, sqrt_upper

__all__ = [
    "g2_vec",
    "g3_vec",
    "gauss_legendre",
    "radial_apply",
    "separable_kernels",
    "spline_interpolant",
    "trapezoid_weights",
]


# The smallest normal double: _roots scales an energy whose parts are both
# below it, as CPython's complex sqrt does.
_NORMAL_MIN = np.finfo(float).smallest_normal


def _jv(nu: np.ndarray, x: np.ndarray) -> np.ndarray:
    """J_nu(x) of integer orders by one jv call, with the arguments on the
    positive real axis taken again by jv at the real argument, the route of
    specfun's bessel_j there."""
    out = sp.jv(nu, x)
    if (x.imag == 0.0).any():
        nu, x = np.broadcast_arrays(nu, x)
        on_axis = (x.imag == 0.0) & (x.real > 0.0)
        out[on_axis] = sp.jv(nu[on_axis], x.real[on_axis])
    return out


def _needed(mask: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcast mask to an operand's shape: any over its broadcast axes."""
    if mask.shape == shape:
        return mask
    lead = mask.ndim - len(shape)
    axes = tuple(range(lead)) + tuple(
        lead + i for i, s in enumerate(shape) if s == 1 and mask.shape[lead + i] != 1
    )
    return np.any(mask, axis=axes).reshape(shape)


def _check_finite(what: str, dim: int, order: int, z: complex, values, *radii) -> None:
    """Raise OverflowError naming the radii (broadcast to values) of nonfinite values."""
    bad = ~np.isfinite(values)
    if bad.any():
        hit = np.concatenate([np.broadcast_to(x, values.shape)[bad] for x in radii])
        raise OverflowError(
            f"{dim}D {what} of order {order} at z={z} is not finite "
            f"for radii in [{hit.min():.6g}, {hit.max():.6g}]"
        )


def _factors(dim: int, orders, w, flip, x: np.ndarray, need_j, need_h):
    """The factors (i pi / 2) J(w x) and H(w x) of the channel kernels of
    the orders, each only where needed (zero elsewhere).

    The Bessel order is |n| in 2D and l + 1/2 in 3D, where both factors are
    divided by sqrt(x): J(w x) = sqrt(2 w / pi) j_l(w x) and H(w x) =
    sqrt(2 w / pi) h_l(w x), so J at x = 0 is its limit, (i pi / 2) sqrt(2 w
    / pi) for l = 0 and 0 for l >= 1.  orders holds one order or an array of
    orders, whose axes lead the results'; w is one _root and flip one Im z <
    0 flag, or one of each per order.  Flagged factors come back conjugated:
    g(z) = conj g(conj z).  2D orders are evaluated in the same jv and
    hankel1 call, 3D degrees by degree recurrences, one pass over the
    degrees for each distinct w (_spherical_factors); both at the needed
    entries of the flattened radius axes.  A zero argument of H (r = r' = 0
    in a kernel) raises SingularArgumentError.
    """
    orders = np.asarray(orders, dtype=float)
    k = orders.size
    xs = x.ravel()
    ij = need_j.ravel().nonzero()[0]
    ih = need_h.ravel().nonzero()[0]
    j = np.zeros((k, xs.size), dtype=complex)
    h = np.zeros((k, xs.size), dtype=complex)
    if dim == 2:
        nu2 = np.abs(orders).reshape(k, 1)
        w2 = w.reshape(k, 1) if isinstance(w, np.ndarray) else w
        if ij.size:
            j[:, ij] = 0.5j * math.pi * _jv(nu2, w2 * xs[ij])
        if ih.size:
            xh = w2 * xs[ih]
            _require_nonzero(xh)
            h[:, ih] = sp.hankel1(nu2, xh)
    else:
        jx, hx = _spherical_factors(orders.astype(int).ravel(), w, xs, ij, ih)
        if ij.size:
            j[:, ij] = jx
        if ih.size:
            h[:, ih] = hx
    flip = np.asarray(flip).reshape(-1, 1)
    if flip.any():
        np.conjugate(j, out=j, where=flip)
        np.conjugate(h, out=h, where=flip)
    shape = orders.shape + x.shape
    return j.reshape(shape), h.reshape(shape)


def _require_nonzero(xh: np.ndarray) -> None:
    """Raise SingularArgumentError where an argument of H is zero."""
    if not xh.all():
        raise SingularArgumentError(
            "H_nu is singular at w r = 0 (r = r' = 0, or w r underflows)")


def _spherical_factors(ls: np.ndarray, w, xs: np.ndarray, ij: np.ndarray,
                       ih: np.ndarray) -> tuple:
    """The 3D factors (i pi / 2) J and H of _factors, before any
    conjugation: degrees ls, roots w (one, or one per degree), J at the
    radii xs[ij] and H at xs[ih], as arrays of shapes (ls.size, ij.size) and
    (ls.size, ih.size).

    The degrees are grouped by the bits of their root; the arguments w r of
    each group take one pass over the degrees up to the group's largest
    (_sph_j, _sph_h), from which every degree of the group reads its
    entries.
    """
    k = ls.size
    wk = np.ascontiguousarray(np.broadcast_to(np.ravel(w), (k,)), dtype=complex)
    if isinstance(w, np.ndarray) and k > 1:
        # Callers lay out runs of one energy: the distinct roots of the runs
        # first, which sorts far fewer.
        bits = wk.view(np.uint64).reshape(k, 2)
        new = np.ones(k, dtype=bool)
        np.any(bits[1:] != bits[:-1], axis=1, out=new[1:])
        runs = wk[new]
        _, first, run_group = np.unique(runs.view("V16"), return_index=True,
                                        return_inverse=True)
        roots, group = runs[first], run_group[np.cumsum(new) - 1]
    else:
        roots, group = wk[:1], np.zeros(k, dtype=int)
    tops = np.zeros(roots.size, dtype=int)
    np.maximum.at(tops, group, ls)
    root_scale = np.sqrt(2.0 * roots / math.pi)  # J_{l+1/2}(w r) / sqrt(r) = scale j_l
    scale = root_scale[group, None]
    j = h = None
    if ij.size:
        jt, at = _sph_j((roots[:, None] * xs[ij]).ravel(), np.repeat(tops, ij.size))
        j = 0.5j * math.pi * scale * jt[ls[:, None], at.reshape(roots.size, ij.size)[group]]
    if ih.size:
        x = (roots[:, None] * xs[ih]).ravel()
        _require_nonzero(x)
        ht = _sph_h(x, int(tops.max()) + 1)
        # Where h_l overflows at or below the top degree of its root (small w
        # r, high l) though scale h_l may not, the scale rides in h_0 instead
        # (and no longer multiplies the gathered entries).
        col_scale = np.repeat(root_scale, ih.size)
        over = ~np.isfinite(ht[np.repeat(tops, ih.size), np.arange(x.size)])
        if over.any():
            ht[:, over] = _sph_h(x[over], ht.shape[0], col_scale[over])
            scale = np.where(over, 1.0, col_scale)[group[:, None] * ih.size + np.arange(ih.size)]
        h = scale * ht[ls[:, None], group[:, None] * ih.size + np.arange(ih.size)]
    return j, h


# The routes of _sph_j.  Below |x| = _TINY, j_l(x) = x^l / (2l + 1)!! to
# double precision (the next term is x^2 / (4l + 6) smaller).  Upward j is
# taken where |x| >= L and Im x L^2 <= _UP_GAIN |x|^2: there the upward
# recurrence amplifies its rounding by about exp(Im x L^2 / |x|^2) <= e^4
# (on the imaginary axis j_l falls against h_l as exp(-l^2 / |x|), and for
# |x| < l j is the minimal solution, where upward is lost).  Elsewhere the
# ratios j_l / j_{l-1} run down from a start past both L and the turning
# point (_ratio_start).
_TINY = 1e-8
_UP_GAIN = 4.0


def _cis(x: np.ndarray) -> np.ndarray:
    """exp(i x) from real cos, sin and exp (numpy's complex exp is slower)."""
    out = np.empty(x.shape, dtype=complex)
    e = np.exp(-x.imag)
    out.real = np.cos(x.real) * e
    out.imag = np.sin(x.real) * e
    return out


def _reciprocal(x: np.ndarray) -> np.ndarray:
    """1 / x: numpy's, but where that is not finite (numpy's complex
    division gives inf or nan where the larger part of x is subnormal) from
    real operations on x scaled by its larger part."""
    inv = np.reciprocal(x)
    bad = ~np.isfinite(inv)
    if bad.any():
        xb = x[bad]
        m = np.maximum(np.abs(xb.real), np.abs(xb.imag))
        a, b = xb.real / m, xb.imag / m
        n = a * a + b * b
        inv.real[bad], inv.imag[bad] = a / n / m, -b / n / m
    return inv


def _odd(inv: np.ndarray, n: int) -> np.ndarray:
    """The rows (2l + 1)/x, l = 0 .. n - 1, from inv = 1/x."""
    return (2.0 * np.arange(n) + 1.0)[:, None] * inv


def _products(p: np.ndarray, f: np.ndarray) -> np.ndarray:
    """The running products p[l + 1] = p[l] f[l], l = 0 .. len(f) - 1, into
    the rows of p (p[0] given).  No complex product of the 3D route is taken
    in place: where a product's output is one of its inputs, numpy
    multiplies one-element rows by another loop, which rounds differently,
    so a value would depend on how many arguments share its call."""
    for l in range(len(f)):
        np.multiply(p[l], f[l], out=p[l + 1])
    return p


def _h_ratios(odd: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The ratios s_l = h_l(x) / h_{l-1}(x), l = 1 .. len(s), into the rows
    of s, from the rows odd of _odd: s_1 = 1/x - i, s_{l+1} = (2l + 1)/x -
    1/s_l (DLMF 10.49.6, 10.51.1).  h is the dominant solution, so the
    forward recurrence is stable."""
    if len(s):
        np.subtract(odd[0], 1j, out=s[0])
    for l in range(1, len(s)):
        np.subtract(odd[l], np.reciprocal(s[l - 1]), out=s[l])
    return s


def _sph_h(x: np.ndarray, n_deg: int, scale=1.0) -> np.ndarray:
    """scale h_l(x), h_l = h_l^(1), l = 0 .. n_deg - 1, at nonzero x (scale
    one number, or one per x), as rows: the closed form scale h_0 = -i
    scale e^{ix} / x times the products of the ratios."""
    inv = _reciprocal(x)
    h = np.empty((n_deg, x.size), dtype=complex)
    np.multiply(_cis(x), -1j * (scale * inv), out=h[0])
    return _products(h, _h_ratios(_odd(inv, n_deg - 1),
                                  np.empty((n_deg - 1, x.size), dtype=complex)))


def _ratio_start(x: np.ndarray, top: np.ndarray) -> np.ndarray:
    """Start degree N of the backward ratios of degrees up to top at x:
    max(sqrt(L^2 + 45 |x|) + 10, t + 8 t^(1/3) + 2), t = |Re x|.  On the
    imaginary axis the start's error falls as exp(-(N^2 - L^2) / |x|), near
    the real axis once N is past the turning point |x|; from this start
    every ratio is converged to 1e-15 (for L <= 150 and |x| from 1e-2 to
    1e3 on rays from the real to the imaginary axis, with 6 degrees to
    spare)."""
    t = np.abs(x.real)
    return np.ceil(np.maximum(np.sqrt(top * top + 45.0 * np.abs(x)) + 10.0,
                              t + 8.0 * np.cbrt(t) + 2.0)).astype(int)


def _sph_j(x: np.ndarray, top: np.ndarray) -> tuple:
    """j_l(x), l = 0 .. max(top), at each x of the closed upper half plane
    up to its own degree top: a table whose column at[i] holds the degrees
    0 .. top[i] of x[i] (the rows above are no values of it).  Each value
    depends only on its own x and top, and each route runs only to the
    largest top among its own x.

    Below _TINY, j_l = x^l / (2l + 1)!! (so j_l(0) is its limit, 1 for l =
    0 and 0 for l >= 1).  Elsewhere j runs upward from sin x / x and (j_0 -
    cos x) / x where that is stable (_UP_GAIN), and otherwise from the
    backward ratios r_l = j_l / j_{l-1} = 1 / ((2l + 1)/x - r_{l+1}),
    started at r = 0 past _ratio_start, through the cross product
    j_{l+1} h_l - j_l h_{l+1} = i / x^2 (DLMF 10.50.3):

        j_l = i / (x^2 h_l (r_{l+1} - s_{l+1})) = -e^{-ix} / (x (r_{l+1} - s_{l+1}) s_1 ... s_l)

    (s the ratios of h, _h_ratios), which needs no normalisation by j_0, so
    zeros of sin x do not matter, and no h_l, which may overflow where j_l
    does not.
    """
    size = np.abs(x)
    tiny = size < _TINY
    up = (size >= top) & (x.imag * top * top <= _UP_GAIN * size * size) & ~tiny
    iu, idn, it = np.flatnonzero(up), np.flatnonzero(~up & ~tiny), np.flatnonzero(tiny)
    tables = []
    if iu.size:
        n_deg = int(top[iu].max()) + 1
        xu = x[iu]
        inv = 1.0 / xu
        a, b = xu.real, xu.imag
        sin, cos = np.empty(xu.shape, dtype=complex), np.empty(xu.shape, dtype=complex)
        sin.real, sin.imag = np.sin(a) * np.cosh(b), np.cos(a) * np.sinh(b)
        cos.real, cos.imag = np.cos(a) * np.cosh(b), -np.sin(a) * np.sinh(b)
        odd = _odd(inv, n_deg - 1)
        ju = np.empty((n_deg, iu.size), dtype=complex)
        ju[0] = sin * inv
        if n_deg > 1:
            ju[1] = (ju[0] - cos) * inv
        for l in range(1, n_deg - 1):
            np.multiply(odd[l], ju[l], out=ju[l + 1])
            np.subtract(ju[l + 1], ju[l - 1], out=ju[l + 1])
        tables.append(ju)
    if idn.size:
        # The x of the latest start first: degree N joins every x whose
        # start is N, so each x runs down from its own start.
        n_deg = int(top[idn].max()) + 1
        start = _ratio_start(x[idn], top[idn])  # each past its top, so odd has n_deg rows
        by_start = np.argsort(-start, kind="stable")
        idn, start = idn[by_start], start[by_start]
        xd = x[idn]
        odd = _odd(1.0 / xd, int(start[0]) + 1)
        live = np.searchsorted(-start, -np.arange(start[0] + 1), side="right")
        r = np.zeros(idn.size, dtype=complex)
        jd = np.zeros((n_deg, idn.size), dtype=complex)  # r_{l+1} in row l
        for deg in range(int(start[0]), 0, -1):
            c = live[deg]
            np.subtract(odd[deg, :c], r[:c], out=r[:c])
            np.reciprocal(r[:c], out=r[:c])
            if deg <= n_deg:
                jd[deg - 1] = r
        s = _h_ratios(odd, np.empty((n_deg, idn.size), dtype=complex))
        # den[l] = x (r_{l+1} - s_{l+1}) (in the rows of odd) and p[l] = 1 /
        # (s_1 ... s_{l+1}) (in jd), so that j_l = -e^{-ix} p[l-1] / den[l]
        # (p[-1] = 1), into s and then jd.
        den = np.multiply(np.subtract(jd, s, out=jd), xd, out=odd[:n_deg])
        np.reciprocal(s, out=s)
        jd[0] = s[0]
        _products(jd, s[1:])
        np.divide(jd[:-1], den[1:], out=s[1:])
        np.reciprocal(den[0], out=s[0])
        tables.append(np.multiply(s, -_cis(-xd), out=jd))
    if it.size:
        n_deg = int(top[it].max()) + 1
        jt = np.ones((n_deg, it.size), dtype=complex)
        if n_deg > 1:
            f = x[it] / (2.0 * np.arange(1, n_deg) + 1.0)[:, None]
            jt[1] = f[0]
            _products(jt[1:], f[1:])
        tables.append(jt)
    at = np.empty(x.size, dtype=int)
    at[np.concatenate([iu, idn, it])] = np.arange(x.size)
    if len(tables) == 1:
        return tables[0], at
    j = np.zeros((int(top.max()) + 1, x.size), dtype=complex)
    col = 0
    for t in tables:
        j[: len(t), col : col + t.shape[1]] = t
        col += t.shape[1]
    return j, at


def _root(z: complex) -> complex:
    """The root every Bessel factor takes: w = sqrt_upper(z), or of conj z
    where Im z < 0 (_factors then conjugates the factors)."""
    return sqrt_upper(z.conjugate() if z.imag < 0.0 else z)


def _roots(z: np.ndarray):
    """The _root of each energy: one complex for a 0-d z, else an array of
    z's shape, each element the bits of _root; more than one energy in one
    array pass.

    The finiteness and essential-spectrum tests of require_resolvent_energy
    run over the whole array; the first offending energy, in flat order, is
    passed to it to raise its error.  The root is CPython's complex sqrt
    (cmathmodule.c, the algorithm of cmath.sqrt) of conj z where Im z < 0:
    s = 2 sqrt(|x|/8 + hypot(|x|/8, |y|/8)) and d = |y| / (2 s), with both
    parts scaled by 2^53 first where both are below the smallest normal, so
    that hypot keeps full precision (and s is not 0).  np.sqrt rounds some
    roots differently (sqrt(1j) by 1 ulp in Im), so it is not used.
    """
    if z.size == 1:  # the scalar route is the cheaper one here
        w = _root(require_resolvent_energy(z.item()))
        return w if z.ndim == 0 else np.full(z.shape, w)
    x, y = z.real, z.imag
    bad = ~(np.isfinite(x) & np.isfinite(y)) | ((y == 0.0) & (x >= 0.0))
    if bad.any():
        require_resolvent_energy(z.ravel()[bad.ravel().argmax()].item())
    y = np.where(y < 0.0, -y, y)  # conj z where Im z < 0
    ax, ay = np.abs(x), np.abs(y)
    s = 2.0 * np.sqrt(ax / 8.0 + np.hypot(ax / 8.0, ay / 8.0))
    tiny = (ax < _NORMAL_MIN) & (ay < _NORMAL_MIN)
    if tiny.any():
        up = np.ldexp(ax[tiny], 53)
        s[tiny] = np.ldexp(np.sqrt(up + np.hypot(up, np.ldexp(ay[tiny], 53))), -27)
    d = ay / (2.0 * s)
    right = x >= 0.0
    re = np.where(right, s, d)
    im = np.copysign(np.where(right, d, s), y)
    # sqrt_upper's branch: the root with Im > 0, or Im = 0 and Re >= 0.
    flip = (im < 0.0) | ((im == 0.0) & (re < 0.0))
    w = np.empty(z.shape, dtype=complex)
    w.real = np.where(flip, -re, re)
    w.imag = np.where(flip, -im, im)
    return w


def separable_kernels(dim: int, orders, z, r, rp) -> np.ndarray:
    """Radial channel kernels g(z; r, r') of one or several orders.

    orders holds |n| (2D) or l (3D): one order, or an array of orders whose
    axes lead the result's; z is one energy, or one energy per order (an
    array of the orders' shape).  r and rp broadcast against each other (row
    and column vectors give the matrices).  J and H are evaluated over every
    order in one pass per side, or, where both sides hold several radii, in
    one pass over their distinct radii (_shared_factors), J only where some
    entry takes it at its smaller radius and H at its larger one, each
    factor with its own radial weight and limit; entries are the products
    ((i pi / 2) J) * H in that order.  In 2D every value equals the
    elementwise closed formula (jv, hankel1) at its own energy bit for bit,
    except where w r is real and positive: there J takes jv at the real
    argument.  In 3D the factors come from degree recurrences (_sph_j,
    _sph_h) to a few ulp of mpmath's; an entry's bits depend on its
    degree, energy and radius and on the largest degree at its root in the
    call.  Lower half-plane energies go through g(conj z) = conj g(z).

    Every energy is checked (require_resolvent_energy, in one array pass:
    _roots); a negative or NaN radius and a negative or fractional 3D
    degree raise ValueError, and r = r' = 0 (an H factor at argument 0)
    SingularArgumentError.  An entry whose J factor is taken at r = 0 and is
    exactly 0 there (every order but the lowest) is 0, even where its H
    factor overflows; any other nonfinite entry (Bessel overflow at large
    |z| r, or at a tiny r') raises OverflowError naming the first such
    order, its z and the radii (_check_kernels).  An empty order list gives
    an empty result and checks nothing.
    """
    orders = np.asarray(orders)
    r = np.asarray(r, dtype=float)
    rp = np.asarray(rp, dtype=float)
    if orders.size == 0:
        return np.zeros(orders.shape + np.broadcast_shapes(r.shape, rp.shape), dtype=complex)
    if dim == 3 and orders.min() < 0:
        raise ValueError(f"degree must be nonnegative, got l={orders.min()}")
    if dim == 3 and (orders % 1 != 0).any():
        raise ValueError(f"degree must be an integer, got l={orders[orders % 1 != 0][0]}")
    z = np.asarray(z, dtype=complex)
    g, finite = _kernels(dim, orders, z, r, rp)
    if not finite:
        _check_kernels(dim, orders, z, g, r, rp)
    return g


def _kernels(dim: int, orders: np.ndarray, z: np.ndarray, r: np.ndarray,
             rp: np.ndarray) -> tuple:
    """The kernels of separable_kernels (nonempty orders, z an array), and
    whether all are finite; nonfinite entries are left for the caller's
    _check_kernels."""
    w = _roots(z)
    flip = z.imag < 0.0
    if not (r.min(initial=0.0) >= 0.0 and rp.min(initial=0.0) >= 0.0):
        raise ValueError("radii must be nonnegative")
    if orders.ndim and r.ndim != rp.ndim:
        # Order axes lead the factors of r and of rp: pad both to one ndim.
        nd = max(r.ndim, rp.ndim)
        r = r.reshape((1,) * (nd - r.ndim) + r.shape)
        rp = rp.reshape((1,) * (nd - rp.ndim) + rp.shape)
    lower = r <= rp  # entry takes J at r and H at rp; otherwise the reverse
    # An overflowed factor, or the unselected product of an entry, may give
    # inf * 0; only the selected entries are checked (_check_kernels).
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        if r.size > 1 and rp.size > 1:
            jr, hr, jp, hp = _shared_factors(dim, orders, w, flip, r, rp, lower)
        else:
            # One radius on a side: sorting out repeated radii would cost a
            # one-term call more than it can save.
            jr, hr = _factors(dim, orders, w, flip, r, _needed(lower, r.shape),
                              _needed(~lower, r.shape))
            jp, hp = _factors(dim, orders, w, flip, rp, _needed(~lower, rp.shape),
                              _needed(lower, rp.shape))
        g = np.where(lower, jr * hp, jp * hr)
    finite = bool(np.isfinite(g).all())
    if not finite:
        # J at r = 0 is its exact limit, 0 for every order but the lowest:
        # the kernel is 0 there even where its H factor overflows.
        at0 = np.where(lower, (r == 0.0) & (jr == 0.0), (rp == 0.0) & (jp == 0.0))
        g[at0 & ~np.isfinite(g)] = 0.0
    return g, finite


def _shared_factors(dim: int, orders, w, flip, r: np.ndarray, rp: np.ndarray,
                    lower: np.ndarray) -> tuple:
    """The factors J and H at r and at rp (as the two _factors calls of
    _kernels give them) from one _factors call over their distinct radii, so
    a radius on both sides (a square matrix, the point pairs of a Krein
    kernel) has each factor evaluated once per order and energy."""
    radii, at = np.unique(np.concatenate([r.ravel(), rp.ravel()]), return_inverse=True)
    at_r, at_rp = at[: r.size].reshape(r.shape), at[r.size :].reshape(rp.shape)
    need_j = np.zeros(radii.size, dtype=bool)
    need_h = np.zeros(radii.size, dtype=bool)
    need_j[at_r[_needed(lower, r.shape)]] = need_h[at_r[_needed(~lower, r.shape)]] = True
    need_j[at_rp[_needed(~lower, rp.shape)]] = need_h[at_rp[_needed(lower, rp.shape)]] = True
    jf, hf = _factors(dim, orders, w, flip, radii, need_j, need_h)
    # np.take gathers in C order: a later sum over the kernels adds in the
    # order of their layout.
    return (jf.take(at_r, axis=-1), hf.take(at_r, axis=-1), jf.take(at_rp, axis=-1),
            hf.take(at_rp, axis=-1))


def _check_kernels(dim: int, orders: np.ndarray, z, g: np.ndarray, r, rp) -> None:
    """Raise OverflowError for the first order (in flat order) with a
    nonfinite kernel in g, laid out as separable_kernels(dim, orders, z, r,
    rp), naming that order, its energy and the radii of its nonfinite
    entries."""
    if np.isfinite(g).all():
        return
    per_order = g.reshape((-1,) + np.broadcast_shapes(np.shape(r), np.shape(rp)))
    energies = np.broadcast_to(z, orders.shape).ravel()
    for order, e, gk in zip(orders.ravel(), energies, per_order):
        _check_finite("radial kernel", dim, order, complex(e), gk, r, rp)


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


@functools.lru_cache(maxsize=16, typed=True)
def gauss_legendre(n: int) -> tuple:
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1], the
    arrays of leggauss(n) computed once per size (16 sizes kept).  Every
    caller shares them, so both are read-only."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


# Gauss-Legendre rule of radial_apply on each interval between breakpoints.
_APPLY_NODES = 8
_APPLY_X, _APPLY_W = gauss_legendre(_APPLY_NODES)
_GRADING = 1.25
_GRADING_FLOOR = 1e-8
# radial_apply plans kept, least recently used dropped first.
_PLANS = 8
# The breakpoint budget: the uniform and graded edges that radial_apply may
# add to the knots (a resolvent-apply plan adds at most 63 to its 1,000).
_MAX_EDGES = 131_072


def _edges(grid: np.ndarray, w: complex) -> np.ndarray:
    """Breakpoints of radial_apply: the grid knots, uniform edges at most
    3/|w| apart and geometric edges towards the origin.  Where the added
    edges would exceed the breakpoint budget (a large |w| or hi - lo, or a
    grid whose second knot is near 0), raise ValueError before any exists."""
    lo, hi = float(grid[0]), float(grid[-1])
    # Geometric edges from lo (from just above 0 if lo = 0) keep each interval
    # within _GRADING times its left end: the H integrand is singular at 0.
    start = lo if lo > 0.0 else _GRADING_FLOOR * float(grid[1])
    uniform = (hi - lo) * abs(w) / 3.0
    n_graded = math.log(hi / start, _GRADING) if start > 0.0 else math.inf
    if uniform + n_graded > _MAX_EDGES:
        raise ValueError(
            f"radial_apply needs {uniform + n_graded:.6g} breakpoints on [{lo:.6g}, {hi:.6g}] "
            f"at |sqrt z| = {abs(w):.6g}, over the budget of {_MAX_EDGES}")
    n_uniform = int(uniform) + 1
    graded = start * _GRADING ** np.arange(n_graded)
    return np.unique(np.concatenate([grid, np.linspace(lo, hi, n_uniform + 1), graded]))


def _integrals(dim: int, orders, w, flip, f, a, b, need_j, need_h,
               rule: tuple = (_APPLY_X, _APPLY_W)) -> tuple:
    """Integrals over the intervals [a, b] of the factors (i pi / 2) J f and
    H f (_factors) times t^(dim-1), by one Gauss rule (nodes, weights on
    [-1, 1]; radial_apply's by default) each; J only on the intervals of
    need_j and H on those of need_h (zero elsewhere).  The one home of
    product integration against the separated kernel: orders, w and flip
    are as _factors takes them, so the axes of an order array lead the
    results'; f None stands for f = 1.
    """
    x, wx = rule
    half = 0.5 * (b - a)[:, None]
    t = 0.5 * (a + b)[:, None] + half * x
    wf = half * wx
    if f is not None:
        wf = wf * f(t)
    wf = wf * t ** (dim - 1)
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        jt, ht = _factors(dim, orders, w, flip, t,
                          np.broadcast_to(need_j[:, None], t.shape),
                          np.broadcast_to(need_h[:, None], t.shape))
        return np.sum(jt * wf, axis=-1), np.sum(ht * wf, axis=-1)


@functools.lru_cache(maxsize=_PLANS)
def _plan(dim: int, order: int, z_bytes: bytes, grid_bytes: bytes, values_bytes: bytes) -> tuple:
    """The part of radial_apply fixed by (psi, z): the interpolant f of psi,
    the breakpoints, and the running sums L[k] = sum_{j<k} int_j (i pi / 2) J f
    and R[k] = sum_{j>=k} int_j H f over the whole intervals between them.

    Keyed on content (the bytes of z, of the grid and of the values), so a
    changed psi never meets a stale plan; the edges and sums are read-only.
    Every interval is integrated, so where a large Im sqrt(z) overflows J
    at large radii or H at small ones the sums beyond go nonfinite; L[k]
    adds only the intervals below k and R[k] only those from k on, so each
    entry an output reads is finite wherever its kernel is.
    """
    z = complex(np.frombuffer(z_bytes, dtype=complex)[0])
    grid = np.frombuffer(grid_bytes)
    edges = _edges(grid, _root(z))
    f = spline_interpolant(grid, np.frombuffer(values_bytes, dtype=complex))
    every = np.ones(len(edges) - 1, bool)
    jint, hint = _integrals(dim, order, _root(z), z.imag < 0.0, f, edges[:-1], edges[1:],
                            every, every)
    with np.errstate(invalid="ignore", over="ignore"):
        left = np.concatenate([[0.0], np.cumsum(jint)])
        right = np.concatenate([np.cumsum(hint[::-1])[::-1], [0.0]])
    edges.flags.writeable = left.flags.writeable = right.flags.writeable = False
    return f, edges, left, right


def radial_apply(psi, z: complex, r_out) -> np.ndarray:
    """Apply the channel radial resolvent to psi, sampled at the radii r_out.

    Computes int g(z; r, t) f(t) t^(dim-1) dt for each output radius r,
    where f is the interpolant of psi (cubic spline, linear below 4 points,
    zero outside [lo, hi] = [grid[0], grid[-1]]) and g the kernel of psi's
    channel.  With the kernel separated as (i pi / 2) J(w r<) H(w r>),

        int g f t^(dim-1)  =  H(w r) L(r) + J(w r) R(r),
        L(r) = int_lo^r (i pi / 2) J f t^(dim-1),   R(r) = int_r^hi H f t^(dim-1)

    (J and H are the factors of _factors, in 3D each over the square root
    of its radius).  The breakpoints are the grid knots, uniform edges at
    most 3/|sqrt z| apart and geometric edges towards the origin, where the
    H integrand is singular, so f is one cubic on each interval between them
    and no interval is wider than a quarter of its distance from 0; one
    _APPLY_NODES-point Gauss rule per interval then integrates f against J
    and H to about 1e-12 relative.  A forward and a backward running sum of
    the interval integrals give L and R at every breakpoint; an output radius
    inside an interval adds the two pieces of that interval on either side
    of it.  Work is O(len(grid) + len(r_out)), and the value at r does not
    depend on the other radii.

    The running sums, the breakpoints and the interpolant form a plan, kept
    in a memo of the last _PLANS = 8 plans keyed on the content of the
    inputs: dim, order, the bytes of z and the bytes of psi's grid and
    values.  A call that meets its plan, whatever its radii, evaluates J and
    H only on the pieces of the inside radii and at the radii themselves, as
    when the Krein, circle and averaged resolvents of one psi share a z.
    Results are bit for bit the same with or without the memo.

    Radii r >= hi take L only and radii r <= lo (r = 0 in 2D too) R only.
    An output reads J only below its radius and H only above it, so a large
    Im sqrt(z) overflows only where the kernel itself would; a nonfinite
    result raises OverflowError.  Lower half-plane z uses the conjugated
    factors at conj z.
    """
    z = complex(z)
    dim, order = psi.dim, psi.order
    grid = np.asarray(psi.grid, dtype=float)
    values = np.asarray(psi.values, dtype=complex)
    lo, hi = float(grid[0]), float(grid[-1])
    r_out = np.asarray(r_out, dtype=float)
    r = r_out.ravel()
    rc = np.clip(r, lo, hi)
    # z as bytes: a zero part of either sign compares equal, but its root
    # and factors may differ in the sign of a zero.
    f, edges, left_sums, right_sums = _plan(
        dim, order, np.complex128(z).tobytes(), grid.tobytes(), values.tobytes())
    k = np.searchsorted(edges, rc, side="right") - 1  # edges[k] <= rc
    inside = rc > edges[k]  # rc splits interval k in two pieces
    kr = k + inside  # R(rc) sums the whole intervals from kr on
    ks, cs = k[inside], rc[inside]
    yes, no = np.ones(len(cs), bool), np.zeros(len(cs), bool)
    # The pieces below (J) and above (H) each inside rc.
    jin, hin = _integrals(dim, order, _root(z), z.imag < 0.0, f,
                          np.concatenate([edges[ks], cs]),
                          np.concatenate([cs, edges[ks + 1]]),
                          np.concatenate([yes, no]), np.concatenate([no, yes]))
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        jr, hr = _factors(dim, order, _root(z), z.imag < 0.0, r, r < hi, r > lo)
        left = left_sums[k]
        right = right_sums[kr]
        left[inside] += jin[: len(cs)]
        right[inside] += hin[len(cs) :]
        out = hr * left + jr * right
    _check_finite("radial resolvent", dim, order, z, out, r)
    return out.reshape(r_out.shape)


def trapezoid_weights(grid: np.ndarray) -> np.ndarray:
    """Composite trapezoid weights for an arbitrary increasing grid."""
    w = np.zeros(len(grid))
    d = np.diff(grid)
    w[:-1] += 0.5 * d
    w[1:] += 0.5 * d
    return w


def spline_interpolant(grid: np.ndarray, values: np.ndarray):
    """Interpolant of complex samples, zero outside the grid and at NaN: the
    natural cubic spline (de Boor, A Practical Guide to Splines, ch. IV),
    linear below 4 points.

    Built and evaluated operation for operation as scipy's
    CubicSpline(grid, values, bc_type="natural", extrapolate=False) is, so
    every value is that spline's bits (NaN there is 0 here): the knot slopes
    by one solve_banded call on its banded system, the interval coefficients
    as CubicHermiteSpline forms them, and each value as PPoly sums it,
    y + s u + c1 u^2 + c0 u^3 with u^3 = (u u) u (Horner's form rounds
    differently), on the interval of grid[k] <= t < grid[k + 1], the last
    one at t = grid[-1].  A grid that is not strictly increasing, or a
    nonfinite grid or value, raises ValueError, as CubicSpline does; so do
    knots too close for their values, where a slope or a coefficient
    overflows (CubicSpline raises for a slope and gives NaN for a
    coefficient).
    """
    grid = np.asarray(grid, dtype=float)
    values = np.asarray(values, dtype=complex)
    if len(grid) < 4:
        def f_lin(t):
            t = np.asarray(t, dtype=float)
            re = np.interp(t, grid, values.real, left=0.0, right=0.0)
            im = np.interp(t, grid, values.imag, left=0.0, right=0.0)
            return re + 1j * im

        return f_lin
    if not (np.isfinite(grid).all() and np.isfinite(values).all()):
        raise ValueError("spline grid and values must be finite")
    dx = np.diff(grid)
    if not np.all(dx > 0.0):
        raise ValueError("spline grid must be strictly increasing")
    n = len(grid)
    dy = np.diff(values)
    # Knots too close for their values overflow a slope or a coefficient,
    # which the check below turns into a ValueError.
    with np.errstate(all="ignore"):
        # The knot slopes s: the tridiagonal system of CubicSpline's natural
        # ends, in its banded form.
        slope = dy / dx
        ab = np.zeros((3, n))
        ab[1, 1:-1] = 2 * (dx[:-1] + dx[1:])
        ab[0, 2:] = dx[:-1]
        ab[2, :-2] = dx[1:]
        ab[1, 0], ab[0, 1] = 2 * dx[0], dx[0]
        ab[1, -1], ab[2, -2] = 2 * dx[-1], dx[-1]
        b = np.empty(n, dtype=complex)
        b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
        b[0], b[-1] = 3 * dy[0], 3 * dy[-1]
        s = solve_banded((1, 1), ab, b, overwrite_ab=True, overwrite_b=True,
                         check_finite=False)
        # The cubics y + s u + c1 u^2 + c0 u^3, u = t - grid[k], as a table of
        # (y, s, c1, c0) by (re, im) by interval, so that one gather serves a
        # call; y + 0.0 is the bits of PPoly's sum 0 + y (no -0.0 part).
        q = (s[:-1] + s[1:] - 2 * slope) / dx
        coef = np.stack([values[:-1] + 0.0, s[:-1], (slope - s[:-1]) / dx - q, q / dx])
    if not np.isfinite(coef).all():
        raise ValueError("spline coefficients overflow: knots too close for their values")
    coef = np.stack([coef.real, coef.imag], axis=1)
    lo, hi = grid[0], grid[-1]

    def f(t):
        t = np.asarray(t, dtype=float)
        x = t.ravel()
        k = np.minimum(np.searchsorted(grid, x, side="right") - 1, n - 2)
        c = coef.take(k, axis=2)
        u = x - grid[k]
        # Real and imaginary parts apart: PPoly's products with u + 0j round
        # each part as these do.
        u2 = u * u
        v = c[0] + c[1] * u + c[2] * u2 + c[3] * (u2 * u)
        v[:, ~((x >= lo) & (x <= hi))] = 0.0  # outside and NaN
        out = np.empty(len(x), dtype=complex)
        out.real, out.imag = v
        return out.reshape(t.shape)

    return f
