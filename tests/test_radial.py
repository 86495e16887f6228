"""Separable radial kernel core and the grid resolvent application."""

import hashlib
import math
import re
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.special as sp
from scipy import integrate
from scipy.interpolate import CubicSpline
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rotkrein._radial
from helpers import CountingSpecial, make_psi
from oracles import fixed_rule_integrals, kernel_3d, root, sph_factors_3d
from rotkrein import (
    BladeParam,
    ChannelIndex2,
    ChannelIndex3,
    CircleParam,
    KreinParam,
    PointSource,
    RadialChannelFunction,
    RotationSpec,
    SingularArgumentError,
    Truncation,
    apply_circle_resolvent,
    apply_krein_resolvent,
    averaged_resolvent,
)
from rotkrein._radial import (
    _factors,
    _roots,
    g2_vec,
    g3_vec,
    gauss_legendre,
    radial_apply,
    separable_kernels,
    spline_interpolant,
)
from rotkrein.greens import radial_kernel_2d, radial_kernel_3d
from rotkrein.specfun import sqrt_upper


def elementwise_kernel(dim, order, z, r, rp):
    """The closed formula entry by entry: J at min(r, r'), H at max(r, r'),
    in 3D each over the square root of its own radius, by scipy's jv and
    hankel1 (AMOS).  In 2D the library's own route; in 3D, where the library
    runs degree recurrences, an independent formula."""
    z = complex(z)
    if z.imag < 0.0:
        return np.conj(elementwise_kernel(dim, order, np.conj(z), r, rp))
    w = sqrt_upper(z)
    rmin = np.minimum(r, rp)
    rmax = np.maximum(r, rp)
    if dim == 2:
        nn = abs(order)
        return 0.5j * math.pi * sp.jv(nn, w * rmin) * sp.hankel1(nn, w * rmax)
    nu = order + 0.5
    return (
        (0.5j * math.pi * sp.jv(nu, w * rmin) / np.sqrt(rmin))
        * (sp.hankel1(nu, w * rmax) / np.sqrt(rmax))
    )


def assert_oracle_kernels(got, orders, zs, r, rp):
    """3D kernels g (orders leading, then the broadcast radii) within 1e-13
    of the mpmath kernels, relative to each one's error scale (kernel_3d)."""
    shape = np.broadcast_shapes(np.shape(r), np.shape(rp))
    r, rp = np.broadcast_to(r, shape), np.broadcast_to(rp, shape)
    got = np.asarray(got).reshape((-1,) + shape)
    for g, l, z in zip(got, np.ravel(orders), np.broadcast_to(zs, np.size(orders))):
        for idx in np.ndindex(shape):
            want, scale = kernel_3d(int(l), complex(z), float(r[idx]), float(rp[idx]))
            assert abs(g[idx] - want) <= 1e-13 * scale, (l, z, r[idx], rp[idx], g[idx], want)


radius = st.floats(0.01, 5.0)
spectral = st.builds(
    complex,
    st.floats(-30.0, 30.0),
    st.floats(0.05, 5.0) | st.floats(-5.0, -0.05),
)


@st.composite
def kernel_case(draw):
    dim = draw(st.sampled_from((2, 3)))
    order = draw(st.integers(-4, 4) if dim == 2 else st.integers(0, 4))
    r = draw(st.lists(radius, min_size=1, max_size=12))
    # Columns reuse some row radii, so the ties r = r' are exercised.
    rp = draw(st.lists(radius | st.sampled_from(r), min_size=1, max_size=12))
    return dim, order, draw(spectral), np.array(r), np.array(rp)


@settings(max_examples=60, deadline=None)
@given(kernel_case())
def test_core_equals_elementwise_formula_bitwise(case):
    """2D: the elementwise jv/hankel1 formula bit for bit.  3D: the mpmath
    kernels within 1e-13 (the degree recurrences have other bits than
    AMOS); the one-order alias g3_vec gives the bits of the core."""
    dim, order, z, r, rp = case
    got = separable_kernels(dim, order, z, r[:, None], rp[None, :])
    vec = g2_vec(order, z, r[0], rp) if dim == 2 else g3_vec(order, z, r[0], rp)
    if dim == 2:
        want = elementwise_kernel(dim, order, z, r[:, None], rp[None, :])
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert vec.tobytes() == elementwise_kernel(dim, order, z, r[0], rp).tobytes()
        return
    assert got.shape == (r.size, rp.size)
    assert_oracle_kernels(got, order, z, r[:, None], rp[None, :])
    assert vec.tobytes() == separable_kernels(dim, order, z, r[0], rp).tobytes()


@st.composite
def shell_case(draw):
    dim = draw(st.sampled_from((2, 3)))
    orders = draw(st.lists(st.integers(-7, 7) if dim == 2 else st.integers(0, 7),
                           min_size=1, max_size=8))
    r = draw(st.lists(radius, min_size=1, max_size=13))
    rp = draw(st.lists(radius | st.sampled_from(r), min_size=1, max_size=13))
    # Paired energies repeat some, as the channels of one shell do.
    zs = draw(st.lists(spectral, min_size=1, max_size=3))
    paired = [draw(st.sampled_from(zs)) for _ in orders]
    return dim, orders, draw(spectral), paired, np.array(r), np.array(rp)


@settings(max_examples=60, deadline=None)
@given(shell_case())
def test_batched_orders_equal_one_order_kernels_bitwise(case):
    """Many orders in one call, at one energy or one energy per order, for
    matrices, vectors and scalars.  2D: each slice is the one-order kernel
    at its energy and the elementwise formula, bit for bit.  3D: each slice
    is the mpmath kernel within 1e-13 (a degree's bits follow the largest
    degree at its energy in the call, which sets its recurrence route)."""
    dim, orders, z, paired, r, rp = case
    for a, b in ((r[:, None], rp[None, :]), (r, rp[0]), (r[0], rp), (r[0], rp[0])):
        for energies in (z, paired):
            got = separable_kernels(dim, orders, energies, a, b)
            assert got.shape == (len(orders),) + np.broadcast(a, b).shape
            if dim == 3:
                assert_oracle_kernels(got, orders, energies, a, b)
                continue
            for g, order, zk in zip(got, orders, np.broadcast_to(energies, len(orders))):
                one = separable_kernels(dim, order, zk, a, b)
                assert g.tobytes() == one.tobytes()
                # At least 1-D: numpy's scalar arithmetic may round differently.
                want = elementwise_kernel(dim, order, zk, np.atleast_1d(a), np.atleast_1d(b))
                assert g.tobytes() == want.tobytes()


# The arguments of the 3D factor check: rays from the real to the imaginary
# axis (near-real, near-imaginary and between), |w r| from 1e-3 to 1e3, and
# 1e-10, where j_l takes its leading power.
FACTOR_RAYS = [1e-9, 1e-3, 0.05, 0.3, 0.8, 1.2, 1.5, math.pi / 2 - 1e-3, math.pi / 2]
FACTOR_RADII = np.concatenate([[1e-10], np.geomspace(1e-3, 1e3, 13)])


@pytest.mark.parametrize("top", [1, 6, 20, 48, 64])
def test_3d_factors_match_mpmath(top):
    """The 3D factors of degrees 0 .. top, whose largest degree sets each
    argument's recurrence route, against the mpmath factors at the same
    root and arguments: H within 1e-13 relative, J too, except near the
    real axis where j oscillates (|Im x| <= 1, |x| > l), where J is within
    1e-13 of its envelope (J's zeros lie on the real axis).  The factors of
    Im z < 0 are the conjugates.  Entries the oracle puts outside the
    normal range of doubles are not compared."""
    tiny = sys.float_info.min
    orders = np.arange(top + 1)
    l = orders[:, None]
    every = np.ones(FACTOR_RADII.size, bool)
    for theta in FACTOR_RAYS:
        w = complex(math.cos(theta), math.sin(theta))
        with np.errstate(all="ignore"):  # as in every library caller
            got = _factors(3, orders, np.asarray(w), False, FACTOR_RADII, every, every)
            flipped = _factors(3, orders, np.asarray(w), True, FACTOR_RADII, every, every)
        assert all(f.tobytes() == np.conj(g).tobytes() for f, g in zip(flipped, got))
        want = np.array([sph_factors_3d(top, w, r) for r in FACTOR_RADII]).transpose(1, 2, 0)
        with np.errstate(all="ignore"):
            fine = (np.abs(want) >= tiny) & np.isfinite(want)
            x = w * FACTOR_RADII
            near_real = (np.abs(x.imag) <= 1.0) & (np.abs(x) > l)
            scale = np.abs(want)
            scale[0] = np.where(near_real, np.maximum(scale[0], scale[1]), scale[0])
            err = np.abs(got - want)
        ok = (err <= 1e-13 * scale) | ~fine.all(axis=0)
        assert ok.all(), (theta, np.argwhere(~ok)[:4])


@settings(max_examples=60, deadline=None)
@given(kernel_case())
def test_core_is_symmetric_in_the_radii(case):
    dim, order, z, r, rp = case
    np.testing.assert_array_equal(
        separable_kernels(dim, order, z, r[:, None], rp[None, :]),
        separable_kernels(dim, order, z, rp[:, None], r[None, :]).T,
    )


@settings(max_examples=60, deadline=None)
@given(kernel_case())
def test_core_conjugate_reflection(case):
    dim, order, z, r, rp = case
    np.testing.assert_array_equal(
        separable_kernels(dim, order, z.conjugate(), r[:, None], rp[None, :]),
        np.conj(separable_kernels(dim, order, z, r[:, None], rp[None, :])),
    )


@pytest.mark.parametrize("vec", [g2_vec, g3_vec])
def test_core_overflow_is_typed(vec):
    with pytest.raises(OverflowError, match=r"order 1 at z=\(-10000\+1j\).*\[7\.9, 8\]"):
        vec(1, -1e4 + 1j, 7.9, [8.0])


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from((2, 3)),
    st.lists(st.tuples(st.integers(0, 10), spectral), min_size=1, max_size=6),
    st.floats(0.3, 3.0),
)
def test_kernel_derivative_jump_is_the_wronskian(dim, pairs, rp):
    """The radial equation's delta source: d/dr g(z; r, r') jumps by
    -1/r'^(dim-1) across r = r', for every order and energy of a paired call,
    in both half-planes.  Second-order one-sided differences on each side."""
    orders = [n for n, _ in pairs]
    zs = [z for _, z in pairs]
    scale = 1.0 + max(abs(sqrt_upper(z)) for z in zs) * rp + max(orders)
    h = 1e-4 * rp / scale
    r = rp + h * np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    g = separable_kernels(dim, orders, zs, r, rp)
    right = (-3.0 * g[:, 2] + 4.0 * g[:, 3] - g[:, 4]) / (2.0 * h)
    left = (3.0 * g[:, 2] - 4.0 * g[:, 1] + g[:, 0]) / (2.0 * h)
    want = -1.0 / rp ** (dim - 1)
    np.testing.assert_allclose(right - left, want, rtol=1e-6, atol=0.0)


def test_kernel_error_contract():
    """Each energy of a call is checked, bad radii and degrees raise
    ValueError, r = r' = 0 SingularArgumentError in both dimensions and on
    the point and array paths, and an overflow names its own order and z."""
    with pytest.raises(ValueError, match="essential spectrum"):
        separable_kernels(2, [0, 1, 2], [1j, 1j, 3.0], 1.0, [1.0, 2.0])
    for bad in (-1.0, math.nan):
        with pytest.raises(ValueError, match="radii must be nonnegative"):
            separable_kernels(2, [0, 1], 1j, np.array([0.5, bad]), 1.0)
    with pytest.raises(ValueError, match="degree must be nonnegative"):
        separable_kernels(3, -1, 1j, 1.0, 1.0)
    with pytest.raises(ValueError, match=re.escape("degree must be an integer, got l=2.5")):
        separable_kernels(3, [1.0, 2.5], 1j, 1.0, 1.0)
    for dim in (2, 3):
        kernel = radial_kernel_2d if dim == 2 else radial_kernel_3d
        with pytest.raises(SingularArgumentError, match="singular at w r = 0"):
            kernel(1, 0.4 - 1j, 0.0, 0.0)
        with pytest.raises(SingularArgumentError, match="singular at w r = 0"):
            separable_kernels(dim, [0, 1], [1j, -2.0], np.array([0.0, 0.5])[:, None],
                              np.array([0.0, 0.7]))
        # An empty order list: nothing is evaluated or checked.
        assert separable_kernels(dim, [], 2.0, [1.0, 2.0], -1.0).shape == (0, 2)
    with pytest.raises(OverflowError, match=r"order 1 at z=\(-10000\+1j\).*\[7\.9, 8\]"):
        separable_kernels(2, [0, 1], [1j, -1e4 + 1j], 7.9, [8.0])


# Real and imaginary parts for the roots: both zero signs, subnormals, the
# smallest normal, and magnitudes up to 1e300.
ROOT_PARTS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-308, 2.2250738585072014e-308,
              -1e-300, 3e-12, 0.25, -1.0, 1.0, 7.5, -1e8, 1e150, -1e300, 1e300]


def _root_cases(parts):
    return [complex(a, b) for a in parts for b in parts if not (b == 0.0 and a >= 0.0)]


def test_roots_are_the_bits_of_root_per_element():
    """The array pass gives each energy the bits of its own scalar root
    (oracles.root): Re z = +-0, subnormal parts (CPython's scaled branch),
    parts up to 1e300, the negative real axis with both zero signs, and the
    lower half-plane."""
    zs = _root_cases(ROOT_PARTS)
    got = _roots(np.array(zs))
    assert got.shape == (len(zs),)
    assert got.tobytes() == np.array([root(z) for z in zs]).tobytes()
    # Any shape, one energy and a 0-d one included, is kept.
    assert _roots(np.array(zs[:6]).reshape(2, 3)).tobytes() == got[:6].tobytes()
    assert _roots(np.array([zs[7]])).tobytes() == got[7:8].tobytes()
    one = _roots(np.array(zs[7]))
    assert one.shape == () and one.tobytes() == got[7:8].tobytes()


finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(finite, finite), max_size=40))
def test_roots_are_the_bits_of_root_on_any_finite_energies(parts):
    zs = [complex(a, b) for a, b in parts if not (b == 0.0 and a >= 0.0)]
    assert _roots(np.array(zs, dtype=complex)).tobytes() == np.array(
        [root(z) for z in zs], dtype=complex).tobytes()


@pytest.mark.parametrize("dim", [2, 3])
def test_a_scalar_radius_makes_one_factor_pass(dim, monkeypatch):
    """A kernel call takes J and H in one _factors pass over the distinct
    radii of both sides, a scalar radius on either side included."""
    calls = []
    real = rotkrein._radial._factors

    def counted(*args):
        calls.append(args[4].size)
        return real(*args)

    monkeypatch.setattr(rotkrein._radial, "_factors", counted)
    rs = np.array([0.5, 1.0, 2.0])
    for r, rp, distinct in ((1.0, rs, 3), (rs, 1.0, 3), (1.0, 2.0, 2), (1.0, 1.0, 1)):
        calls.clear()
        separable_kernels(dim, [0, 1], [1j, 0.4 + 1j], r, rp)
        assert calls == [distinct]


def test_jv_reevaluates_only_arguments_on_the_real_axis(monkeypatch):
    """_jv takes jv again at the real argument only where w r lies on the
    positive real axis: a J at r = 0 (w r = 0) makes no second call, so the
    kernel is one jv and one hankel1 call."""
    counter = CountingSpecial()
    monkeypatch.setattr(rotkrein._radial, "sp", counter)
    separable_kernels(2, 1, 0.4 + 1j, 0.0, 1.0)
    assert counter.calls == 2


def test_3d_h_takes_one_recurrence_pass(recurrence_arguments):
    """The radial weight starts every h recurrence, so a tiny energy where
    h_l alone overflows takes no second pass: one H argument, and the
    kernel is still 1/7."""
    g = separable_kernels(3, 3, 8.57368557861636e-170 + 7.032574863824282e-249j, 1.0, 1.0)
    assert recurrence_arguments == [1, 1]
    assert g.real == pytest.approx(1 / 7, rel=1e-15) and abs(g.imag) < 1e-70


def test_roots_name_the_first_offending_energy():
    """The array tests raise require_resolvent_energy's error for the first
    bad energy in flat order."""
    with pytest.raises(ValueError, match=re.escape("spectral parameter (2+0j) lies on the")):
        _roots(np.array([1j, -1.0 + 0j, 2.0, 3.0, complex(math.nan, 0.0)]))
    with pytest.raises(ValueError, match=re.escape("spectral parameter (-0+0j) lies on the")):
        _roots(np.array([[1j, -1.0 + 0j], [complex(-0.0, 0.0), 2.0]]))
    with pytest.raises(ValueError, match=re.escape("nonfinite spectral parameter (nan+1j)")):
        _roots(np.array([1j, complex(math.nan, 1.0), 2.0, complex(1.0, math.inf)]))
    with pytest.raises(ValueError, match=re.escape("nonfinite spectral parameter (1-infj)")):
        _roots(np.array([1j, complex(1.0, -math.inf)]))
    # radial_apply roots its energy by the same pass.
    with pytest.raises(ValueError, match=re.escape("spectral parameter (2+0j) lies on the")):
        radial_apply(_psi(2, 1, np.linspace(0.05, 8.0, 20)), 2.0, [1.0])


def _psi(dim, order, grid):
    ch = ChannelIndex2(order) if dim == 2 else ChannelIndex3(order, 0)
    return RadialChannelFunction(ch, grid, grid * np.exp(-(grid**2)) * (1.0 + 0.5j))


def quad_oracle(dim, order, z, r_out, psi, epsabs=0.0):
    """int g(z; r, t) f(t) t^(dim-1) dt by adaptive quadrature of the
    elementwise kernel times the interpolant, one knot interval at a time,
    split at every output radius inside it."""
    f = psi.interpolant()

    def integrand(t):
        return elementwise_kernel(dim, order, z, r_out, t) * f(t) * t ** (dim - 1)

    out = np.zeros(len(r_out), dtype=complex)
    for a, b in zip(psi.grid[:-1], psi.grid[1:]):
        cuts = [r for r in r_out if a < r < b]
        val, _ = integrate.quad_vec(integrand, a, b, epsabs=epsabs, epsrel=1e-14,
                                    points=cuts or None)
        out += val
    return out


@pytest.mark.parametrize("dim,order", [(2, 0), (2, 1), (3, 1), (3, 2), (3, 6)])
def test_radial_apply_matches_quad_oracle(dim, order):
    grid = np.linspace(0.05, 8.0, 120)
    psi = _psi(dim, order, grid)
    r_out = np.array([grid[0], 0.3, 1.0, 1.1, grid[40], 2.7, 8.0, 9.5]
                     + ([0.0] if dim == 2 else []))
    for z in (0.4 + 1.0j, -3.0 + 0.2j, 0.4 - 1.0j, 400.0 + 2.0j):
        got = radial_apply(psi, z, r_out)
        want = quad_oracle(dim, order, z, r_out, psi)
        assert np.sum(np.abs(got - want)) <= 1e-12 * np.sum(np.abs(want)), z


@pytest.mark.parametrize("dim,order", [(2, 0), (2, 3), (3, 0), (3, 1), (3, 3)])
def test_radial_apply_grid_from_origin_matches_quad_oracle(dim, order):
    """A grid may start at r = 0, where the H integrand is singular.  The
    oracle's 3D kernel divides by sqrt(r_min), so the 3D value at r_out = 0
    is checked against the closed-form origin_limit instead."""
    psi = _psi(dim, order, np.linspace(0.0, 8.0, 120))
    r_out = np.array([0.0, 1e-4, 0.01, 0.3, 8.0])
    at0 = int(dim == 3)  # the first output the oracle computes
    for z in (0.4 + 1.0j, 0.4 - 1.0j, 400.0 + 2.0j):
        got = radial_apply(psi, z, r_out)
        want = quad_oracle(dim, order, z, r_out[at0:], psi)
        assert np.sum(np.abs(got[at0:] - want)) <= 1e-12 * np.sum(np.abs(want)), z
        if at0:
            assert abs(got[0] - _origin_apply(psi, z)) <= 1e-12 * np.sum(np.abs(want)), z
            assert order == 0 or got[0] == 0.0


# Grids of the sized-rule oracle: from 0, from 0.05, and 1,000 Gauss points.
SIZED_GRIDS = {
    "from0": np.linspace(0.0, 8.0, 120),
    "from005": np.linspace(0.05, 8.0, 120),
    "gauss1000": 4.0 * (np.polynomial.legendre.leggauss(1000)[0] + 1.0),
}


@pytest.mark.parametrize("grid", SIZED_GRIDS.values(), ids=SIZED_GRIDS.keys())
@pytest.mark.parametrize("dim", [2, 3])
def test_sized_rules_match_the_fixed_8_point_rule(monkeypatch, dim, grid):
    """radial_apply with its rules sized per interval agrees with one
    8-point rule on every interval (oracles.fixed_rule_integrals) to 2e-15
    of the L1 norm, at knots, inside intervals and beyond the grid."""
    plan = rotkrein._radial._plan
    r_out = np.concatenate([grid, [0.3, 1.0, 1.1, 2.7, 9.5]])
    for order in range(7):
        psi = _psi(dim, order, grid)
        for z in (0.4 + 1.0j, 0.4 - 1.0j, -3.0 + 0.2j, 400.0 + 2.0j):
            plan.cache_clear()
            sized = radial_apply(psi, z, r_out)
            with monkeypatch.context() as m:
                m.setattr(rotkrein._radial, "_integrals", fixed_rule_integrals)
                plan.cache_clear()
                fixed = radial_apply(psi, z, r_out)
            plan.cache_clear()
            assert np.sum(np.abs(sized - fixed)) <= 2e-15 * np.sum(np.abs(fixed)), (order, z)


@pytest.mark.parametrize("dim", [2, 3])
def test_radial_apply_value_does_not_depend_on_other_radii(dim):
    grid = np.linspace(0.05, 8.0, 120)
    psi = _psi(dim, 1, grid)
    alone = radial_apply(psi, 0.4 + 1.0j, grid)
    extra = radial_apply(psi, 0.4 + 1.0j, np.concatenate([[0.77, 9.0], grid, [3.3]]))
    assert alone.tobytes() == extra[2:-1].tobytes()


def origin_limit(l, z, rp):
    """The 3D kernel at r = 0 < r' in closed form: exp(i w r')/r' for l = 0,
    else 0; conj of the value at conj z where Im z < 0."""
    if z.imag < 0.0:
        return np.conj(origin_limit(l, z.conjugate(), rp))
    rp = np.asarray(rp, dtype=float)
    return np.exp(1j * sqrt_upper(z) * rp) / rp if l == 0 else np.zeros(rp.shape, complex)


@pytest.mark.parametrize("z", [0.4 + 1.0j, 0.4 - 1.0j, -30.0 + 0.5j])
@pytest.mark.parametrize("l", range(5))
def test_3d_kernel_at_the_origin_is_its_limit(l, z):
    """J(w r)/sqrt(r) is 0/0 at r = 0: exp(i w r')/r' for l = 0, else 0."""
    rp = np.array([0.3, 0.5, 2.0])
    want = origin_limit(l, z, rp)
    for got in (separable_kernels(3, l, z, 0.0, rp), separable_kernels(3, l, z, rp, 0.0)):
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-300)
    # Entries away from the origin keep their bits.
    r = np.array([0.0, 0.2, 0.7])
    full = separable_kernels(3, l, z, r[:, None], rp[None, :])
    assert full[1:].tobytes() == separable_kernels(3, l, z, r[1:, None], rp[None, :]).tobytes()
    with pytest.raises(SingularArgumentError, match="singular at w r = 0"):
        separable_kernels(3, l, z, 0.0, 0.0)


def _origin_apply(psi, z):
    """The 3D radial_apply of psi at r = 0 from origin_limit: 20-point Gauss
    per knot interval, exact to roundoff for the cubic pieces times the
    smooth kernel."""
    xg, wg = np.polynomial.legendre.leggauss(20)
    half = 0.5 * np.diff(psi.grid)[:, None]
    t = (0.5 * (psi.grid[:-1] + psi.grid[1:]))[:, None] + half * xg
    return np.sum(half * wg * origin_limit(psi.order, z, t) * psi.interpolant()(t) * t**2)


@pytest.mark.parametrize("z", [0.4 + 1.0j, 0.4 - 1.0j])
@pytest.mark.parametrize("order", [0, 2])
def test_3d_radial_apply_at_the_origin(order, z):
    psi = _psi(3, order, np.linspace(0.05, 8.0, 120))
    want = _origin_apply(psi, z)
    got = radial_apply(psi, z, [0.0, 0.3])
    assert abs(got[0] - want) <= 1e-12 * max(abs(want), abs(got[1]))
    assert got[1].tobytes() == radial_apply(psi, z, [0.3]).tobytes()


def test_radial_apply_overflow_contract():
    grid = np.linspace(0.05, 8.0, 120)
    psi = _psi(2, 1, grid)
    z = -1e4 + 1.0j
    # J is needed only below r = 0.7 and H only above it: no overflow.
    got = radial_apply(psi, z, [0.7])
    # The integrand underflows above r = 7: a relative tolerance alone never ends.
    want = quad_oracle(2, 1, z, np.array([0.7]), psi, epsabs=1e-19)
    assert np.isfinite(got).all()
    assert abs(got[0] - want[0]) <= 1e-12 * abs(want[0])
    with pytest.raises(OverflowError, match=r"2D radial resolvent of order 1 at z=\(-10000\+1j\)"):
        radial_apply(psi, z, grid)


def test_radial_apply_rejects_breakpoints_over_the_budget(monkeypatch):
    """The uniform and graded edges are counted before any exists, and a
    count over the budget raises ValueError naming both.  The budget is cut
    to 64 here, so the rejected plan would be small without the check."""
    monkeypatch.setattr(rotkrein._radial, "_MAX_EDGES", 64)
    psi = _psi(2, 1, np.linspace(0.05, 8.0, 40))
    assert np.isfinite(radial_apply(psi, 0.4 + 1.0j, [1.0])).all()
    # |sqrt z| = 100: 265 uniform edges on (0.05, 8) and 22.7 graded ones.
    with pytest.raises(ValueError, match=r"needs 287\.744 breakpoints on \[0\.05, 8\] at "
                                         r"\|sqrt z\| = 100, over the budget of 64$"):
        radial_apply(psi, 1e4 + 7e-3j, [1.0])
    # A second knot whose graded start underflows to 0 needs infinitely many.
    monkeypatch.undo()
    tiny = RadialChannelFunction(ChannelIndex2(1), [0.0, 5e-324, 1.0, 2.0], np.ones(4))
    with pytest.raises(ValueError, match=r"needs inf breakpoints .* budget of 131072$"):
        radial_apply(tiny, 0.4 + 1.0j, [1.0])


def test_radial_apply_bessel_evaluations_are_linear(monkeypatch, recurrence_arguments):
    """Per output point, a bounded number of Bessel arguments (no timing),
    the plan included: jv and hankel1 elements in 2D, recurrence arguments
    in 3D.  On a 1,000-point Gauss grid the plan takes J and H at 4,659
    nodes each (957 of its 1,061 intervals take 4 points, the rest 8) and
    at the 1,000 knots: 11,318 in all, 11.3 per point (19.0 with 8 points
    on every interval)."""
    counter = CountingSpecial()
    monkeypatch.setattr(rotkrein._radial, "sp", counter)
    xg, _ = np.polynomial.legendre.leggauss(1000)
    grid = 4.0 * (xg + 1.0)
    for dim in (2, 3):
        counter.elements, recurrence_arguments[:] = 0, [0, 0]
        rotkrein._radial._plan.cache_clear()
        radial_apply(_psi(dim, 1, grid), 0.4 + 1.0j, grid)
        assert 0 < counter.elements + sum(recurrence_arguments) < 12 * len(grid), dim


def natural_spline(grid, values, t):
    """scipy's natural cubic spline, NaN (outside the grid) as 0."""
    v = CubicSpline(grid, values, bc_type="natural", extrapolate=False)(t)
    return np.where(np.isnan(v), 0.0 + 0.0j, v)


@st.composite
def spline_case(draw):
    """A strictly increasing grid of 4-2,000 knots with spacings between
    1e-6 and 1e3, complex values with exact zeros of both signs in either
    part, and points inside, at and next to every knot, outside and NaN."""
    n = draw(st.integers(4, 2000))
    # + 0.0: numpy rejects the bounds (0.0, -0.0) as decreasing.
    lo, hi = (e + 0.0 for e in sorted(draw(st.lists(st.floats(-6.0, 3.0), min_size=2,
                                                     max_size=2))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    start = draw(st.sampled_from([0.0, 1e-3, 0.7, 50.0]))
    grid = start + np.concatenate([[0.0], np.cumsum(10.0 ** rng.uniform(lo, hi, n - 1))])
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    parts = scale * rng.standard_normal((2, n))
    signed_zeros = np.where(rng.random((2, n)) < 0.5, -0.0, 0.0)
    parts = np.where(rng.random((2, n)) < draw(st.sampled_from([0.0, 0.2, 1.0])),
                     signed_zeros, parts)
    values = np.empty(n, dtype=complex)
    values.real, values.imag = parts  # keeps every -0.0
    span = grid[-1] - grid[0]
    t = np.concatenate([rng.uniform(grid[0], grid[-1], 3 * n), grid,
                        np.nextafter(grid, -np.inf), np.nextafter(grid, np.inf),
                        [grid[0] - 0.5 * span, grid[-1] + 1e-3 * span, -0.0, np.nan]])
    return grid, values, rng.permutation(t)


@settings(max_examples=40, deadline=None)
@given(spline_case())
@example((np.array([0.0, 0.5, 1.5, 2.0]), np.array([0.0, -0.0, complex(-0.0, -0.0), 1j]),
          np.array([0.0, 0.25, 1.0, 2.0, 3.0, np.nan])))
def test_spline_is_the_bits_of_natural_cubic_spline(case):
    """spline_interpolant is CubicSpline(bc_type="natural", extrapolate=False)
    with NaN as 0, bit for bit, on any shape of points."""
    grid, values, t = case
    got = spline_interpolant(grid, values)(t)
    want = natural_spline(grid, values, t)
    differ = got.view(np.uint64) != want.view(np.uint64)
    assert not differ.any(), f"{differ.sum()} of {differ.size} values differ"
    cut = len(t) // 2 * 2
    assert spline_interpolant(grid, values)(t[:cut].reshape(2, -1)).tobytes() == \
        got[:cut].tobytes()


def test_spline_on_given_intervals_is_the_searched_bits():
    """Handed the knot interval of each point, as radial_apply's plan hands
    it for its Gauss nodes, the spline skips its search and gives the bits
    of the search's interval, knots and the grid's end included."""
    rng = np.random.default_rng(3)
    grid = 4.0 * (np.polynomial.legendre.leggauss(200)[0] + 1.0)
    f = spline_interpolant(grid, rng.standard_normal(200) + 1j * rng.standard_normal(200))
    t = np.concatenate([rng.uniform(grid[0], grid[-1], 2000), grid])
    k = np.minimum(np.searchsorted(grid, t, side="right") - 1, len(grid) - 2)
    assert f(t, k).tobytes() == f(t).tobytes()


def test_spline_input_errors_and_linear_branch():
    """CubicSpline's input errors stay ValueErrors, and so do coefficients
    that overflow; below 4 knots the interpolant is linear, zero outside
    the grid."""
    values = np.arange(5.0) + 1j
    with pytest.raises(ValueError, match="strictly increasing"):
        spline_interpolant([0.0, 1.0, 1.0, 2.0, 3.0], values)
    with pytest.raises(ValueError, match="strictly increasing"):
        spline_interpolant([0.0, 2.0, 1.0, 3.0, 4.0], values)
    for grid, vals in (([0.0, 1.0, np.inf, 2.0, 3.0], values),
                       (np.arange(5.0), [0.0, 1.0, np.nan, 1.0, 0.0]),
                       (np.arange(5.0), [0.0, 1.0, complex(0.0, np.inf), 1.0, 0.0])):
        with pytest.raises(ValueError, match="must be finite"):
            spline_interpolant(grid, vals)
    # Knots too close for their values: CubicSpline raises where a knot
    # slope overflows and gives NaN where only a coefficient does.
    with pytest.raises(ValueError, match="coefficients overflow"):
        spline_interpolant([0.0, 5e-324, 1.0, 2.0, 3.0], np.ones(5))
    grid, vals = [0.0, 1e-150, 1.0, 2.0, 3.0], [0.0, 1.0, -1.0, 0.0, 0.0]
    with np.errstate(over="ignore", invalid="ignore"):
        spl = CubicSpline(grid, np.array(vals, dtype=complex), bc_type="natural")
        assert np.isnan(spl(5e-151))
    with pytest.raises(ValueError, match="coefficients overflow"):
        spline_interpolant(grid, vals)
    f = spline_interpolant([0.0, 1.0, 3.0], [1.0, 2j, 3.0])
    got = f(np.array([-1.0, 0.0, 0.5, 1.0, 2.0, 3.0, 3.5]))
    assert got.tolist() == [0.0, 1.0, 0.5 + 1j, 2j, 1.5 + 1j, 3.0, 0.0]


@pytest.mark.parametrize("n", [1, 8, 12, 60, 200])
def test_gauss_legendre_is_leggauss_computed_once(n):
    x, w = gauss_legendre(n)
    want = np.polynomial.legendre.leggauss(n)
    assert (x.tobytes(), w.tobytes()) == (want[0].tobytes(), want[1].tobytes())
    assert gauss_legendre(n)[0] is x
    for a in (x, w):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0


# The memo of radial_apply plans: each case is (dim, z), order 1, with
# output radii inside intervals, on knots and beyond the grid.
MEMO_CASES = [(dim, z) for dim in (2, 3) for z in (0.4 + 1.0j, 0.4 - 1.0j)]
MEMO_GRID = np.linspace(0.05, 8.0, 120)
MEMO_CUTS = [0.77, 3.3]
MEMO_RADII = np.concatenate([MEMO_GRID, MEMO_CUTS, [9.0]])


def _memo_outputs() -> list:
    return [radial_apply(_psi(dim, 1, MEMO_GRID), z, MEMO_RADII) for dim, z in MEMO_CASES]


def _digests(outputs) -> list:
    return [hashlib.sha256(out.tobytes()).hexdigest() for out in outputs]


def test_plan_memo_results_are_the_same_bits():
    """A repeated call (which meets its plan), a call after clearing the
    memo and a fresh process give the same bits, in 2D and 3D and in both
    half-planes."""
    plan = rotkrein._radial._plan
    plan.cache_clear()
    first = _digests(_memo_outputs())
    again = _digests(_memo_outputs())
    assert plan.cache_info().hits == len(MEMO_CASES)
    plan.cache_clear()
    cleared = _digests(_memo_outputs())
    here = Path(__file__).resolve().parent
    path = os.pathsep.join([str(here.parent / "src"), str(here)])
    code = "import test_radial as t; print(' '.join(t._digests(t._memo_outputs())))"
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=300, check=True)
    assert first == again == cleared == done.stdout.split()


@pytest.mark.parametrize("dim", [2, 3])
def test_plan_memo_follows_the_content_of_psi(dim):
    """Values changed in place, or a new psi on the same grid, give the
    results of a memo that never saw the old psi."""
    plan = rotkrein._radial._plan
    z = 0.4 + 1.0j
    psi = _psi(dim, 1, MEMO_GRID)
    old = radial_apply(psi, z, MEMO_RADII)
    psi.values[:] = np.cos(MEMO_GRID) * np.exp(-MEMO_GRID)
    changed = radial_apply(psi, z, MEMO_RADII)
    other = RadialChannelFunction(psi.channel, MEMO_GRID, np.exp(-(MEMO_GRID - 2.0) ** 2))
    new = radial_apply(other, z, MEMO_RADII)
    assert changed.tobytes() != old.tobytes()
    for f, got in ((psi, changed), (other, new)):
        plan.cache_clear()
        assert got.tobytes() == radial_apply(f, z, MEMO_RADII).tobytes()


@pytest.mark.parametrize("dim,z", MEMO_CASES)
def test_a_narrow_and_a_wide_call_share_one_plan(dim, z):
    """A call at r = 0.7 alone and a call over the whole grid share one
    plan in either order, and the one that meets it gives the bits of the
    same call made first, without the memo."""
    plan = rotkrein._radial._plan
    psi = _psi(dim, 1, MEMO_GRID)
    runs = []
    for radii in ([0.7], MEMO_RADII), (MEMO_RADII, [0.7]):
        plan.cache_clear()
        runs.append([radial_apply(psi, z, r).tobytes() for r in radii])
        assert (plan.cache_info().misses, plan.cache_info().hits) == (1, 1)
    (narrow_first, wide_met), (wide_first, narrow_met) = runs
    assert (wide_met, narrow_met) == (wide_first, narrow_first)


@pytest.mark.parametrize("dim", [2, 3])
def test_krein_circle_and_averaged_share_one_plan(dim):
    """The three resolvents of one psi at one z: the first builds the plan,
    the others meet it, and each result equals the call run alone."""
    plan = rotkrein._radial._plan
    z, y0 = 0.4 + 1.0j, 0.9
    psi = make_psi(dim, 1 if dim == 2 else (1, 1))
    t = Truncation(m_max=8, l_max=8 if dim == 3 else None)
    calls = [
        lambda: apply_krein_resolvent(dim, psi, z, KreinParam(1.3), RotationSpec(3.0),
                                      PointSource(y0, dim), t)[0],
        lambda: apply_circle_resolvent(dim, psi, CircleParam(1.2, y0, dim), z, t),
        lambda: averaged_resolvent(dim, z, BladeParam(1.0, 2.0, dim), psi),
    ]
    plan.cache_clear()
    together = [call().values.tobytes() for call in calls]
    assert (plan.cache_info().misses, plan.cache_info().hits) == (1, 2)
    for call, got in zip(calls, together):
        plan.cache_clear()
        assert call().values.tobytes() == got


@pytest.mark.parametrize("dim,z", MEMO_CASES)
def test_outputs_at_knots_are_the_bits_of_the_running_sums(dim, z):
    """An output at a knot, read from the plan, is H(w r) L + J(w r) R at
    that knot's breakpoint, the formula of every other output radius, bit
    for bit (J below the grid's end, H above its start)."""
    psi = _psi(dim, 1, MEMO_GRID)
    got = radial_apply(psi, z, MEMO_GRID)
    _, edges, _, left, right, _ = rotkrein._radial._plan(
        dim, 1, np.complex128(z).tobytes(), MEMO_GRID.tobytes(), psi.values.tobytes())
    k = np.searchsorted(edges, MEMO_GRID)
    j, h = _factors(dim, 1, _roots(np.asarray(z)), z.imag < 0.0, MEMO_GRID,
                    MEMO_GRID < MEMO_GRID[-1], MEMO_GRID > MEMO_GRID[0])
    assert got.tobytes() == (h * left[k] + j * right[k]).tobytes()


@pytest.mark.parametrize("dim,z", MEMO_CASES)
def test_a_call_that_meets_its_plan_evaluates_only_pieces_and_outputs(
        monkeypatch, recurrence_arguments, dim, z):
    """The second call at the same (psi, z) reads the output radii that are
    knots from the plan, and evaluates J and H only at its other radii (J
    below the grid's end, H above its start) and on the Gauss nodes of the
    two pieces of each inside radius, at the counts of their own rules:
    jv and hankel1 elements in 2D, recurrence arguments in 3D.  A call at
    knots alone evaluates nothing."""
    counter = CountingSpecial()
    monkeypatch.setattr(rotkrein._radial, "sp", counter)

    def evaluated():
        return counter.elements + sum(recurrence_arguments)

    rotkrein._radial._plan.cache_clear()
    psi = _psi(dim, 1, MEMO_GRID)
    first = radial_apply(psi, z, MEMO_RADII)
    built = evaluated()
    counter.elements, recurrence_arguments[:] = 0, [0, 0]
    second = radial_apply(psi, z, MEMO_RADII)
    off = MEMO_RADII[~np.isin(MEMO_RADII, MEMO_GRID)]
    at_radii = np.sum(off < MEMO_GRID[-1]) + np.sum(off > MEMO_GRID[0])
    w = rotkrein._radial._roots(np.asarray(z))
    edges = rotkrein._radial._edges(MEMO_GRID, w)
    k = np.searchsorted(edges, MEMO_CUTS) - 1
    a, b = np.concatenate([edges[k], MEMO_CUTS]), np.concatenate([MEMO_CUTS, edges[k + 1]])
    pieces = np.sum(rotkrein._radial._rule_sizes(1, w, a, b))
    assert evaluated() == at_radii + pieces
    assert (counter.elements == 0) == (dim == 3)
    assert built > 5 * evaluated()
    assert second.tobytes() == first.tobytes()
    counter.elements, recurrence_arguments[:] = 0, [0, 0]
    assert radial_apply(psi, z, MEMO_GRID).tobytes() == first[: len(MEMO_GRID)].tobytes()
    assert evaluated() == 0


def test_2d_bessel_errors_are_typed():
    """A zero argument of H raises SingularArgumentError, and a nonfinite
    factor OverflowError naming the order, the energy and the radii."""
    with pytest.raises(SingularArgumentError, match="singular at w r = 0"):
        separable_kernels(2, [0, 1], [1j, -2.0], np.array([0.0, 0.5])[:, None],
                          np.array([0.0, 0.7]))
    with pytest.raises(OverflowError, match=r"order 1 at z=\(-10000\+1j\).*\[7\.9, 8\]"):
        separable_kernels(2, [0, 1], [1j, -1e4 + 1j], 7.9, [8.0])
    grid = np.linspace(0.05, 8.0, 120)
    with pytest.raises(OverflowError, match=r"2D radial resolvent of order 1 at z=\(-10000\+1j\)"):
        radial_apply(_psi(2, 1, grid), -1e4 + 1.0j, grid)
