"""Separable radial kernel core and the grid resolvent application."""

import math
import types

import numpy as np
import pytest
import scipy.special as sp
from scipy import integrate
from hypothesis import given, settings
from hypothesis import strategies as st

import rotkrein._radial
from rotkrein import ChannelIndex2, ChannelIndex3, RadialChannelFunction, SingularArgumentError
from rotkrein._radial import (
    g2_vec,
    g3_vec,
    radial_apply,
    separable_kernels,
)
from rotkrein.greens import radial_kernel_2d, radial_kernel_3d
from rotkrein.specfun import sqrt_upper


def elementwise_kernel(dim, order, z, r, rp):
    """The closed formula entry by entry: J at min(r, r'), H at max(r, r')."""
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
        0.5j * math.pi * sp.jv(nu, w * rmin) * sp.hankel1(nu, w * rmax)
        / np.sqrt(rmin * rmax)
    )


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
    dim, order, z, r, rp = case
    got = separable_kernels(dim, order, z, r[:, None], rp[None, :])
    want = elementwise_kernel(dim, order, z, r[:, None], rp[None, :])
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    vec = g2_vec if dim == 2 else g3_vec
    assert vec(order, z, r[0], rp).tobytes() == elementwise_kernel(
        dim, order, z, r[0], rp
    ).tobytes()


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
    """Many orders in one call, at one energy or one energy per order: each
    slice is the one-order kernel at its energy and the elementwise formula,
    bit for bit, for matrices, vectors and scalars."""
    dim, orders, z, paired, r, rp = case
    for a, b in ((r[:, None], rp[None, :]), (r, rp[0]), (r[0], rp), (r[0], rp[0])):
        for energies in (z, paired):
            got = separable_kernels(dim, orders, energies, a, b)
            assert got.shape == (len(orders),) + np.broadcast(a, b).shape
            for g, order, zk in zip(got, orders, np.broadcast_to(energies, len(orders))):
                one = separable_kernels(dim, order, zk, a, b)
                assert g.tobytes() == one.tobytes()
                # At least 1-D: numpy's scalar arithmetic may round differently.
                want = elementwise_kernel(dim, order, zk, np.atleast_1d(a), np.atleast_1d(b))
                assert g.tobytes() == want.tobytes()


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


@pytest.mark.parametrize("order", [0, 3])
def test_radial_apply_grid_from_origin_matches_quad_oracle(order):
    """A 2D grid may start at r = 0, where the H integrand is singular."""
    psi = _psi(2, order, np.linspace(0.0, 8.0, 120))
    r_out = np.array([0.0, 1e-4, 0.01, 0.3, 8.0])
    for z in (0.4 + 1.0j, 400.0 + 2.0j):
        got = radial_apply(psi, z, r_out)
        want = quad_oracle(2, order, z, r_out, psi)
        assert np.sum(np.abs(got - want)) <= 1e-12 * np.sum(np.abs(want)), z


@pytest.mark.parametrize("dim", [2, 3])
def test_radial_apply_value_does_not_depend_on_other_radii(dim):
    grid = np.linspace(0.05, 8.0, 120)
    psi = _psi(dim, 1, grid)
    alone = radial_apply(psi, 0.4 + 1.0j, grid)
    extra = radial_apply(psi, 0.4 + 1.0j, np.concatenate([[0.77, 9.0], grid, [3.3]]))
    assert alone.tobytes() == extra[2:-1].tobytes()


@pytest.mark.parametrize("z", [0.4 + 1.0j, 0.4 - 1.0j, -30.0 + 0.5j])
@pytest.mark.parametrize("l", range(5))
def test_3d_kernel_at_the_origin_is_its_limit(l, z):
    """J(w r)/sqrt(r) is 0/0 at r = 0: exp(i w r')/r' for l = 0, else 0."""
    rp = np.array([0.3, 0.5, 2.0])
    want = [radial_kernel_3d(l, z, 0.0, x) for x in rp]
    for got in (separable_kernels(3, l, z, 0.0, rp), separable_kernels(3, l, z, rp, 0.0)):
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-300)
    # Entries away from the origin keep their bits.
    r = np.array([0.0, 0.2, 0.7])
    full = separable_kernels(3, l, z, r[:, None], rp[None, :])
    assert full[1:].tobytes() == separable_kernels(3, l, z, r[1:, None], rp[None, :]).tobytes()
    with pytest.raises(SingularArgumentError, match="singular at w r = 0"):
        separable_kernels(3, l, z, 0.0, 0.0)


@pytest.mark.parametrize("z", [0.4 + 1.0j, 0.4 - 1.0j])
@pytest.mark.parametrize("order", [0, 2])
def test_3d_radial_apply_at_the_origin(order, z):
    grid = np.linspace(0.05, 8.0, 120)
    psi = _psi(3, order, grid)
    # 20-point Gauss per knot interval: exact to roundoff for the cubic pieces
    # times the smooth kernel.
    xg, wg = np.polynomial.legendre.leggauss(20)
    half = 0.5 * np.diff(grid)[:, None]
    t = (0.5 * (grid[:-1] + grid[1:]))[:, None] + half * xg
    kern = np.array([radial_kernel_3d(order, z, 0.0, x) for x in t.ravel()]).reshape(t.shape)
    want = np.sum(half * wg * kern * psi.interpolant()(t) * t**2)
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


def test_radial_apply_bessel_evaluations_are_linear(monkeypatch):
    """Per output point, a bounded number of Bessel arguments (no timing)."""
    count = [0]

    def counted(fn):
        def wrapper(nu, x):
            count[0] += np.size(x)
            return fn(nu, x)
        return wrapper

    monkeypatch.setattr(
        rotkrein._radial, "sp",
        types.SimpleNamespace(jv=counted(sp.jv), hankel1=counted(sp.hankel1)),
    )
    xg, _ = np.polynomial.legendre.leggauss(1000)
    grid = 4.0 * (xg + 1.0)
    psi = _psi(2, 1, grid)
    radial_apply(psi, 0.4 + 1.0j, grid)
    assert 0 < count[0] < 50 * len(grid)
