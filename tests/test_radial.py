"""Separable radial kernel core and the grid resolvent application."""

import math

import numpy as np
import pytest
import scipy.special as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from rotkrein._radial import (
    g2_vec,
    g3_vec,
    radial_apply,
    separable_kernel,
    spline_interpolant,
)
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


def elementwise_apply(dim, order, z, r_out, f, rmax, n_gl=80):
    """radial_apply as a loop over output radii with the elementwise kernel."""
    xg, wg = np.polynomial.legendre.leggauss(n_gl)
    speed = abs(sqrt_upper(z))
    out = np.empty(len(r_out), dtype=complex)
    for i, r in enumerate(r_out):
        acc = 0.0 + 0.0j
        split = min(r, rmax)
        for a, b in ((0.0, split), (split, rmax)):
            if b - a <= 1e-14:
                continue
            n_seg = max(1, int((b - a) * speed / 3.0) + 1)
            edges = np.linspace(a, b, n_seg + 1)
            mid = 0.5 * (edges[:-1] + edges[1:])
            half = 0.5 * np.diff(edges)
            t = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
            w = (half[:, None] * wg[None, :]).ravel()
            acc += np.sum(
                w * elementwise_kernel(dim, order, z, r, t) * f(t) * t ** (dim - 1)
            )
        out[i] = acc
    return out


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
    got = separable_kernel(dim, order, z, r[:, None], rp[None, :])
    want = elementwise_kernel(dim, order, z, r[:, None], rp[None, :])
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    vec = g2_vec if dim == 2 else g3_vec
    assert vec(order, z, r[0], rp).tobytes() == elementwise_kernel(
        dim, order, z, r[0], rp
    ).tobytes()


@settings(max_examples=60, deadline=None)
@given(kernel_case())
def test_core_is_symmetric_in_the_radii(case):
    dim, order, z, r, rp = case
    np.testing.assert_array_equal(
        separable_kernel(dim, order, z, r[:, None], rp[None, :]),
        separable_kernel(dim, order, z, rp[:, None], r[None, :]).T,
    )


@settings(max_examples=60, deadline=None)
@given(kernel_case())
def test_core_conjugate_reflection(case):
    dim, order, z, r, rp = case
    np.testing.assert_array_equal(
        separable_kernel(dim, order, z.conjugate(), r[:, None], rp[None, :]),
        np.conj(separable_kernel(dim, order, z, r[:, None], rp[None, :])),
    )


@pytest.mark.parametrize("vec", [g2_vec, g3_vec])
def test_core_overflow_is_typed(vec):
    with pytest.raises(OverflowError, match=r"order 1 at z=\(-10000\+1j\).*\[7\.9, 8\]"):
        vec(1, -1e4 + 1j, 7.9, [8.0])


@pytest.mark.parametrize("dim,order", [(2, 1), (2, 0), (3, 1), (3, 2)])
def test_radial_apply_equals_elementwise_loop(dim, order):
    grid = np.linspace(0.05, 8.0, 120)
    f = spline_interpolant(grid, grid * np.exp(-(grid**2)) * (1.0 + 0.5j))
    r_out = np.array([0.05, 0.3, 1.0, 1.1, 2.7, 8.0, 9.5] + ([0.0] if dim == 2 else []))
    for z in (0.4 + 1.0j, -3.0 + 0.2j, 0.4 - 1.0j, 400.0 + 2.0j):
        got = radial_apply(dim, order, z, r_out, f, rmax=8.0)
        want = elementwise_apply(dim, order, z, r_out, f, rmax=8.0)
        assert got.tobytes() == want.tobytes()
