import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import free_green_2d, free_green_3d, free_green_norm_sq_3d
from rotkrein import (
    Point2,
    Point3,
    PointSource,
    RotationSpec,
    Truncation,
    TruncationError,
    radial_kernel_2d,
    remainder_norm,
    rot_green,
    rot_inner,
    rot_norm_sq,
    sqrt_upper,
)
from rotkrein._radial import separable_kernels
from rotkrein.rotframe import channel_diag

T2 = Truncation(m_max=32)
T3 = Truncation(m_max=32, l_max=32)


def test_parameter_validation():
    with pytest.raises(ValueError):
        RotationSpec(-1.0)
    with pytest.raises(ValueError):
        PointSource(0.0, 3)
    with pytest.raises(ValueError):
        Truncation(m_max=8, l_max=4)
    with pytest.raises(ValueError):
        Truncation(m_max=-1)
    # non-integer caps are rejected up front, not in a range() traceback
    with pytest.raises(ValueError, match="m_max must be an integer"):
        Truncation(2.5)
    with pytest.raises(ValueError, match="l_max must be an integer"):
        Truncation(3, l_max=4.5)
    assert Truncation(np.int64(3), l_max=np.int64(4)).l_max == 4
    # An order beyond the degree cap has no degrees: an error, not an empty sum 0.
    with pytest.raises(ValueError, match="l_max=3 below channel order"):
        channel_diag(3, 5, 0.4 + 1j, PointSource(0.7, 3), Truncation(2, l_max=3))


def test_static_limit_matches_free_2d():
    z = -0.8 + 1.1j
    x, xp = Point2(1.0, 0.7), Point2(0.5, 2.3)
    v = rot_green(2, z, RotationSpec(0.0), x, xp, T2)
    assert v == pytest.approx(free_green_2d(z, x, xp), rel=1e-8)


def test_static_limit_matches_free_3d():
    z = -0.8 + 1.1j
    x, xp = Point3(1.0, 0.9, 0.7), Point3(0.5, 1.8, 2.3)
    v = rot_green(3, z, RotationSpec(0.0), x, xp, Truncation(m_max=48, l_max=48))
    assert v == pytest.approx(free_green_3d(z, x, xp), rel=1e-7)


def test_rot_green_channel_sum_oracle_2d():
    # independent shell-by-shell reconstruction
    z = 0.3 + 0.9j
    om = 3.0
    x, xp = Point2(1.2, 0.5), Point2(0.6, 1.9)
    ref = sum(
        radial_kernel_2d(n, z + n * om, x.r, xp.r)
        * np.exp(1j * n * (x.theta - xp.theta))
        / (2 * math.pi)
        for n in range(-32, 33)
    )
    v = rot_green(2, z, RotationSpec(om), x, xp, T2)
    assert v == pytest.approx(ref, rel=1e-12)


def test_rot_green_coincident_points_rejected():
    x = Point2(1.0, 0.5)
    with pytest.raises(TruncationError):
        rot_green(2, 1j, RotationSpec(2.0), x, x, T2)


def test_rot_green_cutoff_converges_to_window():
    # the sharp cutoff |n| <= cap is the window m_max = cap with no tail policy
    z = 0.3 + 0.9j
    om = 4.0
    x, xp = Point2(1.2, 0.5), Point2(0.6, 1.9)
    full = rot_green(2, z, RotationSpec(om), x, xp, T2)
    errs = []
    for cap in (2, 4, 8, 16):
        v = rot_green(2, z, RotationSpec(om), x, xp, Truncation(cap, tail_tol=math.inf))
        errs.append(abs(v - full))
    assert all(a > b for a, b in zip(errs, errs[1:]))
    assert errs[-1] < 1e-4 * abs(full)


def test_channel_diag_matches_kernel():
    src = PointSource(0.9, 2)
    v = channel_diag(2, 3, 0.2 + 1.5j, src, T2)
    assert v == pytest.approx(
        radial_kernel_2d(3, 0.2 + 1.5j, 0.9, 0.9) / (2 * math.pi), rel=1e-13
    )


def test_norm_static_limit_3d():
    z = 0.7 + 1.2j
    src = PointSource(1.0, 3)
    v = rot_norm_sq(3, z, RotationSpec(0.0), src, Truncation(m_max=48, l_max=48))
    assert v == pytest.approx(free_green_norm_sq_3d(z), rel=1e-5)


def test_norm_positive_and_finite_2d():
    v = rot_norm_sq(2, 0.4 + 1.0j, RotationSpec(5.0), PointSource(1.0, 2), T2)
    assert v > 0.0
    assert math.isfinite(v)


def test_inner_is_symmetric_bilinear():
    # difference-quotient product is symmetric in its two parameters
    src = PointSource(0.8, 2)
    rot = RotationSpec(2.0)
    z, zp = 0.5 + 0.8j, -0.3 + 1.4j
    a = rot_inner(2, z, zp, rot, src, T2)
    b = rot_inner(2, zp, z, rot, src, T2)
    assert a == pytest.approx(b, rel=1e-12)
    with pytest.raises(ValueError):
        rot_inner(2, z, z, rot, src, T2)


def test_inner_at_conjugate_pair_approaches_norm():
    # the norm completes the degree tail; the windowed inner sits just below
    src = PointSource(0.8, 3)
    rot = RotationSpec(1.5)
    z = 0.5 + 0.8j
    n = rot_norm_sq(3, z, rot, src, T3)
    a32 = rot_inner(3, z.conjugate(), z, rot, src, T3)
    a48 = rot_inner(3, z.conjugate(), z, rot, src, Truncation(m_max=48, l_max=48))
    assert a32.imag == pytest.approx(0.0, abs=1e-12 * abs(a32))
    assert 0.0 < a32.real < a48.real < n
    assert a48.real == pytest.approx(n, rel=1e-2)


def test_remainder_norm_decreases_with_omega():
    src = PointSource(1.0, 2)
    z = 0.4 + 1.0j
    vals = [
        remainder_norm(2, 1, z, RotationSpec(om), src, Truncation(m_max=8))
        for om in (10.0, 40.0, 160.0)
    ]
    assert all(v > 0 for v in vals)
    assert vals[0] > vals[1] > vals[2]


def test_remainder_requires_upper_half_plane():
    with pytest.raises(ValueError):
        remainder_norm(2, 1, -1.0, RotationSpec(2.0), PointSource(1.0, 2), T2)


@pytest.mark.parametrize("m0", [3, -3, 1.5, 1.0])
def test_remainder_central_channel_must_be_in_the_window(m0):
    # m0 outside the window, or not an integer, removes no channel at all
    src, t = PointSource(0.7, 3), Truncation(2, l_max=4)
    with pytest.raises(ValueError, match="m0"):
        remainder_norm(3, m0, 0.4 + 1j, RotationSpec(5.0), src, t)
    assert remainder_norm(3, -2, 0.4 + 1j, RotationSpec(5.0), src, t) > 0.0


def _panel_rule(edges):
    """24-point Gauss nodes and weights on each panel between the edges."""
    xg, wg = np.polynomial.legendre.leggauss(24)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[1:] + edges[:-1])
    return (mid[:, None] + half[:, None] * xg).ravel(), (half[:, None] * wg).ravel()


def _inner_oracle_2d(z, zp, omega, y0, m_max):
    """sum_n of int g_n(z + n w; r, y0) g_n(zp + n w; r, y0) r dr / (2 pi) by
    quadrature: panels no wider than 0.5, split at y0, out to where the
    slower of the two kernels has decayed by exp(-40)."""
    acc = 0.0 + 0.0j
    for n in range(-m_max, m_max + 1):
        zz, zzp = z + n * omega, zp + n * omega
        r_end = y0 + 40.0 / min(sqrt_upper(zz).imag, sqrt_upper(zzp).imag)
        edges = np.concatenate([
            np.linspace(0.0, y0, math.ceil(y0 / 0.5) + 1),
            np.linspace(y0, r_end, math.ceil((r_end - y0) / 0.5) + 1)[1:],
        ])
        r, w = _panel_rule(edges)
        g = separable_kernels(2, n, zz, r, y0) * separable_kernels(2, n, zzp, r, y0)
        acc += np.sum(w * g * r)
    return acc / (2.0 * math.pi)


spectral = st.builds(
    complex, st.floats(-3.0, 3.0), st.floats(0.3, 2.0) | st.floats(-2.0, -0.3)
)


@settings(max_examples=30, deadline=None)
@given(
    z=spectral,
    zp=spectral,
    omega=st.floats(0.0, 10.0),
    y0=st.floats(0.3, 2.0),
    m_max=st.integers(0, 5),
)
def test_rot_inner_identities(z, zp, omega, y0, m_max):
    assume(abs(z - zp) > 0.1)
    rot = RotationSpec(omega)
    t2, t3 = Truncation(m_max), Truncation(m_max, l_max=m_max + 3)
    src2, src3 = PointSource(y0, 2), PointSource(y0, 3)
    # reflection: conjugate parameters give the conjugate inner product
    for dim, src, t in ((2, src2, t2), (3, src3, t3)):
        assert rot_inner(dim, z.conjugate(), zp.conjugate(), rot, src, t) == (
            rot_inner(dim, z, zp, rot, src, t).conjugate()
        )
    # the conjugate pair is the squared norm
    norm = rot_norm_sq(2, z, rot, src2, t2)
    assert abs(rot_inner(2, z, z.conjugate(), rot, src2, t2) - norm) <= 1e-12 * norm
    # the first-resolvent identity against the radial integral it stands for
    got = rot_inner(2, z, zp, rot, src2, t2)
    want = _inner_oracle_2d(z, zp, omega, y0, m_max)
    assert abs(got - want) <= 1e-10 * abs(want)
