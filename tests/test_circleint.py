"""Circle-interaction coefficients, matched coupling, and resolvent action."""

import math

import numpy as np
import pytest

from helpers import make_psi
from oracles import quadrature_kernel_2d, quadrature_kernel_3d
from rotkrein.circleint import (
    CircleParam,
    apply_circle_resolvent,
    gamma_coeff_2d,
    gamma_coeff_3d,
    gamma_from_alpha,
)
from rotkrein.greens import radial_kernel_2d, radial_kernel_3d
from rotkrein.pointint import KreinParam, lambda_at
from rotkrein.rotframe import PointSource, RotationSpec, Truncation, channel_diag
from rotkrein.specfun import ChannelIndex2, ChannelIndex3, equatorial_weight

# mpmath oracle (dps=30), frozen: 1 - I0(1)*K0(1)
ONE_MINUS_I0K0 = 0.46695532504373138


def test_unit_circle_coefficient_near_minus_one():
    cp = CircleParam(1.0, 1.0, 2)
    val = gamma_coeff_2d(0, cp, -1.0 + 1e-7j)
    assert val.real == pytest.approx(ONE_MINUS_I0K0, rel=1e-5)
    assert abs(val.imag) < 1e-5


def test_coefficients_match_channel_diag_convention():
    rng = np.random.default_rng(21)
    src = PointSource(0.9, 2)
    t = Truncation(4)
    for n in (-2, 0, 3):
        z = complex(rng.uniform(-2, 2), rng.uniform(0.3, 1.5))
        cp = CircleParam(0.7, src.y0, 2)
        got = gamma_coeff_2d(n, cp, z)
        want = 1.0 / cp.gamma - 2.0 * math.pi * channel_diag(2, n, z, src, t)
        assert got == pytest.approx(want, rel=1e-12)
    src3 = PointSource(1.1, 3)
    t3 = Truncation(4, l_max=12)
    for m in (-1, 0, 2):
        z = complex(rng.uniform(-2, 2), rng.uniform(0.3, 1.5))
        cp = CircleParam(1.3, src3.y0, 3)
        got = gamma_coeff_3d(m, cp, z, t3.l_max)
        want = cp.gamma - 2.0 * math.pi * channel_diag(3, m, z, src3, t3)
        assert got == pytest.approx(want, rel=1e-12)


def test_coefficient_validation():
    cp2 = CircleParam(1.0, 1.0, 2)
    cp3 = CircleParam(1.0, 1.0, 3)
    with pytest.raises(ValueError):
        gamma_coeff_2d(0, cp3, 1j)
    with pytest.raises(ValueError):
        gamma_coeff_3d(0, cp2, 1j, 8)
    with pytest.raises(ValueError):
        gamma_coeff_2d(0, CircleParam(0.0, 1.0, 2), 1j)
    with pytest.raises(ValueError):
        gamma_coeff_3d(3, cp3, 1j, 2)
    with pytest.raises(ValueError):
        gamma_coeff_2d(0, cp2, 1.5 + 0.0j)
    with pytest.raises(ValueError):
        CircleParam(1.0, -0.5, 2)
    with pytest.raises(ValueError):
        CircleParam(math.nan, 1.0, 2)
    with pytest.raises(ValueError):
        CircleParam(1.0, 1.0, 4)


def _matched_coupling_by_quadrature(dim, alpha, y0):
    """gamma_from_alpha's reduction (default l_max = 64) with the k-quadrature
    radial kernels of tests/oracles.py."""
    th = math.tan(0.5 * alpha)
    if dim == 2:
        g = quadrature_kernel_2d(0, 1j, y0, y0)
        return 1.0 / (th * g.imag + g.real)
    acc = 0.0
    for l in range(0, 65, 2):
        g = quadrature_kernel_3d(l, 1j, y0, y0)
        acc += equatorial_weight(l, 0) * (th * g.imag + g.real)
    return 2.0 * math.pi * acc


def test_matched_coupling_is_real_and_mode_independent():
    for dim in (2, 3):
        for alpha in (0.4, 1.2, 2.2, 4.0, 5.5):
            for y0 in (0.5, 1.0, 1.9):
                gam = gamma_from_alpha(dim, alpha, y0)
                assert isinstance(gam, float)
                assert math.isfinite(gam)
                gq = _matched_coupling_by_quadrature(dim, alpha, y0)
                assert gq == pytest.approx(gam, rel=1e-6)


def test_matched_coupling_pins_reference_relation():
    # 2D: 1/gamma = tan(alpha/2) Im g0 + Re g0 at parameter i on the circle
    alpha, y0 = 2.2, 0.8
    gam = gamma_from_alpha(2, alpha, y0)
    g = radial_kernel_2d(0, 1j, y0, y0)
    assert 1.0 / gam == pytest.approx(
        math.tan(0.5 * alpha) * g.imag + g.real, rel=1e-12
    )
    # 3D: gamma = 2 pi sum_l eqw(l,0) (tan(alpha/2) Im g_l + Re g_l)
    gam3 = gamma_from_alpha(3, alpha, y0, l_max=24)
    acc = 0.0
    for l in range(0, 25, 2):
        g = radial_kernel_3d(l, 1j, y0, y0)
        acc += equatorial_weight(l, 0) * (math.tan(0.5 * alpha) * g.imag + g.real)
    assert gam3 == pytest.approx(2.0 * math.pi * acc, rel=1e-12)


def test_matched_coupling_rejects_free_and_out_of_range_alpha():
    with pytest.raises(ValueError):
        gamma_from_alpha(2, math.pi, 1.0)
    with pytest.raises(ValueError):
        gamma_from_alpha(3, math.pi + 5e-13, 1.0)
    with pytest.raises(ValueError):
        gamma_from_alpha(2, -0.1, 1.0)
    with pytest.raises(ValueError):
        gamma_from_alpha(2, 2.0 * math.pi, 1.0)
    with pytest.raises(ValueError):
        gamma_from_alpha(4, 1.0, 1.0)


def test_matched_coupling_rejects_negative_degree_cap():
    # an empty degree sum would silently give gamma = 0
    with pytest.raises(ValueError, match="l_max"):
        gamma_from_alpha(3, 1.0, 0.7, l_max=-2)
    assert gamma_from_alpha(3, 1.0, 0.7, l_max=0) != 0.0


def test_degrees_and_orders_must_be_integers():
    cp2, cp3 = CircleParam(1.0, 0.7, 2), CircleParam(1.0, 0.7, 3)
    with pytest.raises(ValueError, match="l_max must be an integer"):
        gamma_from_alpha(3, 1.0, 0.7, l_max=2.5)
    with pytest.raises(ValueError, match="must be an integer"):
        gamma_coeff_3d(1.5, cp3, 0.4 + 1j, 4)
    with pytest.raises(ValueError, match="l_max must be an integer"):
        gamma_coeff_3d(1, cp3, 0.4 + 1j, 4.5)
    with pytest.raises(ValueError, match="must be an integer"):
        gamma_coeff_2d(0.5, cp2, 0.4 + 1j)
    # numpy integers are integers
    assert gamma_coeff_3d(np.int64(1), cp3, 0.4 + 1j, np.int64(4)) == gamma_coeff_3d(
        1, cp3, 0.4 + 1j, 4
    )


def _consistency_gap(dim, z, alpha, rot, src, t, channel):
    """|2 pi / Gamma_ch(z) - lambda(z - m0 omega)|: the circle coupling matched
    to alpha at the same degree cap against the rotating point coupling."""
    if dim == 2:
        cp = CircleParam(gamma_from_alpha(2, alpha, src.y0), src.y0, 2)
        gamma_ch = gamma_coeff_2d(channel.n, cp, z)
    else:
        cp = CircleParam(gamma_from_alpha(3, alpha, src.y0, l_max=t.l_max), src.y0, 3)
        gamma_ch = gamma_coeff_3d(channel.m, cp, z, t.l_max)
    lam = lambda_at(dim, z - channel.shift * rot.omega, KreinParam(alpha), rot, src, t)
    return abs(2.0 * math.pi / gamma_ch - lam)


def test_consistency_gap_decays_with_rotation():
    z = 0.4 + 1.0j
    alpha = math.pi / 2
    src2 = PointSource(0.8, 2)
    t2 = Truncation(3)
    gaps2 = [
        _consistency_gap(2, z, alpha, RotationSpec(om), src2, t2, ChannelIndex2(1))
        for om in (8.0, 32.0, 128.0)
    ]
    assert all(g > 0.0 for g in gaps2)
    assert gaps2[0] > gaps2[1] > gaps2[2]

    src3 = PointSource(0.9, 3)
    t3 = Truncation(3, l_max=6)
    gaps3 = [
        _consistency_gap(3, z, alpha, RotationSpec(om), src3, t3, ChannelIndex3(1, 1))
        for om in (8.0, 32.0, 128.0)
    ]
    assert all(g > 0.0 for g in gaps3)
    assert gaps3[0] > gaps3[1] > gaps3[2]


def _free_part(psi, z):
    from rotkrein._radial import radial_apply

    return radial_apply(psi, z, psi.grid)


def test_apply_resolvent_separable_correction_2d():
    z = 0.4 + 1.0j
    psi = make_psi(2, ChannelIndex2(2))
    cp = CircleParam(0.9, 0.8, 2)
    t = Truncation(4)
    out = apply_circle_resolvent(2, psi, cp, z, t)
    corr = out.values - _free_part(psi, z)
    kernel = np.array(
        [radial_kernel_2d(2, z, r, cp.radius) for r in psi.grid]
    )
    ratios = corr[np.abs(kernel) > 1e-8] / kernel[np.abs(kernel) > 1e-8]
    assert np.max(np.abs(ratios - ratios[0])) < 1e-10 * abs(ratios[0])
    # the separable constant is I_chi / Gamma_n
    wr = psi.quad_weights() * psi.grid
    i_chi = np.sum(
        wr
        * psi.values
        * np.array(
            [radial_kernel_2d(2, z, cp.radius, r) for r in psi.grid]
        )
    )
    gam_n = gamma_coeff_2d(2, cp, z)
    # plain-grid quadrature across the kernel kink at the circle radius
    # limits this oracle to ~1e-4; enough to pin the weight convention
    assert ratios[0] == pytest.approx(i_chi / gam_n, rel=1e-3)


def test_apply_resolvent_separable_correction_3d():
    z = 0.6 + 0.9j
    psi = make_psi(3, ChannelIndex3(2, 0))
    cp = CircleParam(1.4, 1.0, 3)
    t = Truncation(4, l_max=10)
    out = apply_circle_resolvent(3, psi, cp, z, t)
    corr = out.values - _free_part(psi, z)
    kernel = np.array(
        [radial_kernel_3d(2, z, r, cp.radius) for r in psi.grid]
    )
    ratios = corr[np.abs(kernel) > 1e-8] / kernel[np.abs(kernel) > 1e-8]
    assert np.max(np.abs(ratios - ratios[0])) < 1e-10 * abs(ratios[0])
    wr = psi.quad_weights() * psi.grid**2
    i_chi = np.sum(
        wr
        * psi.values
        * np.array(
            [radial_kernel_3d(2, z, cp.radius, r) for r in psi.grid]
        )
    )
    gam_m = gamma_coeff_3d(0, cp, z, t.l_max)
    want = 2.0 * math.pi * equatorial_weight(2, 0) * i_chi / gam_m
    assert ratios[0] == pytest.approx(want, rel=1e-3)


def test_apply_resolvent_equatorially_odd_channel_stays_free():
    z = 0.4 + 1.0j
    psi = make_psi(3, ChannelIndex3(1, 0))
    cp = CircleParam(1.4, 1.0, 3)
    out = apply_circle_resolvent(3, psi, cp, z, Truncation(4, l_max=10))
    np.testing.assert_array_equal(out.values, _free_part(psi, z))


def test_apply_resolvent_validation():
    psi = make_psi(2, ChannelIndex2(1))
    cp3 = CircleParam(1.0, 1.0, 3)
    with pytest.raises(ValueError):
        apply_circle_resolvent(2, psi, cp3, 1j, Truncation(4))
    with pytest.raises(ValueError):
        apply_circle_resolvent(3, psi, cp3, 1j, Truncation(4, l_max=8))
    cp2 = CircleParam(1.0, 1.0, 2)
    with pytest.raises(ValueError):
        apply_circle_resolvent(2, psi, cp2, 1.0 - 0.5j, Truncation(4))
