import math

import numpy as np
import pytest

from helpers import gauss_radial

from rotkrein import (
    ChannelIndex2,
    ChannelIndex3,
    KreinParam,
    Point2,
    Point3,
    PointSource,
    RadialChannelFunction,
    RotationSpec,
    Truncation,
    apply_krein_resolvent,
    krein_kernel,
    lambda_at,
    lambda_ref,
    rot_green,
)

T = Truncation(m_max=16, l_max=16)
SRC2 = PointSource(1.0, 2)
SRC3 = PointSource(1.0, 3)


def test_lambda_reference_anchor():
    kp = KreinParam(1.3)
    rot = RotationSpec(2.0)
    assert lambda_at(2, -1j, kp, rot, SRC2, T) == lambda_ref(2, kp, rot, SRC2, T)
    assert lambda_at(3, -1j, kp, rot, SRC3, T) == lambda_ref(3, kp, rot, SRC3, T)


def test_lambda_free_case_is_exact_zero():
    kp = KreinParam(math.pi)
    rot = RotationSpec(3.0)
    for z in (-1j, 0.5 + 0.2j, -2.0 + 1e-6j, 4.0 - 3.0j):
        assert lambda_at(2, z, kp, rot, SRC2, T) == 0.0
        assert lambda_at(3, z, kp, rot, SRC3, T) == 0.0


def test_lambda_path_independence():
    rng = np.random.default_rng(11)
    for _ in range(6):
        dim = int(rng.integers(2, 4))
        z = complex(rng.uniform(-2, 2), rng.uniform(0.3, 2.0))
        zmid = complex(rng.uniform(-2, 2), rng.uniform(0.3, 2.0))
        kp = KreinParam(float(rng.uniform(0.5, 2.5)))
        src = PointSource(float(rng.uniform(0.5, 1.5)), dim)
        rot = RotationSpec(float(rng.uniform(0.0, 5.0)))
        direct = lambda_at(dim, z, kp, rot, src, T)
        hopped = lambda_at(dim, z, kp, rot, src, T, via=zmid)
        assert abs(direct - hopped) / abs(direct) < 1e-8


def test_krein_param_validation():
    with pytest.raises(ValueError):
        KreinParam(-0.1)
    with pytest.raises(ValueError):
        KreinParam(2 * math.pi)
    assert KreinParam(math.pi).is_free
    assert not KreinParam(1.0).is_free


TK = Truncation(m_max=32, l_max=32)


def test_krein_kernel_free_case_matches_rot_green():
    z = 0.4 + 1.0j
    rot = RotationSpec(2.0)
    x, xp = Point2(1.8, 0.4), Point2(0.5, 2.2)
    v = krein_kernel(2, z, KreinParam(math.pi), rot, x, xp, SRC2, TK)
    assert v == rot_green(2, z, rot, x, xp, TK)


def test_krein_kernel_adjoint_symmetry():
    z = 0.4 + 1.0j
    kp = KreinParam(1.7)
    rot = RotationSpec(2.0)
    x, xp = Point2(1.8, 0.4), Point2(0.5, 2.2)
    a = krein_kernel(2, z, kp, rot, x, xp, SRC2, TK)
    b = krein_kernel(2, z.conjugate(), kp, rot, xp, x, SRC2, TK)
    assert a == pytest.approx(b.conjugate(), rel=1e-10)
    x3, xp3 = Point3(1.8, 1.1, 0.4), Point3(0.5, 2.0, 2.2)
    a3 = krein_kernel(3, z, kp, rot, x3, xp3, SRC3, TK)
    b3 = krein_kernel(3, z.conjugate(), kp, rot, xp3, x3, SRC3, TK)
    assert a3 == pytest.approx(b3.conjugate(), rel=1e-10)


def _domain_pair_2d(zeta: complex, n0: int, omega: float):
    """chi = r exp(-r^2) in channel n0, and (H - z) chi on the same grid."""
    rg, wq = gauss_radial(200)
    chi = rg * np.exp(-(rg**2))
    eta = np.exp(-(rg**2)) * (8 * rg - 4 * rg**3) * (n0 * n0 == 1) - (
        zeta + n0 * omega
    ) * chi
    if n0 * n0 != 1:
        raise NotImplementedError
    return rg, wq, chi, eta


def test_domain_identity_2d():
    zeta = 0.3 + 0.8j
    n0, om = 1, 2.0
    rg, wq, chi, eta = _domain_pair_2d(zeta, n0, om)
    psi = RadialChannelFunction(ChannelIndex2(n0), rg, eta, wq)
    kp = KreinParam(1.3)
    rot = RotationSpec(om)
    free, coef = apply_krein_resolvent(2, psi, zeta + n0 * om, kp, rot, SRC2, T)
    assert np.max(np.abs(free.values - chi)) / np.max(np.abs(chi)) < 1e-5
    lam = lambda_at(2, zeta, kp, rot, SRC2, T)
    proj = np.exp(1j * n0 * math.pi / 2) / math.sqrt(2 * math.pi)
    expect = lam * math.exp(-1.0) * proj
    assert abs(coef - expect) / abs(expect) < 1e-5


def test_domain_identity_3d():
    zeta = 0.3 + 0.8j
    m0, om = 1, 2.0
    rg, wq = gauss_radial(200)
    chi = rg * np.exp(-(rg**2))
    eta = np.exp(-(rg**2)) * (10 * rg - 4 * rg**3) - (zeta + m0 * om) * chi
    psi = RadialChannelFunction(ChannelIndex3(1, 1), rg, eta, wq)
    kp = KreinParam(1.3)
    rot = RotationSpec(om)
    t = Truncation(m_max=24, l_max=24)
    free, coef = apply_krein_resolvent(3, psi, zeta + m0 * om, kp, rot, SRC3, t)
    assert np.max(np.abs(free.values - chi)) / np.max(np.abs(chi)) < 1e-5
    lam = lambda_at(3, zeta, kp, rot, SRC3, t)
    proj = -math.sqrt(3 / (8 * math.pi))
    expect = lam * math.exp(-1.0) * proj
    assert abs(coef - expect) / abs(expect) < 1e-5


def test_apply_free_case_coefficient_zero():
    rg, wq = gauss_radial(120)
    psi = RadialChannelFunction(ChannelIndex2(1), rg, rg * np.exp(-(rg**2)), wq)
    _, coef = apply_krein_resolvent(
        2, psi, 0.5 + 1j, KreinParam(math.pi), RotationSpec(2.0), SRC2, T
    )
    assert coef == 0.0


def test_apply_requires_upper_half_plane():
    rg, wq = gauss_radial(120)
    psi = RadialChannelFunction(ChannelIndex2(1), rg, rg * np.exp(-(rg**2)), wq)
    with pytest.raises(ValueError):
        apply_krein_resolvent(
            2, psi, 0.5 - 1j, KreinParam(1.0), RotationSpec(2.0), SRC2, T
        )


def test_radial_channel_function_validation():
    with pytest.raises(ValueError):
        RadialChannelFunction(ChannelIndex2(0), [1.0, 0.5], [1.0, 1.0])
    with pytest.raises(ValueError):
        RadialChannelFunction(ChannelIndex2(0), [0.5, 1.0], [1.0])
    f = RadialChannelFunction(ChannelIndex3(2, -1), [0.5, 1.0, 1.5], [1, 2, 1])
    assert f.dim == 3 and f.order == 2
    # 3D grids may not touch the origin, where the kernels divide by sqrt(r);
    # 2D grids may.
    origin = np.linspace(0.0, 8.0, 200)
    with pytest.raises(ValueError, match="r = 0"):
        RadialChannelFunction(ChannelIndex3(1, 1), origin, origin * np.exp(-origin**2))
    assert RadialChannelFunction(ChannelIndex2(1), origin, origin).grid[0] == 0.0
    assert f.norm_sq() > 0.0
