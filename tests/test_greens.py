import cmath
import math

import numpy as np
import pytest

from rotkrein import (
    ChannelIndex2,
    ChannelIndex3,
    Point2,
    Point3,
    RotationSpec,
    SingularArgumentError,
    Truncation,
    free_green_2d,
    free_green_3d,
    free_green_norm_sq_3d,
    radial_kernel_2d,
    radial_kernel_3d,
    rot_green,
    sqrt_upper,
)
from rotkrein.greens import require_off_axis_energy, require_resolvent_energy

# mpmath oracle (dps=30): I0(1)*K0(1) and sinh(1)*exp(-1).
I0K0_1 = 0.53304467495626862
SINH1_OVER_E = 0.43233235838169365


def test_kernel_values_at_minus_one():
    assert radial_kernel_2d(0, -1.0, 1.0, 1.0) == pytest.approx(I0K0_1, rel=1e-12)
    assert radial_kernel_3d(0, -1.0, 1.0, 1.0) == pytest.approx(
        SINH1_OVER_E, rel=1e-12
    )


def test_kernel_argument_symmetry():
    rng = np.random.default_rng(9)
    for _ in range(10):
        z = complex(rng.uniform(-3, 3), rng.uniform(0.2, 2))
        r, rp = rng.uniform(0.2, 3.0, size=2)
        n = int(rng.integers(0, 5))
        assert radial_kernel_2d(n, z, r, rp) == radial_kernel_2d(n, z, rp, r)
        assert radial_kernel_3d(n, z, r, rp) == radial_kernel_3d(n, z, rp, r)
        assert radial_kernel_2d(-n, z, r, rp) == radial_kernel_2d(n, z, r, rp)


def test_kernel_schwarz_fold():
    rng = np.random.default_rng(10)
    for _ in range(10):
        z = complex(rng.uniform(-3, 3), rng.uniform(0.2, 2))
        r, rp = rng.uniform(0.2, 3.0, size=2)
        lo2 = radial_kernel_2d(1, z.conjugate(), r, rp)
        assert lo2 == pytest.approx(radial_kernel_2d(1, z, r, rp).conjugate(), rel=1e-13)
        lo3 = radial_kernel_3d(2, z.conjugate(), r, rp)
        assert lo3 == pytest.approx(radial_kernel_3d(2, z, r, rp).conjugate(), rel=1e-13)


def test_closed_vs_quadrature():
    rng = np.random.default_rng(12)
    for _ in range(10):
        z = complex(rng.uniform(-2, 2), rng.uniform(0.4, 2))
        r, rp = sorted(rng.uniform(0.3, 2.5, size=2))
        n = int(rng.integers(0, 4))
        a2 = radial_kernel_2d(n, z, r, rp)
        b2 = radial_kernel_2d(n, z, r, rp, mode="quadrature")
        assert abs(a2 - b2) / abs(a2) < 1e-6
        a3 = radial_kernel_3d(n, z, r, rp)
        b3 = radial_kernel_3d(n, z, r, rp, mode="quadrature")
        assert abs(a3 - b3) / abs(a3) < 1e-6


def test_free_green_closed_forms():
    z = -0.7 + 0.9j
    w = sqrt_upper(z)
    x, xp = Point3(1.2, 0.8, 0.3), Point3(0.4, 2.0, 1.5)
    d = math.sqrt(
        x.r**2
        + xp.r**2
        - 2
        * x.r
        * xp.r
        * (
            math.sin(x.theta) * math.sin(xp.theta) * math.cos(x.phi - xp.phi)
            + math.cos(x.theta) * math.cos(xp.theta)
        )
    )
    assert free_green_3d(z, x, xp) == pytest.approx(
        cmath.exp(1j * w * d) / (4 * math.pi * d), rel=1e-13
    )
    p, pp = Point2(1.2, 0.8), Point2(0.4, 2.0)
    d2 = math.sqrt(p.r**2 + pp.r**2 - 2 * p.r * pp.r * math.cos(p.theta - pp.theta))
    from scipy.special import hankel1

    assert free_green_2d(z, p, pp) == pytest.approx(
        0.25j * hankel1(0, w * d2), rel=1e-13
    )


def test_free_green_coincident_rejected():
    with pytest.raises(SingularArgumentError):
        free_green_3d(1j, Point3(1.0, 0.5, 0.5), Point3(1.0, 0.5, 0.5))
    with pytest.raises(SingularArgumentError):
        free_green_2d(1j, Point2(1.0, 0.5), Point2(1.0, 0.5))


def test_channel_resummation_2d():
    # the channel sum against the source point at omega = 0 is the free kernel
    z = 0.5 + 1j
    x, src = Point2(1.1, 0.4), Point2(0.6, *ChannelIndex2.source_angles)
    tot = rot_green(2, z, RotationSpec(0.0), x, src, Truncation(40))
    free = free_green_2d(z, x, src)
    assert abs(tot - free) / abs(free) < 1e-10


def test_channel_resummation_3d():
    # l <= 60 leaves a shell tail near 1.5e-7, so the window check runs at 1e-5
    z = 0.5 + 1j
    x, src = Point3(1.1, 1.0, 0.4), Point3(0.6, *ChannelIndex3.source_angles)
    t = Truncation(16, l_max=60, tail_tol=1e-5)
    tot = rot_green(3, z, RotationSpec(0.0), x, src, t)
    free = free_green_3d(z, x, src)
    assert abs(tot - free) / abs(free) < 1e-5


def test_norm_sq_formula_vs_integral():
    z = -0.6 + 1.3j
    w = sqrt_upper(z)
    rg = np.linspace(0.0, 80.0, 400000)
    integrand = np.exp(-2.0 * w.imag * rg) / (4.0 * math.pi)
    ref = np.trapezoid(integrand, rg)
    assert free_green_norm_sq_3d(z) == pytest.approx(ref, rel=1e-6)


def test_energy_guards():
    assert require_resolvent_energy(-2.0) == -2.0 + 0j
    assert require_resolvent_energy(0.3 + 0.4j) == 0.3 + 0.4j
    with pytest.raises(ValueError):
        require_resolvent_energy(2.0)
    with pytest.raises(ValueError):
        require_off_axis_energy(-2.0)
    assert require_off_axis_energy(-2.0 + 1e-3j) == -2.0 + 1e-3j
