import math

import numpy as np
import pytest

from helpers import make_psi

from rotkrein import (
    ChannelIndex2,
    ChannelIndex3,
    CircleParam,
    KreinParam,
    PointSource,
    RotationSpec,
    Truncation,
    apply_circle_resolvent,
    apply_krein_resolvent,
    equatorial_weight,
    point_convergence_study,
    remainder_norm,
    sph_harm,
)
from rotkrein.specfun import (
    SingularArgumentError,
    bessel_j,
    hankel1,
    require_upper_energy,
    sph_bessel_j,
    sph_hankel1,
    sqrt_upper,
)

# mpmath oracle (dps=30), frozen:
#   besselj(0, 1j), hankel1(0, 1j), sqrt(pi/2x)*besselj(1/2, x) at x = 1j,
#   and spot values at generic complex arguments.
SINH_1 = 1.1752011936438015
I0_1 = 1.2660658777520083
H1_0_AT_I = -0.26803248203398855j
J3_ORACLE = 0.00051856075807361487 + 0.010683063649972384j
H1_2_ORACLE = -1.6147148465341191 - 1.2991521721403754j
SPH_J2_ORACLE = 0.098734347175027753 + 0.02702185360402609j
SPH_H1_1_ORACLE = 0.14109437655442608 - 0.8252991703711751j


def test_wrappers_match_oracle():
    assert bessel_j(0, 1j) == pytest.approx(I0_1, rel=1e-12)
    assert hankel1(0, 1j) == pytest.approx(H1_0_AT_I, rel=1e-12)
    assert sph_bessel_j(0, 1j) == pytest.approx(SINH_1, rel=1e-12)
    assert bessel_j(3, 0.7 + 0.4j) == pytest.approx(J3_ORACLE, rel=1e-12)
    assert hankel1(2, 0.7 + 0.4j) == pytest.approx(H1_2_ORACLE, rel=1e-12)
    assert sph_bessel_j(2, 1.3 + 0.2j) == pytest.approx(SPH_J2_ORACLE, rel=1e-12)
    assert sph_hankel1(1, 1.3 + 0.2j) == pytest.approx(SPH_H1_1_ORACLE, rel=1e-12)


def test_cylindrical_wronskian():
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = complex(rng.uniform(0.2, 4.0), rng.uniform(-2.0, 2.0))
        n = int(rng.integers(0, 6))
        w = bessel_j(n, x) * hankel1(n + 1, x) - bessel_j(n + 1, x) * hankel1(n, x)
        assert w == pytest.approx(-2j / (math.pi * x), rel=1e-10)


def test_spherical_wronskian():
    rng = np.random.default_rng(6)
    for _ in range(20):
        x = complex(rng.uniform(0.2, 4.0), rng.uniform(-2.0, 2.0))
        l = int(rng.integers(0, 6))
        w = sph_bessel_j(l, x) * sph_hankel1(l + 1, x) - sph_bessel_j(
            l + 1, x
        ) * sph_hankel1(l, x)
        assert w == pytest.approx(-1j / x**2, rel=1e-10)


def test_sqrt_upper_branch():
    assert sqrt_upper(-4.0) == 2j
    assert sqrt_upper(4.0) == 2.0 + 0j
    rng = np.random.default_rng(7)
    for _ in range(30):
        z = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
        w = sqrt_upper(z)
        assert w * w == pytest.approx(z, rel=1e-13)
        assert w.imag >= 0.0


def test_argument_guards():
    with pytest.raises(OverflowError):
        bessel_j(0, 1000j)
    with pytest.raises(ValueError):
        sph_hankel1(1, complex(0.0, float("nan")))
    with pytest.raises(SingularArgumentError):
        hankel1(0, 0.0)
    with pytest.raises(SingularArgumentError):
        sph_hankel1(2, 0.0)


def test_sph_harm_equator():
    assert sph_harm(1, 1, math.pi / 2, 0.0) == pytest.approx(
        -math.sqrt(3 / (8 * math.pi)), abs=1e-15
    )
    assert sph_harm(0, 0, 1.0, 2.0) == pytest.approx(
        1 / math.sqrt(4 * math.pi), abs=1e-15
    )


def test_equatorial_weight_parity_and_values():
    for l in range(6):
        for m in range(-l, l + 1):
            w = equatorial_weight(l, m)
            if (l + m) % 2:
                assert w == 0.0
            else:
                assert w == pytest.approx(
                    abs(sph_harm(l, m, math.pi / 2, 0.0)) ** 2, rel=1e-13
                )
                assert w > 0.0
    assert equatorial_weight(0, 0) == pytest.approx(1 / (4 * math.pi), rel=1e-13)


def test_one_term_harmonics_take_integer_degrees_and_orders():
    for f in (sph_harm, equatorial_weight):
        args = (1.0, 0.0) if f is sph_harm else ()
        with pytest.raises(ValueError, match="degree l must be an integer"):
            f(2.5, 0, *args)
        with pytest.raises(ValueError, match="order m must be an integer"):
            f(2, 0.5, *args)
    with pytest.raises(ValueError, match="degree l must be an integer"):
        equatorial_weight(2.5, 0.5)
    assert sph_harm(np.int64(2), np.int64(0), 1.0, 0.0) == sph_harm(2, 0, 1.0, 0.0)
    assert equatorial_weight(np.int64(2), np.int64(0)) == equatorial_weight(2, 0)


def test_channel_index_validation():
    assert ChannelIndex2(-3).n == -3
    ch = ChannelIndex3(2, -1)
    assert (ch.l, ch.m) == (2, -1)
    with pytest.raises(ValueError):
        ChannelIndex3(1, 2)
    with pytest.raises(ValueError):
        ChannelIndex3(-1, 0)


def test_upper_energy_check():
    assert require_upper_energy(-2.0 + 1e-300j, "use") == -2.0 + 1e-300j
    for z in (0.4, 0.4 - 1j, -2.0, complex(0.4, -0.0)):
        with pytest.raises(ValueError, match=rf"use needs Im z > 0, got z=\({z.real}"):
            require_upper_energy(z, "use")


def _upper_energy_entry_points(dim):
    """The entry points that need Im z > 0, each as a function of z."""
    psi = make_psi(dim, 1 if dim == 2 else (1, 1))
    t = Truncation(m_max=2, l_max=3)
    src = PointSource(0.7, dim)
    rot = RotationSpec(3.0)
    return {
        "apply_circle_resolvent": lambda z: apply_circle_resolvent(
            dim, psi, CircleParam(1.2, 0.7, dim), z, t),
        "apply_krein_resolvent": lambda z: apply_krein_resolvent(
            dim, psi, z, KreinParam(1.0), rot, src, t),
        "remainder_norm": lambda z: remainder_norm(dim, 1, z, rot, src, t),
        "point_convergence_study": lambda z: point_convergence_study(
            dim, 1.0, 0.7, z, [10.0, 20.0], [psi]),
    }


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("entry", ["apply_circle_resolvent", "apply_krein_resolvent",
                                   "remainder_norm", "point_convergence_study"])
def test_upper_energy_entry_points_reject_nonfinite_energies(dim, entry):
    """Each entry point names the nonfinite energy it was given, before any
    arithmetic on it, and names the operation when Im z <= 0."""
    call = _upper_energy_entry_points(dim)[entry]
    for z in (complex(math.inf, 1.0), complex(0.4, math.inf), complex(math.nan, 1.0),
              complex(0.4, math.nan), complex(-math.inf, -math.inf)):
        with pytest.raises(ValueError, match=rf"^nonfinite spectral parameter \({z.real}"):
            call(z)
    with pytest.raises(ValueError, match=r"needs Im z > 0, got z=\(0\.4-1j\)"):
        call(0.4 - 1j)
    call(0.4 + 1j)
