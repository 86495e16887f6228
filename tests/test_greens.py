import cmath
import math
import struct
import sys

import mpmath
import numpy as np
import pytest
import scipy.special as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import CountingSpecial
from oracles import (
    free_green_2d,
    free_green_3d,
    free_green_norm_sq_3d,
    quadrature_kernel_2d,
    quadrature_kernel_3d,
)
import rotkrein._radial
import rotkrein.rotframe
import rotkrein.specfun

from rotkrein import (
    ChannelIndex2,
    ChannelIndex3,
    KreinParam,
    Point2,
    Point3,
    PointSource,
    RotationSpec,
    SingularArgumentError,
    Truncation,
    gamma_from_alpha,
    lambda_at,
    radial_kernel_2d,
    radial_kernel_3d,
    remainder_norm,
    rot_green,
    rot_inner,
    rot_norm_sq,
    sqrt_upper,
)
from rotkrein._radial import separable_kernels
from rotkrein.greens import require_off_axis_energy
from rotkrein.rotframe import channel_diag
from rotkrein.specfun import (
    _equatorial_weights,
    bessel_j,
    equatorial_weight,
    hankel1,
    require_resolvent_energy,
    sph_bessel_j,
    sph_hankel1,
)

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


@pytest.mark.parametrize("dim", [2, 3])
def test_one_term_views_reject_non_integer_orders(dim):
    """A channel order is an integer: the one-term views raise ValueError
    rather than return a Bessel kernel of a non-channel order."""
    kernel = radial_kernel_2d if dim == 2 else radial_kernel_3d
    src, t = PointSource(0.7, dim), Truncation(4, l_max=6)
    for order in (1.5, 0.5, 2.0):
        with pytest.raises(ValueError, match="must be an integer"):
            kernel(order, 1j, 1.0, 1.0)
        with pytest.raises(ValueError, match="must be an integer"):
            channel_diag(dim, order, 0.4 + 1j, src, t)
    # numpy integers are integers
    assert kernel(np.int64(2), 1j, 1.0, 1.0) == kernel(2, 1j, 1.0, 1.0)
    assert channel_diag(dim, np.int64(2), 0.4 + 1j, src, t) == channel_diag(
        dim, 2, 0.4 + 1j, src, t)


def test_closed_vs_quadrature():
    rng = np.random.default_rng(12)
    for _ in range(10):
        z = complex(rng.uniform(-2, 2), rng.uniform(0.4, 2))
        r, rp = sorted(rng.uniform(0.3, 2.5, size=2))
        n = int(rng.integers(0, 4))
        a2 = radial_kernel_2d(n, z, r, rp)
        b2 = quadrature_kernel_2d(n, z, r, rp)
        assert abs(a2 - b2) / abs(a2) < 1e-6
        a3 = radial_kernel_3d(n, z, r, rp)
        b3 = quadrature_kernel_3d(n, z, r, rp)
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


# -- the closed kernels against the scalar specfun composition --


def bits(v: complex) -> bytes:
    """The exact bits of a complex value (NaN payloads and signed zeros too)."""
    v = complex(v)
    return struct.pack("<dd", v.real, v.imag)


def scalar_3d(l, z, r, rp):
    """i w j_l(w r<) h_l(w r>) from the scalar specfun functions, after the
    energy and radius checks, with the conj(z) route for Im z < 0."""
    z = require_resolvent_energy(z)
    if not (r >= 0.0 and rp >= 0.0):
        raise ValueError("radii must be nonnegative")
    if z.imag < 0.0:
        return scalar_3d(l, z.conjugate(), r, rp).conjugate()
    w = sqrt_upper(z)
    return 1j * w * sph_bessel_j(l, w * min(r, rp)) * sph_hankel1(l, w * max(r, rp))


def scalar_2d(n, z, r, rp):
    """(i pi/2) J_|n|(w r<) H_|n|(w r>) from the scalar specfun functions;
    checks and routes as scalar_3d."""
    z = require_resolvent_energy(z)
    if not (r >= 0.0 and rp >= 0.0):
        raise ValueError("radii must be nonnegative")
    if z.imag < 0.0:
        return scalar_2d(n, z.conjugate(), r, rp).conjugate()
    w = sqrt_upper(z)
    nn = abs(n)
    return 0.5j * math.pi * bessel_j(nn, w * min(r, rp)) * hankel1(nn, w * max(r, rp))


def outcome(f):
    """The value, or the error raised."""
    try:
        return complex(f())
    except (ValueError, OverflowError) as exc:
        return exc


def overflows(want) -> bool:
    """The scalar composition hit the |Im x| backstop or gave a nonfinite value."""
    return isinstance(want, OverflowError) or (
        not isinstance(want, Exception) and not cmath.isfinite(want))


def normal_range(dim, order, z, r, rp) -> bool:
    """Whether the factor (pi/2) J(w r<) and its product with H(w r>) are
    zero or normal doubles.  Below that range the separable formula and the
    scalar composition round on the subnormal grid, each its own way."""
    tiny = sys.float_info.min
    w = sqrt_upper(z.conjugate() if z.imag < 0.0 else z)
    nu = abs(order) if dim == 2 else order + 0.5
    with np.errstate(all="ignore"):
        j = 0.5 * math.pi * abs(sp.jv(nu, w * min(r, rp)))
        jh = j * abs(sp.hankel1(nu, w * max(r, rp)))
    return j == 0.0 or min(j, jh) >= tiny


def agrees(got, want, normal=True) -> bool:
    """A kernel outcome against the scalar composition's: within 1e-13
    relative of a finite value (if the formula stays in the normal range),
    the same error type where the composition raises ValueError, and
    OverflowError or a finite value where it overflows (the kernels have no
    |Im x| backstop) or leaves the normal range."""
    if isinstance(want, ValueError):
        return type(got) is type(want)
    if overflows(want) or not normal:
        return isinstance(got, OverflowError) or (
            not isinstance(got, Exception) and cmath.isfinite(got))
    return not isinstance(got, Exception) and abs(got - want) <= 1e-13 * abs(want)


def batch_agrees(f, wants, normal) -> bool:
    """A paired batch call against the scalar outcomes of its pairs: an error
    is one of theirs (by type; an overflow may also come from a pair outside
    the normal range), else every value agrees."""
    try:
        got = f().tolist()
    except OverflowError:
        return any(overflows(w) or not ok for w, ok in zip(wants, normal))
    except ValueError as exc:
        return any(type(exc) is type(w) for w in wants)
    return all(agrees(g, w, ok) for g, w, ok in zip(got, wants, normal))


# Both half-planes, the negative real axis (with either sign of zero), and
# energies large enough for the |Im x| backstop.
energies = st.one_of(
    st.builds(complex, st.floats(-60.0, 60.0), st.floats(-30.0, 30.0)),
    st.builds(complex, st.floats(-1e3, -1e-3), st.sampled_from([0.0, -0.0])),
    st.builds(complex, st.floats(-1e5, 1e5), st.floats(-1e3, 1e3)),
)
radii = st.one_of(st.just(0.0), st.floats(0.0, 6.0))


@settings(max_examples=80, deadline=None)
@given(energies, radii, radii, st.integers(0, 80), st.integers(1, 81))
@example(z=1j, r=5e-324, rp=0.0, lo=0, n=39)  # subnormal tie: the prefactor overflows
@example(z=1j, r=1e-170, rp=1e-170, lo=0, n=3)  # r r' underflows to 0
@example(z=0.4 - 1j, r=1e-160, rp=3e-161, lo=0, n=2)  # r r' is subnormal
def test_closed_3d_equals_scalar_composition_bitwise(z, r, rp, lo, n):
    """radial_kernel_3d and one paired call over the degrees against the
    scalar composition (the name predates the tolerance)."""
    ls = list(range(lo, min(lo + n, 81)))
    rp = r if n % 3 == 0 else rp  # ties r = r'
    want = [outcome(lambda l=l: scalar_3d(l, z, r, rp)) for l in ls]
    normal = [isinstance(w, Exception) or normal_range(3, l, z, r, rp) for l, w in zip(ls, want)]
    for l, w, ok in zip(ls, want, normal):
        assert agrees(outcome(lambda l=l: radial_kernel_3d(l, z, r, rp)), w, ok), (l, w)
    assert batch_agrees(lambda: separable_kernels(3, ls, [z] * len(ls), r, rp), want, normal)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.tuples(st.integers(-80, 80), energies), min_size=1, max_size=40),
    radii,
    radii,
    st.booleans(),
)
def test_closed_2d_equals_scalar_composition_bitwise(pairs, r, rp, tie):
    """radial_kernel_2d and one paired call over the (order, energy) pairs
    against the scalar composition (the name predates the tolerance)."""
    rp = r if tie else rp
    ns, zs = [n for n, _ in pairs], [z for _, z in pairs]
    want = [outcome(lambda n=n, z=z: scalar_2d(n, z, r, rp)) for n, z in pairs]
    normal = [isinstance(w, Exception) or normal_range(2, n, z, r, rp)
              for (n, z), w in zip(pairs, want)]
    for (n, z), w, ok in zip(pairs, want, normal):
        assert agrees(outcome(lambda: radial_kernel_2d(n, z, r, rp)), w, ok), (n, z, w)
    assert batch_agrees(lambda: separable_kernels(2, ns, zs, r, rp), want, normal)


# Every route of the scalar bessel_j and sph_bessel_j: signed zeros, the
# real axis, the negative real axis (parity), the left and right half-planes
# and a tiny imaginary argument.
J_ARGS = [0j, complex(-0.0, 0.0), complex(0.0, -0.0), 2.5 + 0j, complex(2.5, -0.0),
          -2.5 + 0j, complex(-2.5, -0.0), -1.5 + 0.7j, -30.0 + 40.0j, 1.5 + 0.7j, 1e-300j]


def mp_sph_j(l, x):
    """j_l(x) = sqrt(pi/2) J_{l+1/2}(x) / sqrt(x), an entire function of x."""
    if x == 0:
        return mpmath.mpf(1 if l == 0 else 0)
    return mpmath.sqrt(mpmath.pi / 2) * mpmath.besselj(l + 0.5, x) / mpmath.sqrt(x)


@pytest.mark.parametrize("x", J_ARGS)
def test_bessel_j_routes_match_mpmath(x):
    with mpmath.workdps(30):
        xm = mpmath.mpc(x.real, x.imag)
        for n in range(81):
            for got, want in ((bessel_j(n, x), mpmath.besselj(n, xm)),
                              (sph_bessel_j(n, x), mp_sph_j(n, xm))):
                want = complex(want)
                # Below the normal range only the subnormal grid is left.
                assert abs(got - want) <= 1e-12 * abs(want) + 1e-300, (n, got, want)


def test_closed_forms_keep_the_scalar_checks():
    with pytest.raises(ValueError, match="degree must be nonnegative"):
        separable_kernels(3, [2, -1], 1j, 1.0, 1.0)
    with pytest.raises(ValueError, match="essential spectrum"):
        separable_kernels(2, [0, 1], [1j, 2.0], 1.0, 1.0)
    with pytest.raises(ValueError, match="radii"):
        radial_kernel_3d(0, 1j, -1.0, 1.0)
    with pytest.raises(SingularArgumentError, match="singular at w r = 0"):
        separable_kernels(3, [0, 1], 1j, 0.0, 0.0)
    with pytest.raises(SingularArgumentError, match="singular at w r = 0"):
        radial_kernel_2d(0, 1j, 0.0, 0.0)
    # no |Im x| backstop: the overflowed entry itself is reported
    with pytest.raises(OverflowError, match=r"order 0 at z=\(-1000000\+1j\) is not finite"):
        separable_kernels(3, [0, 1], -1e6 + 1j, 1.0, 1.0)
    # an empty order list is an empty result: nothing is evaluated or checked
    assert separable_kernels(3, [], 2.0, -1.0, 1.0).shape == (0,)
    assert separable_kernels(2, [], [], -1.0, 1.0).shape == (0,)


def scalar_weight(l, m):
    """|Y_l^m(pi/2, 0)|^2 by the one-degree log-gamma formula."""
    if abs(m) > l or (l + m) % 2 != 0:
        return 0.0
    lg = (
        math.log((2 * l + 1) / (4.0 * math.pi))
        + sp.gammaln(l - m + 1)
        + sp.gammaln(l + m + 1)
        - 2.0 * sp.gammaln((l + m) / 2 + 1)
        - 2.0 * sp.gammaln((l - m) / 2 + 1)
        - 2.0 * l * math.log(2.0)
    )
    return float(np.exp(lg))


@pytest.mark.parametrize("l_max", [48, 64, 200])
def test_batched_equatorial_weights_equal_scalar_formula_bitwise(l_max):
    for m in range(-l_max, l_max + 1):
        ls = range(abs(m), l_max + 1)
        want = [struct.pack("<d", scalar_weight(l, m)) for l in ls]
        assert [struct.pack("<d", w) for w in _equatorial_weights(ls, m)] == want
        assert struct.pack("<d", equatorial_weight(l_max, m)) == want[-1]
    # degrees below |m| weigh zero; a negative degree is an error
    assert _equatorial_weights([0, 1, 2, 3], 2) == [0.0, 0.0, scalar_weight(2, 2), 0.0]
    with pytest.raises(ValueError, match="degree must be nonnegative"):
        _equatorial_weights([1, -2], 0)


# -- the point-kernel entry points, pinned to the values of the per-term code --

ROT = RotationSpec(3.0)
P2 = (Point2(1.6, 1.0), Point2(0.2, 4.0))
P3 = (Point3(1.6, 1.0, 0.5), Point3(0.2, 2.0, 4.0))
S2, S3 = PointSource(0.7, 2), PointSource(0.7, 3)
T2 = Truncation(16)
T3 = Truncation(16, l_max=16, tail_tol=math.inf)
T3_TAIL = Truncation(8, l_max=32)  # long enough for the degree-tail fit
KP = KreinParam(1.3)
ZS = ((0.4 + 1j, ROT), (0.4 - 1j, ROT), (-2.0, RotationSpec(0.0)))

# Values of the per-term scalar code these paths replaced (repr round-trips);
# the one kernel path reproduces them to roundoff.
PINNED = {
    "rot_green_2d": [
        (-0.005305007668455804+0.04895407355873968j),
        (-0.007087787667384888-0.04642172626421457j),
        (0.009429757493729601-1.3793517562055028e-20j),
    ],
    "rot_green_3d": [
        (0.002825692862686946+0.01382775453559795j),
        (0.0050258725120947405-0.015058648376504792j),
        (0.00353943431467825+1.9290692780965696e-19j),
    ],
    "channel_diag_2d": [
        (0.05091955166235501+0.02240989488646169j),
        (0.021730073954078475-0.00040124652414296743j),
    ],
    "channel_diag_3d": [
        (0.11905919494629061+0.01278607530905384j),
        (0.07951672514363982-0.0006458025704181785j),
    ],
    "rot_norm_sq": [
        0.20170999233613843,
        0.09460592353072682,
    ],
    "gamma_from_alpha": [
        1.0831992441762464,
        1.3401854074922288,
    ],
    "lambda_at": [
        (2.3588441761094248+3.2406034074761947j),
        (4.615644922834992+7.879380286106005j),
    ],
    "rot_inner": [
        (0.004300872015927131+0.07622391364170285j),
        (0.025031979477465903+0.02986031045366627j),
    ],
    "remainder_norm": [
        0.18279093385943745,
        0.15025735420182518,
    ],
}


def test_point_kernels_pinned_bitwise():
    got = {
        "rot_green_2d": [rot_green(2, z, rot, *P2, Truncation(24)) for z, rot in ZS],
        "rot_green_3d": [rot_green(3, z, rot, *P3, T3) for z, rot in ZS],
        "channel_diag_2d": [
            channel_diag(2, 2, 6.4 + 1j, S2, T2),
            channel_diag(2, -3, -8.6 - 1j, S2, T2),
        ],
        "channel_diag_3d": [
            channel_diag(3, 2, 6.4 + 1j, S3, T3),
            channel_diag(3, -3, -8.6 - 1j, S3, T3),
        ],
        "rot_norm_sq": [
            rot_norm_sq(2, 0.4 + 1j, ROT, S2, T2),
            rot_norm_sq(3, 0.4 + 1j, ROT, S3, T3_TAIL),
        ],
        "gamma_from_alpha": [
            gamma_from_alpha(2, 1.0, 0.7),
            gamma_from_alpha(3, 1.0, 0.7, l_max=64),
        ],
        "lambda_at": [
            lambda_at(2, 0.4 + 1j, KP, ROT, S2, T2),
            lambda_at(3, 0.4 + 1j, KP, ROT, S3, T3_TAIL),
        ],
        "rot_inner": [
            rot_inner(2, 0.4 + 1j, -1 + 0.5j, ROT, S2, T2),
            rot_inner(3, 0.4 + 1j, -1 + 0.5j, ROT, S3, T3_TAIL),
        ],
        "remainder_norm": [
            remainder_norm(2, 1, 0.4 + 1j, ROT, S2, T2),
            remainder_norm(3, 1, 0.4 + 1j, ROT, S3, T3_TAIL),
        ],
    }
    worst = 0.0
    for name, want in PINNED.items():
        for g, w in zip(got[name], want, strict=True):
            dev = abs(g - w) / abs(w)
            assert dev <= 1e-13, (name, g, w)
            worst = max(worst, dev)
    print(f"largest relative deviation from the pinned values: {worst:.3g}")


def test_rot_green_3d_special_calls_per_shell(monkeypatch):
    """A bounded number of scipy.special calls per window, not per (l, m) term."""
    counter = CountingSpecial()
    for mod in (rotkrein._radial, rotkrein.rotframe, rotkrein.specfun):
        monkeypatch.setattr(mod, "sp", counter)
    val = rot_green(3, 0.4 + 1j, ROT, *P3, T3)
    # One harmonic call, one jv call at the smaller radius and one hankel1
    # call at the larger, for all 33 shells (1,156 calls per term before).
    assert 0 < counter.calls <= 3
    want = PINNED["rot_green_3d"][0]
    assert abs(val - want) <= 1e-13 * abs(want)
