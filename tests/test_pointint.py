import cmath
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import CountingSpecial, gauss_radial
from oracles import lambda_via

import rotkrein._radial
import rotkrein.pointint
from rotkrein import (
    ChannelIndex2,
    ChannelIndex3,
    KreinParam,
    Point2,
    Point3,
    PointSource,
    RadialChannelFunction,
    ResonanceError,
    RotationSpec,
    SingularArgumentError,
    Truncation,
    TruncationError,
    apply_krein_resolvent,
    channel_diag,
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


def test_lambda_ref_is_lambda_at_minus_i_bitwise():
    """Over random 2D/3D windows, free alpha = pi among them, the reference
    coupling is lambda_at at -i, and the continuation from -i to itself
    subtracts exact conjugates: both are the bits of the reference formula
    on the diagonals at conj(-i) + m w."""
    rng = np.random.default_rng(23)
    for k in range(40):
        dim = int(rng.integers(2, 4))
        alpha = math.pi if k % 8 == 0 else float(rng.uniform(0.05, 2.0 * math.pi - 0.05))
        kp, rot = KreinParam(alpha), RotationSpec(float(rng.uniform(0.0, 20.0)))
        src = PointSource(float(rng.uniform(0.3, 2.0)), dim)
        m_max = int(rng.integers(0, 17))
        t = Truncation(m_max=m_max, l_max=m_max + int(rng.integers(0, 9)))
        want = 0.0
        if not kp.is_free:
            norm_sq = 0.0
            for m in range(-m_max, m_max + 1):
                norm_sq += channel_diag(dim, m, 1j + m * rot.omega, src, t).imag
            want = 1.0 / (2j * norm_sq / (1.0 + cmath.exp(1j * alpha)))
        assert lambda_ref(dim, kp, rot, src, t) == lambda_at(dim, -1j, kp, rot, src, t) == want


def test_lambda_ref_checks_the_source_before_the_free_shortcut():
    with pytest.raises(ValueError, match="PointSource lives in dimension 2, not 3"):
        lambda_ref(3, KreinParam(math.pi), RotationSpec(1.0), SRC2, T)


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
        hopped = lambda_via(dim, z, zmid, kp, rot, src, T)
        assert abs(direct - hopped) / abs(direct) < 1e-8


def _energies():
    """Spectral parameters off the real axis, in either half plane."""
    return st.builds(complex, st.floats(-5.0, 5.0),
                     st.floats(0.05, 3.0) | st.floats(-3.0, -0.05))


@settings(max_examples=60, deadline=None)
@given(
    dim=st.sampled_from([2, 3]),
    z=_energies(),
    w=_energies(),
    omega=st.floats(0.0, 20.0),
    alpha=st.floats(0.05, 2.0 * math.pi - 0.05).filter(lambda a: abs(a - math.pi) > 1e-3),
    y0=st.floats(0.3, 2.0),
    m_max=st.integers(0, 10),
    extra_l=st.integers(0, 8),
)
def test_lambda_via_any_parameter_is_the_direct_coupling(dim, z, w, omega, alpha, y0,
                                                         m_max, extra_l):
    """Path independence of the Krein continuation: continuing through any
    intermediate parameter w gives the coupling of the direct route, up to
    the roundoff of the channel sums."""
    t = Truncation(m_max=m_max, l_max=m_max + extra_l)
    kp, rot, src = KreinParam(alpha), RotationSpec(omega), PointSource(y0, dim)
    direct = lambda_at(dim, z, kp, rot, src, t)
    hopped = lambda_via(dim, z, w, kp, rot, src, t)
    inv_ref = 1.0 / lambda_ref(dim, kp, rot, src, t)
    scale = max(abs(1.0 / direct), abs(1.0 / hopped), abs(inv_ref))
    assert abs(1.0 / direct - 1.0 / hopped) <= 1e-12 * scale


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


def _points(dim):
    if dim == 2:
        return Point2(1.8, 0.4), Point2(0.5, 2.2)
    return Point3(1.8, 1.1, 0.4), Point3(0.5, 2.0, 2.2)


def _site(dim, src):
    """The interaction site as a point."""
    cls = ChannelIndex2 if dim == 2 else ChannelIndex3
    return (Point2 if dim == 2 else Point3)(src.y0, *cls.source_angles)


@pytest.mark.parametrize("z", [0.4 + 1.0j, -3.0 + 0.5j, 0.4 - 1.0j])
@pytest.mark.parametrize("dim", [2, 3])
def test_krein_kernel_is_its_three_sums_bitwise(dim, z):
    """The one kernel call of the three sums gives the bits of three
    rot_green calls, the right one at conj z."""
    kp, rot = KreinParam(1.7), RotationSpec(2.0)
    src = SRC2 if dim == 2 else SRC3
    x, xp = _points(dim)
    y0 = _site(dim, src)
    right = complex(np.conj(rot_green(dim, np.conj(z), rot, xp, y0, TK)))
    want = (rot_green(dim, z, rot, x, xp, TK)
            + lambda_at(dim, z, kp, rot, src, TK) * right * rot_green(dim, z, rot, x, y0, TK))
    assert krein_kernel(dim, z, kp, rot, x, xp, src, TK) == want


@pytest.mark.parametrize("dim", [2, 3])
def test_lambda_ref_is_the_norm_at_the_conjugate_reference(dim):
    """||G_ref||^2 = sum_m Im d_m(conj(-i) + m w), read off the diagonals at
    -i + m w, keeps its bits."""
    kp, rot = KreinParam(1.7), RotationSpec(2.5)
    src = SRC2 if dim == 2 else SRC3
    norm_sq = 0.0
    for m in range(-T.m_max, T.m_max + 1):
        norm_sq += channel_diag(dim, m, 1j + m * rot.omega, src, T).imag
    want = 1.0 / (2j * norm_sq / (1.0 + cmath.exp(1j * kp.alpha)))
    assert lambda_ref(dim, kp, rot, src, T) == want


@pytest.fixture
def bessel_elements(monkeypatch):
    """The scipy.special calls of _radial, counted (CountingSpecial): their
    .elements, the jv and hankel1 elements evaluated, are a cost that does
    not drift with the host's speed."""
    counter = CountingSpecial()
    monkeypatch.setattr(rotkrein._radial, "sp", counter)
    return counter


@pytest.mark.parametrize("dim,cap,channels,terms", [(3, 48, 2401, 1225), (2, 64, 129, 129)])
def test_krein_kernel_bessel_elements(bessel_elements, recurrence_arguments, dim, cap,
                                      channels, terms):
    """Each J and H factor once per order, energy and radius: the three sums
    take J at x' and y0 and H at x and y0 (x' < y0 < x) over the window's
    channels, and the coupling J and H at y0 over the source terms at z and
    at -i.  The free kernel takes two factors per channel.  In 2D these are
    the jv and hankel1 elements; 3D evaluates none, but takes each argument
    w r once per shell root and radius, whose one pass over the degrees
    serves every channel of the shell: the J and H counts are 4 per window
    shell (2 m_max + 1 of them; the coupling's source shells at z and at -i
    make the other 2 of each), and 1 each for the free kernel."""
    t = Truncation(cap, cap)
    src = PointSource(0.7, dim)
    x, xp = ((Point2(1.6, 0.4), Point2(0.2, 2.2)) if dim == 2
             else (Point3(1.6, 1.1, 0.4), Point3(0.2, 2.0, 2.2)))
    shells = 2 * cap + 1
    krein_kernel(dim, 0.4 + 1j, KreinParam(1.2), RotationSpec(7.0), x, xp, src, t)
    if dim == 2:
        assert bessel_elements.elements == 4 * channels + 2 * 2 * terms == 1032
    else:
        assert bessel_elements.elements == 0
        assert recurrence_arguments == [4 * shells, 4 * shells] == [388, 388]
    bessel_elements.elements = 0
    recurrence_arguments[:] = [0, 0]
    rot_green(dim, 0.4 + 1j, RotationSpec(7.0), x, xp, t)
    if dim == 2:
        assert bessel_elements.elements == 2 * channels
    else:
        assert (bessel_elements.elements, recurrence_arguments) == (0, [shells, shells])


def test_3d_kernels_make_no_bessel_call(monkeypatch):
    """A ratchet on the 3D route: rot_green, krein_kernel and
    separable_kernels take their factors from the degree recurrences, with
    no scipy jv or hankel1 call anywhere in the package (the harmonics'
    sph_harm_y_all is the one scipy call left)."""
    import rotkrein.specfun
    import scipy.special as sp

    called = []

    class Recorder:
        def __getattr__(self, name):
            called.append(name)
            return getattr(sp, name)

    for mod in (rotkrein._radial, rotkrein.specfun, rotkrein.rotframe, rotkrein.pointint):
        if hasattr(mod, "sp"):
            monkeypatch.setattr(mod, "sp", Recorder())
    t = Truncation(8, 8, tail_tol=math.inf)
    x, xp = Point3(1.6, 1.1, 0.4), Point3(0.2, 2.0, 2.2)
    rot_green(3, 0.4 + 1j, RotationSpec(7.0), x, xp, t)
    krein_kernel(3, 0.4 - 1j, KreinParam(1.2), RotationSpec(7.0), x, xp, SRC3, t)
    rotkrein._radial.separable_kernels(3, np.arange(12), [0.4 + 1j, -3.0] * 6,
                                       np.array([0.0, 0.3, 2.0])[:, None], [0.3, 5.0])
    assert not {"jv", "hankel1"} & set(called), called


def test_lambdas_take_two_shells_per_window_channel(monkeypatch, bessel_elements):
    """Each row of _lambdas_at takes the diagonals at z + m w and at the
    continuation's start + m w: 2 (2 m_max + 1) shells, and the reference
    norm no more."""
    shells = []
    diags = rotkrein.pointint._channel_diags

    def counted(cls, pairs, y0, l_max):
        shells.append(len(pairs))
        return diags(cls, pairs, y0, l_max)

    monkeypatch.setattr(rotkrein.pointint, "_channel_diags", counted)
    t = Truncation(10)
    rot = RotationSpec(3.0)
    rotkrein.pointint._lambdas_at(2, [0.4 + 1j, -2 + 0.5j, 3 - 1j], KreinParam(1.2),
                                  [rot] * 3, SRC2, t)
    assert shells == [3 * 2 * (2 * t.m_max + 1)]
    assert bessel_elements.elements == 2 * sum(shells)  # 2D: one order, J and H, per shell


# krein_kernel's first error where the free sum, the coupling and the left
# sum would each fail on their own: the free sum's checks come first, then
# the coupling's, then the checks of the left and right sums.  The messages
# are those of the three-call kernel.
ERROR_ORDER = {
    "free tail": (0.4 + 1j, 1.0, 3.0, (1.5, 1.45), 1.52, Truncation(8, 8), TruncationError,
                  {2: "channel window tail estimate 2.03 relative exceeds 1e-08; widen m_max",
                   3: "channel window tail estimate 2.36 relative exceeds 1e-08; widen m_max"}),
    "resonance": (-2.0 + 1e-300j, {2: 5.469901358171402, 3: 4.826613475429255}, 0.0,
                  (1.6, 0.2), 1.55, Truncation(10, 10), ResonanceError,
                  "coupling denominator vanished at z=(-2+1e-300j): interaction resonance"),
    "coupling overflow": (-1e6 + 1j, 1.0, 0.0, (2.0, 0.1), 1.9,
                          Truncation(6, 6, tail_tol=math.inf), OverflowError,
                          {d: f"{d}D radial kernel of order 6 at z=(-1000000+1j) is not finite "
                              "for radii in [1.9, 1.9]" for d in (2, 3)}),
    # The coupling's diagonals at z and at the reference both overflow: the
    # reference shells come first, at conj(-i) + m w.
    "reference overflow": (-2.375843978883995 - 3.959305117908858j, 4.886356521443098,
                           5.403115697228196, (0.5676137927449865, 113.16328463386382),
                           10339.846750642633, Truncation(1, 1), OverflowError,
                           {d: f"{d}D radial kernel of order 1 at z=(-5.403115697228196+1j) is "
                               "not finite for radii in [10339.8, 10339.8]" for d in (2, 3)}),
    # w r underflows at the left sum's H radius, but the free sum overflows
    # first.
    "free overflow": (complex(-0.0, 2.77705048e-315), 1.0, 0.0,
                      (1.4285515787970804e-178, 0.09835125377478554), 4.8736843122931845e-278,
                      Truncation(7, 7), OverflowError,
                      {d: f"{d}D radial kernel of order 7 at z=(-0+2.77705048e-315j) is not finite "
                          "for radii in [1.42855e-178, 0.0983513]" for d in (2, 3)}),
}


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("case", ERROR_ORDER.values(), ids=ERROR_ORDER)
def test_krein_kernel_error_order(dim, case):
    z, alpha, omega, (r, rp), y0, t, error, message = case
    alpha = alpha[dim] if isinstance(alpha, dict) else alpha
    message = message[dim] if isinstance(message, dict) else message
    if dim == 2:
        x, xp = Point2(r, 0.4), Point2(rp, 2.0)
    else:
        x, xp = Point3(r, 1.1, 0.4), Point3(rp, 1.3, 2.0)
    src = PointSource(y0, dim)
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        krein_kernel(dim, z, KreinParam(alpha), RotationSpec(omega), x, xp, src, t)
    # Where the left sum alone fails, it fails otherwise: the order is pinned.
    try:
        rot_green(dim, z, RotationSpec(omega), x, _site(dim, src), t)
    except (TruncationError, OverflowError, SingularArgumentError) as left:
        assert str(left) != message


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
    # Grids may start at the origin in both dimensions: each Bessel factor
    # of the kernels has its own r = 0 limit.
    origin = np.linspace(0.0, 8.0, 200)
    f3 = RadialChannelFunction(ChannelIndex3(1, 1), origin, origin * np.exp(-origin**2))
    assert f3.grid[0] == 0.0 and f3.norm_sq() > 0.0
    assert RadialChannelFunction(ChannelIndex2(1), origin, origin).grid[0] == 0.0
    assert f.norm_sq() > 0.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["values", "weights"])
@pytest.mark.parametrize("n", [3, 40])
def test_radial_channel_function_rejects_nonfinite_entries(field, bad, n):
    """A NaN or infinite value or weight is invalid input, named in the error;
    it never reaches a study row or radial_apply."""
    rg, wq = gauss_radial(n)
    parts = {"values": rg * np.exp(-(rg**2)) + 0j, "weights": wq.copy()}
    parts[field][n // 2] = bad
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        RadialChannelFunction(ChannelIndex2(1), rg, parts["values"], parts["weights"])


def test_radial_channel_function_rejects_an_infinite_radius():
    """An infinite last radius passes the increasing-grid check; it is
    invalid input too, not an OverflowError of radial_apply."""
    with pytest.raises(ValueError, match="grid must be finite"):
        RadialChannelFunction(ChannelIndex2(1), [0.5, 1.0, math.inf], [1.0, 1.0, 1.0])
