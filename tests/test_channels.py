"""The channel classes as the one statement of what differs between 2D and 3D.

Each fact is checked against an independent definition: explicit nested
loops for the enumerations, literal strings for the labels, quadrature over
the circle and the sphere for the angular factors.  The last test sends a
mismatched dimension through every public entry point that takes one.
"""

import cmath
import math

import numpy as np
import pytest
import scipy.special as sp

from rotkrein import (
    BladeParam,
    ChannelIndex2,
    ChannelIndex3,
    CircleParam,
    KreinParam,
    Point2,
    Point3,
    PointSource,
    RotationSpec,
    Truncation,
    apply_blade_resolvent,
    build_mesh,
    channel_diag,
    eps_scaling_study,
    gamma_matrix,
    krein_kernel,
    lambda_at,
    lambda_matrix,
    layer_fields,
    remainder_norm,
    rot_green,
    sph_harm,
)
from rotkrein.specfun import channel_class

from helpers import make_psi

WINDOWS = [(0, 0), (0, 3), (1, 1), (2, 5), (3, 3), (4, 6)]


@pytest.mark.parametrize("m_max,l_max", WINDOWS)
def test_window_matches_nested_loops(m_max, l_max):
    t = Truncation(m_max=m_max, l_max=l_max)
    want2 = [ChannelIndex2(n) for n in range(-m_max, m_max + 1)]
    want3 = []
    for m in range(-m_max, m_max + 1):
        for l in range(abs(m), l_max + 1):
            want3.append(ChannelIndex3(l, m))
    assert ChannelIndex2.window(t) == want2
    assert ChannelIndex3.window(t) == want3


@pytest.mark.parametrize("m_max,l_max", WINDOWS)
@pytest.mark.parametrize("cap", [0, 1, 2, 4, 7])
def test_cutoff_matches_nested_loops(cap, m_max, l_max):
    t = Truncation(m_max=m_max, l_max=l_max)
    cc = min(cap, m_max)
    want2 = [ChannelIndex2(n) for n in range(-cc, cc + 1)]
    want3 = []
    for l in range(cap + 1):
        for m in range(-l, l + 1):
            if abs(m) <= m_max:
                want3.append(ChannelIndex3(l, m))
    assert ChannelIndex2.cutoff(cap, t) == want2
    assert ChannelIndex3.cutoff(cap, t) == want3


def test_window_needs_l_max_in_3d():
    with pytest.raises(ValueError, match="l_max"):
        ChannelIndex3.window(Truncation(m_max=2))


def test_labels_are_exact():
    assert ChannelIndex2(1).label == "n=1"
    assert ChannelIndex2(-12).label == "n=-12"
    assert ChannelIndex3(1, 1).label == "l=1,m=1"
    assert ChannelIndex3(4, -3).label == "l=4,m=-3"
    assert ChannelIndex3(0, 0).label == "l=0,m=0"


def test_shift_order_dim_for_negative_indices():
    for n in (-5, -1, 0, 3):
        ch = ChannelIndex2(n)
        assert (ch.dim, ch.shift, ch.order) == (2, n, abs(n))
    for l, m in ((3, -2), (2, -2), (5, 4), (0, 0)):
        ch = ChannelIndex3(l, m)
        assert (ch.dim, ch.shift, ch.order) == (3, m, l)


def test_channels_stay_plain_hashable_keys():
    assert repr(ChannelIndex2(-2)) == "ChannelIndex2(n=-2)"
    assert repr(ChannelIndex3(2, -1)) == "ChannelIndex3(l=2, m=-1)"
    keys = {ChannelIndex2(1): "a", ChannelIndex3(1, 1): "b"}
    assert keys[ChannelIndex2(1)] == "a" and keys[ChannelIndex3(1, 1)] == "b"
    assert ChannelIndex2(1) != ChannelIndex3(1, 1)


def test_angular_factor_orthonormal_on_circle():
    # Gauss-Legendre on [0, 2 pi) integrates these trigonometric products to
    # roundoff at this node count.
    xg, wg = np.polynomial.legendre.leggauss(64)
    th, w = math.pi * (xg + 1.0), math.pi * wg
    chans = [ChannelIndex2(n) for n in (-3, -1, 0, 1, 2)]
    vals = np.array([[ch.angular(t) for t in th] for ch in chans])
    gram = (vals * w) @ vals.conj().T
    assert np.max(np.abs(gram - np.eye(len(chans)))) < 1e-12
    for ch, v in zip(chans, vals):
        assert v == pytest.approx(np.exp(1j * ch.n * th) / math.sqrt(2.0 * math.pi), rel=1e-12)


def test_angular_factor_orthonormal_on_sphere():
    # Gauss-Legendre in cos(theta) is exact for the associated Legendre
    # products; the azimuthal Gauss rule resolves exp(i (m - m') phi).
    xu, wu = np.polynomial.legendre.leggauss(24)
    xp, wp = np.polynomial.legendre.leggauss(48)
    phis, wphi = math.pi * (xp + 1.0), math.pi * wp
    thetas = np.arccos(xu)
    w = np.outer(wu, wphi).ravel()
    lms = ((0, 0), (1, -1), (1, 1), (2, 0), (3, -2), (3, 2))
    chans = [ChannelIndex3(l, m) for l, m in lms]
    vals = np.array(
        [[ch.angular(t, p) for t in thetas for p in phis] for ch in chans]
    )
    gram = (vals * w) @ vals.conj().T
    assert np.max(np.abs(gram - np.eye(len(chans)))) < 1e-12


def test_source_weight_is_harmonic_at_the_source():
    for n in (-2, 0, 5):
        ch = ChannelIndex2(n)
        h = ch.angular(*ch.source_angles)
        assert abs(h) ** 2 == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-15)
        assert ch.source_weight() == 1.0 / (2.0 * math.pi)
    for l, m in ((2, 0), (3, 1), (4, -2), (3, -3)):
        ch = ChannelIndex3(l, m)
        y = ch.angular(*ch.source_angles)
        assert ch.source_weight() == pytest.approx(abs(y) ** 2, abs=1e-15)


@pytest.mark.parametrize("m_max,l_max", WINDOWS)
def test_array_facts_match_the_channels(m_max, l_max):
    """Over a window, window_indices and harmonics give each channel's order,
    shift and harmonic (exp(i n theta)/sqrt(2 pi), sph_harm) bit for bit, and the
    source shells are the channels with a nonzero harmonic at the source,
    of weight |harmonic|^2 there."""
    t = Truncation(m_max=m_max, l_max=l_max)
    shifts = list(range(-m_max, m_max + 1))
    for cls, angles, ref in (
        (ChannelIndex2, (0.7,), lambda c: cmath.exp(1j * c.n * 0.7) / math.sqrt(2.0 * math.pi)),
        (ChannelIndex3, (0.7, -1.3), lambda c: sph_harm(c.l, c.m, 0.7, -1.3)),
    ):
        chans = cls.window(t)
        orders, shifts_w = cls.window_indices(t)
        assert list(zip(orders.tolist(), shifts_w.tolist())) == [(c.order, c.shift) for c in chans]
        assert cls.harmonics(orders, shifts_w, *angles).tolist() == [ref(c) for c in chans]
        live = [c for c in chans if abs(c.angular(*c.source_angles)) > 1e-8]
        o, w, k = cls.source_shells(shifts, l_max)
        assert o.tolist() == [c.order for c in live]
        assert k.tolist() == [sum(c.shift == m for c in live) for m in shifts]
        want = [abs(c.angular(*c.source_angles)) ** 2 for c in live]
        assert w == pytest.approx(want, rel=1e-12)
        assert w.tolist() == [c.source_weight() for c in live]


def _bits(a) -> bytes:
    return np.asarray(a, dtype=complex).tobytes()


@pytest.mark.parametrize("l_max,m_max", [(6, 3), (48, 48), (64, 20)])
def test_harmonics_equal_per_element_sph_harm_y_bitwise(l_max, m_max):
    """ChannelIndex3.harmonics reads every value off one sph_harm_y_all
    triangle per angle: the bits of sph_harm_y at each (l, m), at both
    poles, on the equator and at random angles, in the broadcast shapes of
    rot_green (two points against the window), of the blade's angular
    samples (channels against polar nodes) and of one channel."""
    rng = np.random.default_rng(l_max + m_max)
    orders, shifts = ChannelIndex3.window_indices(Truncation(m_max, l_max))
    thetas = np.concatenate([[0.0, math.pi, math.pi / 2], rng.uniform(0.0, math.pi, 5)])
    phis = np.concatenate([[0.0, 1.1, 0.0], rng.uniform(-math.pi, math.pi, 5)])
    for a, b in zip(range(len(thetas)), range(1, len(thetas))):
        th, ph = [[thetas[a]], [thetas[b]]], [[phis[a]], [phis[b]]]
        got = ChannelIndex3.harmonics(orders, shifts, th, ph)
        assert got.shape == (2, len(orders))
        assert _bits(got) == _bits(sp.sph_harm_y(orders, shifts, th, ph))
    o, m = orders[:, None], shifts[:, None]
    got = ChannelIndex3.harmonics(o, m, thetas, 0.0)
    assert got.shape == (len(orders), len(thetas))
    assert _bits(got) == _bits(sp.sph_harm_y(o, m, thetas, 0.0))
    for l, mm, th, ph in ((l_max, -m_max, 0.3, 2.0), (m_max, m_max, math.pi, 0.0)):
        assert _bits(ChannelIndex3(l, mm).angular(th, ph)) == _bits(sp.sph_harm_y(l, mm, th, ph))


def test_one_channel_angular_equals_harmonics_bitwise():
    """A 3D ch.angular (sph_harm, no triangle) gives the bits of the
    window's harmonics over a (6, 3) window, at both poles, on the equator
    and at random angles."""
    rng = np.random.default_rng(63)
    t = Truncation(m_max=3, l_max=6)
    orders, shifts = ChannelIndex3.window_indices(t)
    thetas = np.concatenate([[0.0, math.pi, math.pi / 2], rng.uniform(0.0, math.pi, 5)])
    phis = np.concatenate([[0.0, 2.5, -1.0], rng.uniform(-math.pi, math.pi, 5)])
    for th, ph in zip(thetas.tolist(), phis.tolist()):
        want = ChannelIndex3.harmonics(orders, shifts, th, ph)
        assert _bits([c.angular(th, ph) for c in ChannelIndex3.window(t)]) == _bits(want)


def test_empty_windows_have_empty_harmonics():
    """No orders give no harmonics (rot_green's and the blade's shapes), and
    a 3D boundary matrix without shifted channels still assembles."""
    none = np.array([], dtype=int)
    assert ChannelIndex3.harmonics(none, none, 0.3, 0.0).shape == (0,)
    assert ChannelIndex3.harmonics(none, none, [[0.1], [0.2]], [[0.0], [1.0]]).shape == (2, 0)
    assert ChannelIndex3.harmonics(none[:, None], none[:, None], [0.1, 0.2], 0.0).shape == (0, 2)
    gm = gamma_matrix(0.4 + 1j, BladeParam(1.0, 2.0, 3), RotationSpec(10.0),
                      Truncation(0, l_max=3), build_mesh(3, 1.0, 4))
    assert gm.entries.shape == (16, 16) and np.isfinite(gm.entries).all()


def test_circle_term_is_its_own_inverse():
    for g in (-2.0, 0.3, 1.7):
        assert ChannelIndex2.circle_term(g) == 1.0 / g
        assert ChannelIndex3.circle_term(g) == g
        for cls in (ChannelIndex2, ChannelIndex3):
            assert cls.circle_term(cls.circle_term(g)) == pytest.approx(g, rel=1e-15)
    assert ChannelIndex3.circle_term(0.0) == 0.0
    with pytest.raises(ValueError, match="gamma = 0 has no 2D channel coefficient"):
        ChannelIndex2.circle_term(0.0)
    # 1/gamma overflows below about 5.6e-309: no finite coefficient either.
    for g in (1e-320, -1e-309, 5e-324):
        with pytest.raises(ValueError, match="has no finite 2D channel coefficient"):
            ChannelIndex2.circle_term(g)
    assert ChannelIndex2.circle_term(1e-308) == 1.0 / 1e-308


@pytest.mark.parametrize("make", [
    lambda: ChannelIndex2(0.5),
    lambda: ChannelIndex2(1.0),
    lambda: ChannelIndex2("1"),
    lambda: ChannelIndex3(1.5, 0.5),
    lambda: ChannelIndex3(2, 0.5),
    lambda: ChannelIndex3(2.0, 1),
    lambda: ChannelIndex3(np.float64(1.0), 0),
], ids=["n=0.5", "n=1.0", "n='1'", "l=1.5,m=0.5", "m=0.5", "l=2.0", "l=float64"])
def test_non_integer_channel_index_is_rejected(make):
    with pytest.raises(ValueError, match="must be an integer"):
        make()


def test_numpy_integer_channel_index_is_accepted():
    assert ChannelIndex2(np.int64(-2)) == ChannelIndex2(-2)
    ch = ChannelIndex3(np.int32(3), np.int64(-1))
    assert ch == ChannelIndex3(3, -1)
    assert (ch.order, ch.shift) == (3, -1)


FLOAT_DIM = {
    "BladeParam": lambda: BladeParam(1.0, 2.0, 2.0),
    "PointSource": lambda: PointSource(0.7, 2.0),
    "CircleParam": lambda: CircleParam(1.0, 0.7, 2.0),
    "build_mesh": lambda: build_mesh(2.0, 1.0, 4),
}


@pytest.mark.parametrize("call", FLOAT_DIM.values(), ids=FLOAT_DIM)
def test_a_float_dimension_is_rejected(call):
    """dim = 2.0 compares equal to 2 but cannot index: a ValueError, not a
    TypeError from inside channel_class."""
    with pytest.raises(ValueError, match="dim must be an integer, got 2.0"):
        call()


def test_channel_class_lookup():
    assert channel_class(2) is ChannelIndex2
    parts = (Point3(1.0, 0.5, 0.5), ChannelIndex3(1, 0), PointSource(1.0, 3))
    assert channel_class(3, *parts) is ChannelIndex3
    for bad in (1, 4, 0):
        with pytest.raises(ValueError, match="dimension must be 2 or 3"):
            channel_class(bad)


Z = 0.4 + 1.0j
ROT = RotationSpec(3.0)
T2 = Truncation(m_max=2)
T3 = Truncation(m_max=2, l_max=2)
SRC2 = PointSource(0.7, 2)
SRC3 = PointSource(0.7, 3)
P2 = (Point2(1.2, 0.3), Point2(0.4, 2.0))
P3 = (Point3(1.2, 0.8, 0.3), Point3(0.4, 1.1, 2.0))


def _blade_3d_point2():
    mesh = build_mesh(3, 1.0, 4)
    bp = BladeParam(1.0, 2.0, 3)
    psi = make_psi(3, (1, 1), n=40)
    apply_blade_resolvent(Z, psi, bp, ROT, T3, mesh, [Point2(1.5, 0.3)])


MISMATCHES = {
    "rot_green 2D with 3D points": lambda: rot_green(2, Z, ROT, *P3, T2),
    "rot_green 3D with 2D points": lambda: rot_green(3, Z, ROT, *P2, T3),
    "lambda_at with a 3D source": lambda: lambda_at(
        2, Z, KreinParam(1.0), ROT, SRC3, T2
    ),
    "channel_diag with a 3D source": lambda: channel_diag(2, 1, Z, SRC3, T2),
    "channel_diag with a 2D source": lambda: channel_diag(3, 1, Z, SRC2, T3),
    "remainder_norm with a 3D source": lambda: remainder_norm(
        2, 0, Z, ROT, SRC3, T2
    ),
    "eps_scaling_study with a 3D source": lambda: eps_scaling_study(
        2, 1.0, [1e-2, 1e-1], ROT, SRC3, T2
    ),
    "krein_kernel with a 3D source": lambda: krein_kernel(
        2, Z, KreinParam(1.0), ROT, *P2, SRC3, T2
    ),
    "apply_blade_resolvent 3D with 2D points": _blade_3d_point2,
    "layer_fields 2D mesh with 3D channels": lambda: layer_fields(
        Z, np.ones(16), ROT, build_mesh(2, 1.0, 2), np.array([0.5]),
        [ChannelIndex3(1, 0)],
    ),
    "lambda_matrix 2D channel on a 3D mesh": lambda: lambda_matrix(
        Z, ChannelIndex2(1), BladeParam(1.0, 2.0, 2), build_mesh(3, 1.0, 4), t=T3
    ),
}


@pytest.mark.parametrize("call", list(MISMATCHES.values()), ids=list(MISMATCHES))
def test_dimension_mismatch_raises_value_error(call):
    with pytest.raises(ValueError, match="lives in dimension"):
        call()
