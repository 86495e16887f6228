"""Acceptance suite: one test per release criterion, tolerances as stated.

Each test name carries its criterion number.  Frozen study configurations
(channels, couplings, source radii) were chosen once for clear convergence
margins and are asserted as properties, not as regression values.
"""

import json
import math
import time

import numpy as np
import pytest

from helpers import fd_averaged_solution, gauss_radial, make_psi
from oracles import quadrature_kernel_2d, quadrature_kernel_3d
from rotkrein import (
    BladeParam,
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
    averaged_resolvent,
    build_mesh,
    gamma_matrix,
    gamma_matrix_cutoff,
    lambda_at,
    rot_green,
    solve_density,
)
from rotkrein.blade import layer_fields
from rotkrein.circleint import CircleParam, gamma_coeff_2d, gamma_from_alpha
from rotkrein.cli import _psi_profile, format_complex, main
from rotkrein.greens import radial_kernel_2d, radial_kernel_3d
from rotkrein.limits import (
    blade_convergence_study,
    eps_scaling_study,
    point_convergence_study,
)
from rotkrein.pointint import lambda_ref
from rotkrein.rotframe import rot_norm_sq
from rotkrein.specfun import (
    bessel_j,
    hankel1,
    sph_bessel_j,
    sph_hankel1,
    sqrt_upper,
)

Z = 0.4 + 1.0j

# mpmath oracle (dps=30), frozen
SINH_1 = 1.1752011936438015
I0_1 = 1.2660658777520083
NEG_2I_PI_K0_1 = -0.26803248203398855j
ONE_MINUS_I0K0 = 0.46695532504373138


def test_criterion_01_special_function_suite():
    start = time.perf_counter()
    assert sph_bessel_j(0, 1j) == pytest.approx(SINH_1, rel=1e-10)
    assert bessel_j(0, 1j) == pytest.approx(I0_1, rel=1e-10)
    assert hankel1(0, 1j) == pytest.approx(NEG_2I_PI_K0_1, rel=1e-10)
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = complex(rng.uniform(0.2, 3.0), rng.uniform(-1.0, 1.0))
        n = int(rng.integers(0, 6))
        wr = bessel_j(n, x) * hankel1(n + 1, x) - bessel_j(n + 1, x) * hankel1(n, x)
        assert wr == pytest.approx(-2j / (math.pi * x), rel=1e-10)
        l = int(rng.integers(0, 6))
        ws = sph_bessel_j(l, x) * sph_hankel1(l + 1, x) - sph_bessel_j(
            l + 1, x
        ) * sph_hankel1(l, x)
        assert ws == pytest.approx(-1j / x**2, rel=1e-10)
    assert time.perf_counter() - start < 5.0


def test_criterion_02_dual_path_kernel_equality():
    start = time.perf_counter()
    rng = np.random.default_rng(2)
    for k in range(50):
        dim = 2 if k % 2 == 0 else 3
        z = complex(rng.uniform(-3.0, 3.0), rng.uniform(0.2, 2.0))
        r, rp = rng.uniform(0.3, 2.5), rng.uniform(0.3, 2.5)
        if dim == 2:
            n = int(rng.integers(-6, 7))
            a = radial_kernel_2d(n, z, r, rp)
            b = quadrature_kernel_2d(n, z, r, rp)
        else:
            l = int(rng.integers(0, 9))
            a = radial_kernel_3d(l, z, r, rp)
            b = quadrature_kernel_3d(l, z, r, rp)
        assert b == pytest.approx(a, rel=1e-6)
    assert time.perf_counter() - start < 30.0


def _chord_2d(x: Point2, xp: Point2) -> float:
    return math.sqrt(
        x.r**2 + xp.r**2 - 2.0 * x.r * xp.r * math.cos(x.theta - xp.theta)
    )


def _chord_3d(x: Point3, xp: Point3) -> float:
    c = math.cos(x.theta) * math.cos(xp.theta) + math.sin(x.theta) * math.sin(
        xp.theta
    ) * math.cos(x.phi - xp.phi)
    return math.sqrt(x.r**2 + xp.r**2 - 2.0 * x.r * xp.r * c)


def test_criterion_03_free_green_resummation():
    start = time.perf_counter()
    t = Truncation(64, l_max=64)
    still = RotationSpec(0.0)
    w = sqrt_upper(Z)
    pairs2 = [
        (Point2(1.0, 0.3), Point2(0.6, 1.4)),
        (Point2(1.5, 2.0), Point2(0.9, 0.2)),
        (Point2(0.8, 4.0), Point2(1.1, 4.3)),
    ]
    for x, xp in pairs2:
        d = _chord_2d(x, xp)
        assert d >= 0.3
        want = 0.25j * hankel1(0, w * d)
        got = rot_green(2, Z, still, x, xp, t)
        assert got == pytest.approx(want, rel=1e-6)
    pairs3 = [
        (Point3(1.0, 0.9, 0.3), Point3(0.7, 1.8, 2.1)),
        (Point3(1.4, 1.2, 0.0), Point3(1.1, 1.5, 0.4)),
        (Point3(0.6, 0.5, 1.0), Point3(1.3, 2.2, 4.0)),
    ]
    for x, xp in pairs3:
        d = _chord_3d(x, xp)
        assert d >= 0.3
        want = np.exp(1j * w * d) / (4.0 * math.pi * d)
        got = rot_green(3, Z, still, x, xp, t)
        assert got == pytest.approx(want, rel=1e-6)
    assert time.perf_counter() - start < 60.0


def test_criterion_04_norm_law_and_eps_scaling():
    start = time.perf_counter()
    t = Truncation(64, l_max=64)
    src = PointSource(1.0, 3)
    still = RotationSpec(0.0)
    for z in (Z, -1.0 + 0.5j):
        got = rot_norm_sq(3, z, still, src, t)
        want = 1.0 / (8.0 * math.pi * sqrt_upper(z).imag)
        assert got == pytest.approx(want, rel=1e-6)
    tab = eps_scaling_study(
        3, 1.0, np.geomspace(1e-3, 1e-1, 7), still, src, t
    )
    assert tab.params["slope"] == pytest.approx(-1.0, abs=0.05)
    assert time.perf_counter() - start < 60.0


def test_criterion_05_krein_structure():
    start = time.perf_counter()
    free = KreinParam(math.pi)
    t = Truncation(16, l_max=16)
    src2, src3 = PointSource(1.0, 2), PointSource(1.0, 3)
    rot = RotationSpec(2.0)
    assert lambda_at(2, -1j, free, rot, src2, t) == 0.0
    assert lambda_at(3, -1j, free, rot, src3, t) == 0.0
    assert lambda_ref(2, free, rot, src2, t) == 0.0

    rng = np.random.default_rng(5)
    for _ in range(4):
        dim = int(rng.integers(2, 4))
        src = src2 if dim == 2 else src3
        z = complex(rng.uniform(-2.0, 2.0), rng.uniform(0.3, 2.0))
        via = complex(rng.uniform(-2.0, 2.0), rng.uniform(0.3, 2.0))
        kp = KreinParam(float(rng.uniform(0.5, 2.5)))
        direct = lambda_at(dim, z, kp, rot, src, t)
        hopped = lambda_at(dim, z, kp, rot, src, t, via=via)
        assert abs(direct - hopped) / abs(direct) < 1e-8

    # applied-domain identity on two single-channel inputs, one per dimension:
    # for chi = r exp(-r^2) in the input channel, eta = (K - z)chi comes back
    # as chi plus the coupling correction with coefficient lambda * overlap
    zeta, om = 0.3 + 0.8j, 2.0
    kp = KreinParam(1.3)
    rot = RotationSpec(om)
    rg, wq = gauss_radial(200)
    chi = rg * np.exp(-(rg**2))

    eta2 = np.exp(-(rg**2)) * (8 * rg - 4 * rg**3) - (zeta + om) * chi
    psi2 = RadialChannelFunction(ChannelIndex2(1), rg, eta2, wq)
    free_part, coef = apply_krein_resolvent(2, psi2, zeta + om, kp, rot, src2, t)
    assert np.max(np.abs(free_part.values - chi)) / np.max(np.abs(chi)) < 1e-5
    lam2 = lambda_at(2, zeta, kp, rot, src2, t)
    proj2 = np.exp(1j * math.pi / 2) / math.sqrt(2 * math.pi)
    want = lam2 * math.exp(-1.0) * proj2
    assert abs(coef - want) / abs(want) < 1e-5

    t3 = Truncation(24, l_max=24)
    eta3 = np.exp(-(rg**2)) * (10 * rg - 4 * rg**3) - (zeta + om) * chi
    psi3 = RadialChannelFunction(ChannelIndex3(1, 1), rg, eta3, wq)
    free_part, coef = apply_krein_resolvent(3, psi3, zeta + om, kp, rot, src3, t3)
    assert np.max(np.abs(free_part.values - chi)) / np.max(np.abs(chi)) < 1e-5
    lam3 = lambda_at(3, zeta, kp, rot, src3, t3)
    proj3 = -math.sqrt(3.0 / (8.0 * math.pi))
    want = lam3 * math.exp(-1.0) * proj3
    assert abs(coef - want) / abs(want) < 1e-5
    assert time.perf_counter() - start < 120.0


def test_criterion_06_circle_coefficients():
    start = time.perf_counter()
    val = gamma_coeff_2d(0, CircleParam(1.0, 1.0, 2), -1.0 + 1e-8j)
    assert val.real == pytest.approx(ONE_MINUS_I0K0, rel=1e-5)
    assert abs(val.imag) < 1e-5
    for alpha in (0.4, 1.2, 2.2, 4.0, 5.5):
        for y0 in (0.5, 1.0, 1.9):
            for dim in (2, 3):
                gam = gamma_from_alpha(dim, alpha, y0)
                g = complex(gam)
                assert abs(g.imag) <= 1e-10 * abs(g.real)
    assert time.perf_counter() - start < 60.0


POINT_CONFIGS = [
    (2, ChannelIndex2(1), math.pi / 2, 0.720),
    (2, ChannelIndex2(1), 3 * math.pi / 4, 1.812),
    (2, ChannelIndex2(2), math.pi / 2, 0.832),
    (2, ChannelIndex2(2), 3 * math.pi / 4, 1.505),
    (3, ChannelIndex3(1, 1), math.pi / 2, 0.87),
    (3, ChannelIndex3(1, 1), 5 * math.pi / 6, 1.84),
    (3, ChannelIndex3(2, 2), math.pi / 2, 1.24),
    (3, ChannelIndex3(2, 2), 5 * math.pi / 6, 1.59),
]


def test_criterion_07_point_interaction_omega_limit():
    start = time.perf_counter()
    for dim, ch, alpha, y0 in POINT_CONFIGS:
        tab = point_convergence_study(
            dim, alpha, y0, Z, omegas=(10.0, 20.0, 40.0, 80.0, 160.0),
            psis=[make_psi(dim, ch)],
        )
        e = tab.column("error_norm")
        assert all(a > b for a, b in zip(e, e[1:])), (dim, ch, alpha)
        assert e[-1] <= e[0] / 4.0, (dim, ch, alpha)
    assert time.perf_counter() - start < 600.0


@pytest.fixture(scope="module")
def blade_psi():
    xg, wg = np.polynomial.legendre.leggauss(120)
    rg = 4.0 * (xg + 1.0)
    wq = 4.0 * wg
    vals = rg * np.exp(-(rg**2))
    return RadialChannelFunction(ChannelIndex2(1), rg, vals, wq)


@pytest.fixture(scope="module")
def blade_study_2d():
    return blade_convergence_study(
        2, BladeParam(1.0, 2.0, 2), Z, psis=[make_psi(2, ChannelIndex2(1))]
    )


@pytest.fixture(scope="module")
def blade_study_3d():
    return blade_convergence_study(
        3, BladeParam(1.0, 2.0, 3), Z, psis=[make_psi(3, ChannelIndex3(1, 1))]
    )


def test_criterion_08_blade_machinery(blade_psi, blade_study_2d, blade_study_3d):
    start = time.perf_counter()
    z_eff = Z - 10.0
    rot10 = RotationSpec(10.0)

    mesh2 = build_mesh(2, 1.0, 12)
    bp2 = BladeParam(1.0, 2.0, 2)
    assert mesh2.n_nodes <= 2500
    t8 = Truncation(8)
    full = gamma_matrix(z_eff, bp2, rot10, t8, mesh2).entries
    full_inv = np.linalg.inv(full)
    prev_e = prev_i = math.inf
    for cap in (1, 2, 4, 8):
        cut = gamma_matrix_cutoff(cap, z_eff, bp2, rot10, t8, mesh2).entries
        de = float(np.max(np.abs(cut - full)))
        di = float(np.linalg.norm(np.linalg.inv(cut) - full_inv, 2))
        assert de < prev_e and di < prev_i, cap
        prev_e, prev_i = de, di

    mesh3 = build_mesh(3, 1.0, 13)
    bp3 = BladeParam(1.0, 2.0, 3)
    assert mesh3.n_nodes <= 2500
    t36 = Truncation(3, l_max=6)
    full3 = gamma_matrix(z_eff, bp3, rot10, t36, mesh3).entries
    full3_inv = np.linalg.inv(full3)
    off = ~np.eye(mesh3.n_nodes, dtype=bool)
    prev_e = prev_i = math.inf
    for cap in (0, 2, 4, 6):
        cut = gamma_matrix_cutoff(cap, z_eff, bp3, rot10, t36, mesh3).entries
        de = float(np.max(np.abs((cut - full3)[off])))
        di = float(np.linalg.norm(np.linalg.inv(cut) - full3_inv, 2))
        assert de < prev_e and di < prev_i, cap
        prev_e, prev_i = de, di

    # mesh refinement: layer fields on successively refined meshes contract
    om = 40.0
    rot40 = RotationSpec(om)
    t3 = Truncation(3)
    z_rot = Z - om
    r_eval = np.linspace(0.1, 2.5, 25)
    win = [ChannelIndex2(n) for n in range(-3, 4)]
    fields = {}
    for npan in (6, 12, 24):
        m = build_mesh(2, 1.0, npan)
        phi = solve_density(z_rot, blade_psi, bp2, rot40, t3, m)
        F = layer_fields(z_rot, phi.values, rot40, m, r_eval, win)
        fields[npan] = np.concatenate([F[ch] for ch in win])
    d1 = float(np.linalg.norm(fields[12] - fields[6]))
    d2 = float(np.linalg.norm(fields[24] - fields[12]))
    assert d2 / d1 <= 0.6

    # full matrix at the channel-shifted parameter approaches the
    # single-channel model as the rotation speeds up
    gaps2 = blade_study_2d.column("kernel_gap")
    assert all(a > b for a, b in zip(gaps2, gaps2[1:]))
    assert gaps2[0] / gaps2[-1] >= 4.0
    gaps3 = blade_study_3d.column("kernel_gap")
    assert all(a > b for a, b in zip(gaps3, gaps3[1:]))
    assert time.perf_counter() - start < 600.0


def test_criterion_09_blade_omega_limit(blade_study_2d, blade_study_3d):
    start = time.perf_counter()
    for tab in (blade_study_2d, blade_study_3d):
        e = tab.column("error_norm")
        assert all(a > b for a, b in zip(e, e[1:]))
        assert e[0] / e[-1] >= 4.0

    for dim, ch, tol in ((2, ChannelIndex2(1), 1e-4), (3, ChannelIndex3(1, 1), 1e-4)):
        r_fd, u_fd = fd_averaged_solution(dim, Z, 1, 2.0, 1.0)
        psi = RadialChannelFunction(ch, r_fd, r_fd * np.exp(-(r_fd**2)), None)
        averaged = averaged_resolvent(dim, Z, BladeParam(1.0, 2.0, dim), psi)
        rel = float(
            np.linalg.norm(averaged.values - u_fd) / np.linalg.norm(u_fd)
        )
        assert rel < tol, dim
    assert time.perf_counter() - start < 600.0


STUDY_INI = """\
[study]
kind = point_convergence
dim = 2

[parameters]
z = 0.4+1i
alpha = 1.5707963267948966
y0 = 0.72
channels = 1

[sweep]
omegas = 10,20

[psi]
grid_points = 80
r_max = 8.0

[output]
csv = {csv}
manifest = {mani}
"""


def test_criterion_10_determinism_and_cli_parity(tmp_path, capsys):
    csv_a, csv_b = tmp_path / "a.csv", tmp_path / "b.csv"
    for tag, csv in (("a", csv_a), ("b", csv_b)):
        cfg = tmp_path / f"{tag}.ini"
        cfg.write_text(STUDY_INI.format(csv=csv, mani=tmp_path / f"{tag}.mani"))
        assert main(["study", str(cfg)]) == 0
    capsys.readouterr()
    assert csv_a.read_bytes() == csv_b.read_bytes()
    mani = json.loads((tmp_path / "a.mani").read_text())
    assert mani["failures"] == []

    # CSV rows reproduce the library study values exactly
    psis = _psi_profile(2, [ChannelIndex2(1)], 80, 8.0)
    tab = point_convergence_study(
        2, 1.5707963267948966, 0.72, Z, [10.0, 20.0], psis
    )
    got = [float(line.split(",")[2]) for line in csv_a.read_text().splitlines()[1:]]
    assert got == [float(f"{v:.12e}") for v in tab.column("error_norm")]

    # kernel subcommand prints exactly the library value
    code = main(
        ["kernel", "--dim", "2", "--z", "0.4+1i", "--omega", "6.0",
         "--point", "1.8,0.4", "--source", "0.5,2.2", "--m-max", "32"]
    )
    out = capsys.readouterr().out
    assert code == 0
    want = rot_green(
        2, Z, RotationSpec(6.0), Point2(1.8, 0.4), Point2(0.5, 2.2), Truncation(32)
    )
    assert f"kernel = {format_complex(want)}" in out
