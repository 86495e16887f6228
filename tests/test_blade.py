"""Blade mesh, boundary matrices, form probe, and the averaged solver."""

import math

import numpy as np
import pytest
import scipy.special as sp

from helpers import fd_averaged_solution, make_psi
from rotkrein._radial import radial_apply
from rotkrein.blade import (
    BladeMesh,
    BladeParam,
    apply_blade_resolvent,
    averaged_resolvent,
    build_mesh,
    form_probe,
    gamma_matrix,
    gamma_matrix_cutoff,
    lambda_matrix,
    solve_density,
    weighted_norm,
)
from rotkrein.greens import Point2, Point3
from rotkrein.rotframe import RotationSpec, Truncation
from rotkrein.specfun import ChannelIndex2, ChannelIndex3

Z = 0.4 + 1.0j


def test_mesh_weight_sums_are_exact():
    m2 = build_mesh(2, 1.3, 9)
    assert m2.n_nodes == 9 * 8
    assert np.sum(m2.w) == pytest.approx(1.3**2 / 2.0, rel=1e-14)
    m3 = build_mesh(3, 0.8, 7)
    assert m3.n_nodes == 49
    assert np.sum(m3.w) == pytest.approx(2.0 * 0.8**3 / 3.0, rel=1e-14)
    assert np.all((m3.theta() > 0.0) & (m3.theta() < math.pi))


def test_mesh_validation():
    with pytest.raises(ValueError):
        build_mesh(4, 1.0, 6)
    with pytest.raises(ValueError):
        build_mesh(2, 1.0, 1)
    with pytest.raises(ValueError):
        build_mesh(2, -1.0, 6)
    m2 = build_mesh(2, 1.0, 4)
    with pytest.raises(ValueError):
        m2.theta()
    with pytest.raises(ValueError):
        BladeMesh(dim=2, A=1.0, r=m2.r, w=2.0 * m2.w)


def test_blade_param_validation():
    with pytest.raises(ValueError):
        BladeParam(-1.0, 2.0, 2)
    with pytest.raises(ValueError):
        BladeParam(1.0, 2.0, 5)
    with pytest.raises(ValueError):
        BladeParam(1.0, math.inf, 2)
    bp = BladeParam(1.0, lambda r: 1.0 - r, 2)
    with pytest.raises(ValueError):
        bp.inverse_strength(np.array([0.5, 1.0]))
    bad = BladeParam(1.0, lambda r: np.full_like(r, np.nan), 2)
    with pytest.raises(ValueError):
        bad.alpha_values(np.array([0.5]))


def test_dense_budget_rejected():
    mesh = build_mesh(3, 1.0, 51)
    bp = BladeParam(1.0, 2.0, 3)
    with pytest.raises(ValueError, match="dense budget"):
        gamma_matrix(Z, bp, RotationSpec(4.0), Truncation(3, l_max=6), mesh)


def test_matrix_variants_and_validation():
    mesh2 = build_mesh(2, 1.0, 4)
    mesh3 = build_mesh(3, 1.0, 5)
    bp2 = BladeParam(1.0, 2.0, 2)
    bp3 = BladeParam(1.0, 2.0, 3)
    rot = RotationSpec(6.0)
    t2, t3 = Truncation(3), Truncation(3, l_max=5)
    gm = gamma_matrix(Z, bp2, rot, t2, mesh2)
    assert gm.variant == "full" and gm.z == Z
    assert gamma_matrix_cutoff(3, Z, bp2, rot, t2, mesh2).variant == "cutoff:3"
    assert lambda_matrix(Z, ChannelIndex2(1), bp2, mesh2).variant == "lambda:n0=1"
    lm3 = lambda_matrix(Z, ChannelIndex3(1, 1), bp3, mesh3, t=t3)
    assert lm3.variant == "lambda:m0=1"
    with pytest.raises(ValueError):
        lambda_matrix(Z, ChannelIndex3(1, 1), bp3, mesh3)
    with pytest.raises(ValueError):
        lambda_matrix(Z, ChannelIndex2(1), bp3, mesh3)
    with pytest.raises(ValueError):
        gamma_matrix_cutoff(-1, Z, bp2, rot, t2, mesh2)
    with pytest.raises(ValueError):
        gamma_matrix(Z, bp3, rot, t2, mesh2)
    with pytest.raises(ValueError):
        gamma_matrix(1.5 + 0.0j, bp2, rot, t2, mesh2)


def test_zero_strength_rejected_by_boundary_matrices():
    mesh = build_mesh(2, 1.0, 4)
    bp = BladeParam(1.0, 0.0, 2)
    with pytest.raises(ValueError):
        gamma_matrix(Z, bp, RotationSpec(6.0), Truncation(3), mesh)


def test_cutoff_matrices_approach_full_2d():
    mesh = build_mesh(2, 1.0, 6)
    bp = BladeParam(1.0, 2.0, 2)
    rot = RotationSpec(6.0)
    t = Truncation(8)
    full = gamma_matrix(Z, bp, rot, t, mesh).entries
    ent, inv = [], []
    for cap in (1, 2, 4):
        cut = gamma_matrix_cutoff(cap, Z, bp, rot, t, mesh).entries
        ent.append(np.max(np.abs(cut - full)))
        inv.append(weighted_norm(mesh, np.linalg.inv(cut) - np.linalg.inv(full)))
    assert ent[0] > ent[1] > ent[2]
    assert inv[0] > inv[1] > inv[2]


def test_cutoff_matrices_approach_full_3d():
    mesh = build_mesh(3, 1.0, 7)
    bp = BladeParam(1.0, 2.0, 3)
    rot = RotationSpec(6.0)
    t = Truncation(3, l_max=6)
    full = gamma_matrix(Z, bp, rot, t, mesh).entries
    off = ~np.eye(mesh.n_nodes, dtype=bool)
    ent, inv = [], []
    for cap in (0, 2, 4):
        cut = gamma_matrix_cutoff(cap, Z, bp, rot, t, mesh).entries
        ent.append(np.max(np.abs((cut - full)[off])))
        inv.append(weighted_norm(mesh, np.linalg.inv(cut) - np.linalg.inv(full)))
    assert ent[0] > ent[1] > ent[2]
    assert inv[0] > inv[1] > inv[2]


def test_form_probe_positive_at_negative_energy():
    mesh = build_mesh(2, 1.0, 5)
    bp = BladeParam(1.0, 2.0, 2)
    rot = RotationSpec(6.0)
    t = Truncation(3)
    z = -30.0 + 0.5j
    rng = np.random.default_rng(3)
    for _ in range(2):
        xi = rng.standard_normal(mesh.n_nodes) + 1j * rng.standard_normal(mesh.n_nodes)
        xi /= math.sqrt(float(np.sum(mesh.w * np.abs(xi) ** 2)))
        res = form_probe(z, xi, bp, 2, rot, t, mesh)
        assert res.probe > 0.0
        assert res.ineq_lhs is None
    psi = make_psi(2, ChannelIndex2(1), n=120)
    res = form_probe(z, xi, bp, 2, rot, t, mesh, psi=psi)
    assert res.ineq_lhs is not None and res.ineq_lhs > 0.0
    with pytest.raises(ValueError):
        form_probe(z, xi[:-1], bp, 2, rot, t, mesh)


def test_solve_density_matrix_reuse():
    mesh = build_mesh(2, 1.0, 5)
    bp = BladeParam(1.0, 2.0, 2)
    rot = RotationSpec(8.0)
    t = Truncation(3)
    psi = make_psi(2, ChannelIndex2(1), n=120)
    z_rot = Z - rot.omega
    gm = gamma_matrix(z_rot, bp, rot, t, mesh)
    phi_pre = solve_density(z_rot, psi, bp, rot, t, mesh, gm=gm).values
    phi = solve_density(z_rot, psi, bp, rot, t, mesh).values
    np.testing.assert_array_equal(phi_pre, phi)
    with pytest.raises(ValueError):
        solve_density(Z, psi, bp, rot, t, mesh, gm=gm)
    with pytest.raises(ValueError):
        solve_density(z_rot, make_psi(3, ChannelIndex3(1, 1)), bp, rot, t, mesh)


def test_averaged_resolvent_zero_strength_is_free():
    psi = make_psi(2, ChannelIndex2(1))
    bp = BladeParam(1.0, 0.0, 2)
    out = averaged_resolvent(2, Z, bp, psi)
    free = radial_apply(2, 1, Z, psi.grid, psi.interpolant(), rmax=float(psi.grid[-1]))
    np.testing.assert_array_equal(out.values, free)


def test_averaged_resolvent_validation():
    psi = make_psi(2, ChannelIndex2(1))
    bp = BladeParam(1.0, 2.0, 2)
    with pytest.raises(ValueError):
        averaged_resolvent(3, Z, BladeParam(1.0, 2.0, 3), psi)
    with pytest.raises(ValueError):
        averaged_resolvent(2, 1.5 + 0.0j, bp, psi)


@pytest.mark.parametrize(
    "dim,channel,tol",
    [(2, ChannelIndex2(1), 5e-5), (3, ChannelIndex3(1, 1), 2e-4)],
)
def test_averaged_resolvent_matches_difference_oracle(dim, channel, tol):
    psi = make_psi(dim, channel)
    bp = BladeParam(1.0, 2.0, dim)
    out = averaged_resolvent(dim, Z, bp, psi)
    r_fd, u_fd = fd_averaged_solution(dim, Z, psi.order, 2.0, 1.0)
    u_on_grid = np.interp(psi.grid, r_fd, u_fd.real) + 1j * np.interp(
        psi.grid, r_fd, u_fd.imag
    )
    wr = psi.quad_weights() * psi.grid ** (dim - 1)
    rel = math.sqrt(
        float(np.sum(wr * np.abs(out.values - u_on_grid) ** 2))
        / float(np.sum(wr * np.abs(u_on_grid) ** 2))
    )
    assert rel < tol


@pytest.mark.parametrize("dim", [2, 3])
def test_apply_blade_resolvent_weak_blade_tends_to_free_field(dim):
    """As the strength goes to zero the layer term vanishes linearly."""
    rot = RotationSpec(5.0)
    if dim == 2:
        ch, t, mesh = ChannelIndex2(1), Truncation(3), build_mesh(2, 1.0, 4)
        pts = [Point2(r, th) for r, th in ((0.5, 0.3), (1.5, 1.2), (2.5, 2.0))]
    else:
        ch, t, mesh = ChannelIndex3(1, 1), Truncation(2, l_max=3), build_mesh(3, 1.0, 5)
        pts = [Point3(r, th, ph) for r, th, ph in ((0.5, 0.3, 0.1), (1.5, 1.2, 2.0),
                                                    (2.5, 2.0, 4.0))]
    psi = make_psi(dim, ch, n=120)
    m0 = ch.n if dim == 2 else ch.m
    r_pts = np.array([p.r for p in pts])
    radial = radial_apply(dim, psi.order, Z + m0 * rot.omega, r_pts, psi.interpolant(),
                          rmax=float(psi.grid[-1]))
    if dim == 2:
        angular = np.array([np.exp(1j * ch.n * p.theta) / math.sqrt(2.0 * math.pi)
                            for p in pts])
    else:
        angular = np.array(
            [complex(sp.sph_harm_y(ch.l, ch.m, p.theta, p.phi)) for p in pts]
        )
    free = radial * angular
    gaps = []
    for strength in (1e-3, 1e-6):
        bp = BladeParam(1.0, strength, dim)
        out = apply_blade_resolvent(Z, psi, bp, rot, t, mesh, pts)
        gaps.append(float(np.max(np.abs(out - free))))
    scale = float(np.max(np.abs(free)))
    assert gaps[1] < 1e-5 * scale
    assert gaps[1] / gaps[0] == pytest.approx(1e-3, rel=0.05)
