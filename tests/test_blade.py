"""Blade mesh, boundary matrices, form probe, and the averaged solver."""

import math

import numpy as np
import pytest
import scipy.special as sp

import rotkrein._radial
import rotkrein.blade as blade_mod
from helpers import CountingSpecial, fd_averaged_solution, make_psi
from rotkrein._radial import radial_apply, separable_kernels
from rotkrein.blade import (
    BladeMesh,
    BladeParam,
    MeshCellError,
    apply_blade_resolvent,
    averaged_resolvent,
    build_mesh,
    form_probe,
    gamma_matrix,
    gamma_matrix_cutoff,
    lambda_matrix,
    layer_fields,
    solve_density,
    weighted_norm,
)
from rotkrein.greens import Point2, Point3
from rotkrein.limits import blade_convergence_study
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
    # Non-integer sizes are rejected up front, not in a linspace/leggauss traceback.
    for dim, res in ((2, 2.5), (3, 3.0)):
        with pytest.raises(ValueError, match="resolution must be an integer"):
            build_mesh(dim, 1.0, res)
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
    with pytest.raises(ValueError, match="cap must be an integer"):
        gamma_matrix_cutoff(1.5, Z, bp2, rot, t2, mesh2)
    # |m0| > l_max leaves no degrees: an empty channel sum, not diag(1/alpha).
    with pytest.raises(ValueError, match="below channel order"):
        lambda_matrix(Z, ChannelIndex3(5, 5), bp3, mesh3, t=Truncation(2, l_max=3))
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
    free = radial_apply(psi, Z, psi.grid)
    np.testing.assert_array_equal(out.values, free)


def test_averaged_resolvent_validation():
    psi = make_psi(2, ChannelIndex2(1))
    bp = BladeParam(1.0, 2.0, 2)
    with pytest.raises(ValueError):
        averaged_resolvent(3, Z, BladeParam(1.0, 2.0, 3), psi)
    psi3 = make_psi(3, ChannelIndex3(1, 1))
    # the one energy check: the essential spectrum and nonfinite energies
    for dim, p in ((2, psi), (3, psi3)):
        for z in (1.5 + 0.0j, 2.0):
            with pytest.raises(ValueError, match="essential spectrum"):
                averaged_resolvent(dim, z, BladeParam(1.0, 2.0, dim), p)
        for z in (complex(math.nan, 1.0), complex(0.4, math.inf)):
            with pytest.raises(ValueError, match="nonfinite spectral parameter"):
                averaged_resolvent(dim, z, BladeParam(1.0, 2.0, dim), p)
    with pytest.raises(ValueError, match="resolution"):
        averaged_resolvent(2, Z, bp, psi, resolution=0)
    with pytest.raises(ValueError, match="resolution"):
        averaged_resolvent(3, Z, BladeParam(1.0, 2.0, 3), psi3, resolution=0)
    with pytest.raises(ValueError, match="resolution must be an integer"):
        averaged_resolvent(2, Z, bp, psi, resolution=2.5)
    with pytest.raises(ValueError, match="resolution must be an integer"):
        blade_convergence_study(2, bp, Z, psis=[psi], resolution=2.5)


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
    radial = radial_apply(psi, Z + m0 * rot.omega, r_pts)
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


@pytest.mark.parametrize("dim", [2, 3])
def test_layer_fields_density_length_must_match_the_mesh(dim):
    mesh = build_mesh(dim, 1.0, 4)
    chans = [ChannelIndex2(1)] if dim == 2 else [ChannelIndex3(1, 1)]
    with pytest.raises(ValueError, match="density length must match the mesh"):
        layer_fields(Z, np.ones(mesh.n_nodes - 1), RotationSpec(6.0), mesh,
                     np.array([0.5, 1.5]), chans)


# -- the 3D assembly on radial blocks against per-cell and per-channel oracles --


def _quad_q_scalar(p, q):
    if p <= 0.0 or q <= 0.0:
        return 0.0
    return p * math.asinh(q / p) + q * math.asinh(p / q)


def free_cell_scalar(z, r_i, th_i, ar, br, ua, ub):
    """The free-kernel integral over one (r, u) cell, one cell per call: the
    tangent-plane rectangle in closed form plus an 8 x 8 product Gauss rule
    for the regular remainder."""
    wz = complex(np.sqrt(complex(z)))
    wz = wz if wz.imag >= 0.0 else -wz
    s_lo = r_i * (math.acos(ub) - th_i)
    s_hi = r_i * (math.acos(ua) - th_i)
    x0, x1 = ar - r_i, br - r_i
    rect = (_quad_q_scalar(-x0, -s_lo) + _quad_q_scalar(x1, -s_lo)
            + _quad_q_scalar(-x0, s_hi) + _quad_q_scalar(x1, s_hi))
    sing = (r_i * math.sin(th_i) / (4.0 * math.pi)) * rect
    xg, wg = np.polynomial.legendre.leggauss(8)
    rr = 0.5 * (br + ar) + 0.5 * (br - ar) * xg
    uu = 0.5 * (ub + ua) + 0.5 * (ub - ua) * xg
    rp, up = np.meshgrid(rr, uu, indexing="ij")
    wc = np.outer(wg * 0.5 * (br - ar), wg * 0.5 * (ub - ua))
    d = np.sqrt(np.maximum(r_i**2 + rp**2 - 2.0 * r_i * rp * np.cos(th_i - np.arccos(up)), 0.0))
    vals = (np.exp(1j * wz * d) - 1.0) / (4.0 * math.pi * d)
    return complex(sing + np.sum(wc * vals * rp**2))


def _edges(x, lo, hi):
    return np.concatenate([[lo], 0.5 * (x[:-1] + x[1:]), [hi]])


def free_cells_scalar(z, mesh):
    redges = _edges(mesh.r_1d, 0.0, mesh.A)
    uedges = _edges(mesh.u_1d, -1.0, 1.0)
    n_u = len(mesh.u_1d)
    th = mesh.theta()
    out = []
    for i in range(mesh.n_nodes):
        ir, iu = divmod(i, n_u)
        out.append(free_cell_scalar(z, mesh.r[i], th[i], redges[ir], redges[ir + 1],
                                    uedges[iu], uedges[iu + 1]))
    return np.array(out)


def outer_sum(mesh, terms, r_rows=None):
    """sum of sign * g_l(energy; r, r') * Y_l^m(u) Y_l^m(u') over the terms
    (l, m, energy, sign), one full mesh-by-mesh array per term (rows: the
    mesh nodes, or r_rows with the angular factor left to the caller)."""
    r1 = mesh.r_1d
    idx = np.repeat(np.arange(len(r1)), len(mesh.u_1d))
    rows = r1 if r_rows is None else r_rows
    K = 0.0
    for l, m, energy, sign in terms:
        y = np.tile(np.real(sp.sph_harm_y(l, m, np.arccos(mesh.u_1d), 0.0)), len(r1))
        g = separable_kernels(3, l, energy, rows[:, None], r1[None, :])[:, idx]
        if r_rows is None:
            K = K + sign * g[idx, :] * np.outer(y, y)
        else:
            K = K + sign * g * y[None, :]
    return K


def assert_close(got, want, rtol):
    assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


@pytest.mark.parametrize("res,A", [(4, 1.0), (7, 2.5), (13, 1.0)])
@pytest.mark.parametrize("z", [0.4 + 1.0j, 0.4 - 1.0j, -30.0 + 0.5j])
def test_free_cells_match_the_per_cell_routine(res, A, z):
    mesh = build_mesh(3, A, res)
    got = blade_mod._free_cells_3d(z, mesh)
    want = free_cells_scalar(z, mesh)
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("omega", [0.0, 12.0, 190.0])
@pytest.mark.parametrize("z", [0.4 + 1.0j, 0.4 - 1.0j])
def test_3d_assembly_matches_per_channel_outer_sums(z, omega):
    mesh = build_mesh(3, 1.0, 7)
    bp = BladeParam(1.0, 2.0, 3)
    rot = RotationSpec(omega)
    t = Truncation(3, l_max=6)
    W, n = mesh.w, mesh.n_nodes
    inv = np.full(n, 0.5)
    window = [ch for ch in ChannelIndex3.window(t) if ch.m != 0]

    # Full matrix: free kernel off the diagonal, the channel differences, cells.
    k_diff = outer_sum(mesh, [(ch.l, ch.m, z + ch.m * omega, 1.0) for ch in window]
                       + [(ch.l, ch.m, z, -1.0) for ch in window])
    th = mesh.theta()
    d = np.sqrt(np.maximum(mesh.r[:, None] ** 2 + mesh.r[None, :] ** 2 - 2.0 * mesh.r[:, None]
                           * mesh.r[None, :] * np.cos(th[:, None] - th[None, :]), 0.0))
    np.fill_diagonal(d, 1.0)
    w = np.sqrt(complex(z))
    w = w if w.imag >= 0.0 else -w
    want = -(np.exp(1j * w * d) / (4.0 * math.pi * d) + k_diff) * W[None, :]
    want[np.diag_indices(n)] = inv - free_cells_scalar(z, mesh) - W * np.diag(k_diff)
    assert_close(gamma_matrix(z, bp, rot, t, mesh).entries, want, 1e-13)

    for cap in (0, 2, 6):
        chans = ChannelIndex3.cutoff(cap, t)
        want = -outer_sum(mesh, [(ch.l, ch.m, z + ch.m * omega, 1.0) for ch in chans]) * W
        want[np.diag_indices(n)] += inv
        assert_close(gamma_matrix_cutoff(cap, z, bp, rot, t, mesh).entries, want, 1e-13)

    for m0 in (0, -2, 3):
        want = -outer_sum(mesh, [(l, m0, z, 1.0) for l in range(abs(m0), 7)]) * W
        want[np.diag_indices(n)] += inv
        got = lambda_matrix(z, ChannelIndex3(abs(m0), m0), bp, mesh, t=t).entries
        assert_close(got, want, 1e-13)

    rng = np.random.default_rng(7)
    xi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    r_eval = np.linspace(0.05, 3.0, 20)
    fields = layer_fields(z, xi, rot, mesh, r_eval, ChannelIndex3.window(t))
    assert list(fields) == ChannelIndex3.window(t)
    for ch, got in fields.items():
        g = outer_sum(mesh, [(ch.l, ch.m, z + ch.m * omega, 1.0)], r_rows=r_eval)
        assert_close(got, g @ (W * xi), 1e-13)


def test_nonfinite_cell_is_named(monkeypatch):
    real = blade_mod._rect_moment

    def poisoned(*args):
        out = real(*args)
        out[6] = np.nan
        return out

    monkeypatch.setattr(blade_mod, "_rect_moment", poisoned)
    mesh = build_mesh(3, 1.0, 5)
    with pytest.raises(MeshCellError, match=r"^singular split failed on cell \(r 1, u 1\) node 6$"):
        gamma_matrix(Z, BladeParam(1.0, 2.0, 3), RotationSpec(6.0),
                     Truncation(2, l_max=3), mesh)


def test_gamma_matrix_3d_bessel_calls_per_shell(monkeypatch):
    """One kernel call for all shifted channels and one for the unshifted
    degrees, whatever the number of shells (no timing)."""
    counter = CountingSpecial()
    monkeypatch.setattr(rotkrein._radial, "sp", counter)
    t = Truncation(3, l_max=6)
    gamma_matrix(Z, BladeParam(1.0, 2.0, 3), RotationSpec(12.0), t, build_mesh(3, 1.0, 13))
    # Four calls per kernel (J and H at the rows and at the columns); 144
    # with a call per (l, m), 28 with one per shell.
    assert 0 < counter.calls <= 2 * 4


# -- the 2D assembly: the segment as a tensor mesh with one angular sample --


def panel_cells(mesh, f):
    """Integral of f(r_i, t) t over node i's own panel, split at r_i, with
    12 Gauss points on each side; one node per call."""
    xg, wg = np.polynomial.legendre.leggauss(12)
    out = []
    for i, ri in enumerate(mesh.r):
        a, b = mesh.cells[i // mesh.n_per]
        acc = 0.0
        for lo, hi in ((a, ri), (ri, b)):
            h = 0.5 * (hi - lo)
            t = 0.5 * (hi + lo) + h * xg
            acc += h * np.sum(wg * f(ri, t) * t)
        out.append(acc)
    return np.array(out)


def t_log_moment(a, b, c):
    """Integral of t log|t - c| over [a, b] in closed form."""
    def F(t):
        s = t - c
        return 0.0 if s == 0.0 else (0.5 * s * s * math.log(abs(s)) - 0.25 * s * s
                                     + c * (s * math.log(abs(s)) - s))
    return F(b) - F(a)


def channel_sum_2d(terms, r, rp):
    """sum of sign * g_n(energy; r, r') / (2 pi) over the terms (n, energy, sign)."""
    return sum(sign * separable_kernels(2, n, energy, r, rp) for n, energy, sign in terms) / (
        2.0 * math.pi)


def panel_matrix(mesh, K, cells, inv):
    """diag(inv) - K diag(w) with each node's own panel left to its cell."""
    panel = np.arange(mesh.n_nodes) // mesh.n_per
    M = -K * mesh.w[None, :]
    M[panel[:, None] == panel[None, :]] = 0.0
    M[np.diag_indices(mesh.n_nodes)] = inv - cells
    return M


@pytest.mark.parametrize("omega", [0.0, 12.0, 190.0])
@pytest.mark.parametrize("z", [0.4 + 1.0j, 0.4 - 1.0j])
def test_2d_assembly_matches_per_channel_sums(z, omega):
    mesh = build_mesh(2, 1.0, 6)
    bp = BladeParam(1.0, 2.0, 2)
    rot = RotationSpec(omega)
    t = Truncation(5)
    r, n = mesh.r, mesh.n_nodes
    inv = np.full(n, 0.5)
    w = np.sqrt(complex(z))
    w = w if w.imag >= 0.0 else -w

    # Full matrix: Hankel off the diagonal, the channel differences, own-panel cells.
    diff = [(k, z + k * omega, 1.0) for k in range(-5, 6) if k] + [
        (k, z, -1.0) for k in range(-5, 6) if k]
    d = np.abs(r[:, None] - r[None, :])
    np.fill_diagonal(d, 1.0)
    k_free = 0.25j * sp.hankel1(0, w * d)
    k_diff = channel_sum_2d(diff, r[:, None], r[None, :])
    log_part = np.array([t_log_moment(*mesh.cells[i // mesh.n_per], r[i]) for i in range(n)])
    cells = -log_part / (2.0 * math.pi) + panel_cells(
        mesh, lambda ri, tt: 0.25j * sp.hankel1(0, w * np.abs(ri - tt))
        + np.log(np.abs(ri - tt)) / (2.0 * math.pi)
        + channel_sum_2d(diff, ri, tt))
    want = panel_matrix(mesh, k_free + k_diff, cells, inv)
    assert_close(gamma_matrix(z, bp, rot, t, mesh).entries, want, 1e-13)

    for cap in (0, 2, 5):
        terms = [(k, z + k * omega, 1.0) for k in range(-cap, cap + 1)]
        want = panel_matrix(mesh, channel_sum_2d(terms, r[:, None], r[None, :]),
                            panel_cells(mesh, lambda ri, tt: channel_sum_2d(terms, ri, tt)),
                            inv)
        assert_close(gamma_matrix_cutoff(cap, z, bp, rot, t, mesh).entries, want, 1e-13)

    for n0 in (0, -2, 3):
        terms = [(n0, z, 1.0)]
        want = panel_matrix(mesh, channel_sum_2d(terms, r[:, None], r[None, :]),
                            panel_cells(mesh, lambda ri, tt: channel_sum_2d(terms, ri, tt)),
                            inv)
        assert_close(lambda_matrix(z, ChannelIndex2(n0), bp, mesh).entries, want, 1e-13)

    rng = np.random.default_rng(7)
    xi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    r_eval = np.linspace(0.0, 3.0, 20)
    fields = layer_fields(z, xi, rot, mesh, r_eval, ChannelIndex2.window(t))
    assert list(fields) == ChannelIndex2.window(t)
    for ch, got in fields.items():
        g = channel_sum_2d([(ch.n, z + ch.n * omega, 1.0)], r_eval[:, None], r[None, :])
        assert_close(got, g @ (mesh.w * xi), 1e-13)


def test_gamma_matrix_2d_bessel_calls(monkeypatch):
    """One kernel call for all shifted channels and one for the unshifted
    orders, for the mesh matrix and for the own-panel cells (no timing)."""
    counter = CountingSpecial()
    monkeypatch.setattr(rotkrein._radial, "sp", counter)
    t = Truncation(5)
    gamma_matrix(Z, BladeParam(1.0, 2.0, 2), RotationSpec(12.0), t, build_mesh(2, 1.0, 12))
    # Four calls per kernel (J and H at the rows and at the columns); 120
    # with a call per (order, energy), 88 with one per energy.
    assert 0 < counter.calls <= 2 * 2 * 4


def test_apply_blade_resolvent_at_the_3d_origin():
    """Only the l = 0 channels reach r = 0; the value there is the limit from r > 0."""
    rot, t, mesh = RotationSpec(5.0), Truncation(2, l_max=3), build_mesh(3, 1.0, 5)
    bp = BladeParam(1.0, 2.0, 3)
    for ch in (ChannelIndex3(0, 0), ChannelIndex3(1, 1)):
        psi = make_psi(3, ch, n=120)
        pts = [Point3(0.0, 0.4, 1.0), Point3(1e-7, 0.4, 1.0)]
        at0, near = apply_blade_resolvent(Z, psi, bp, rot, t, mesh, pts)
        assert np.isfinite(at0)
        assert abs(at0 - near) <= 1e-5 * abs(near)
