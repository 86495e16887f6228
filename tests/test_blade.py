"""Blade mesh, boundary matrices, form probe, and the averaged solver."""

import itertools
import logging
import math
import re
import types

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
    ConditioningError,
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
from rotkrein.rotframe import RotationSpec, Truncation, rot_green
from rotkrein.specfun import ChannelIndex2, ChannelIndex3

Z = 0.4 + 1.0j


def test_mesh_weight_sums_are_exact():
    m2 = build_mesh(2, 1.3, 9)
    assert m2.n_nodes == 9 * 8
    assert np.sum(m2.w) == pytest.approx(1.3**2 / 2.0, rel=1e-14)
    m3 = build_mesh(3, 0.8, 7)
    assert m3.n_nodes == 49
    assert np.sum(m3.w) == pytest.approx(2.0 * 0.8**3 / 3.0, rel=1e-14)
    assert np.all((m3.theta > 0.0) & (m3.theta < math.pi))


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
    # A numpy radius whose measure overflows: the typed error, not numpy's
    # overflow warning.
    with pytest.raises(ValueError, match="outside the normal range"):
        BladeMesh(2, np.float64(1e300), 2)
    assert build_mesh(2, 1.0, 4).theta is None


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
    bp = BladeParam(1.0, 2.0, 3)
    with pytest.raises(ValueError, match="dense budget"):
        gamma_matrix(Z, bp, RotationSpec(4.0), Truncation(3, l_max=6), build_mesh(3, 1.0, 51))


_BP2, _BP3 = BladeParam(1.0, 2.0, 2), BladeParam(1.0, 2.0, 3)
# Entry points over the dense budget of 2,500 nodes: 3D meshes have res^2
# nodes, 2D meshes and radial rules 8 per panel, 3D radial rules n.
OVER_BUDGET = {
    "lambda_matrix": lambda: lambda_matrix(
        Z, ChannelIndex3(1, 1), _BP3, build_mesh(3, 1.0, 60), t=Truncation(3, l_max=6)),
    "gamma_matrix_cutoff": lambda: gamma_matrix_cutoff(
        2, Z, _BP2, RotationSpec(4.0), Truncation(3), build_mesh(2, 1.0, 313)),
    "averaged_resolvent_2d": lambda: averaged_resolvent(
        2, Z, _BP2, make_psi(2, 1, n=40), resolution=313),
    "averaged_resolvent_3d": lambda: averaged_resolvent(
        3, Z, _BP3, make_psi(3, (1, 1), n=40), resolution=2501),
    "blade_study_3d": lambda: blade_convergence_study(
        3, _BP3, Z, psis=[make_psi(3, (1, 1), n=40)], resolution=200),
}


@pytest.mark.parametrize("call", OVER_BUDGET.values(), ids=OVER_BUDGET)
def test_dense_budget_is_checked_before_any_matrix(call):
    """A mesh or radial rule over the budget is refused before it or any
    matrix of its size exists, whichever entry point asks for it."""
    with pytest.raises(ValueError, match="dense budget"):
        call()


def test_dense_budget_holds_for_a_hand_built_mesh(monkeypatch):
    """A mesh built without build_mesh is held to the same budget: 326
    panels of 8 nodes, 2,608 nodes, are refused before any node exists."""
    def no_nodes(*args):
        raise AssertionError("panel nodes built over the dense budget")

    monkeypatch.setattr(blade_mod, "_panel_nodes", no_nodes)
    with pytest.raises(ValueError, match="2608 nodes exceed the dense budget"):
        BladeMesh(2, 1.0, 326)


def test_dense_budget_admits_its_own_size():
    assert build_mesh(3, 1.0, 50).n_nodes == build_mesh(2, 1.0, 312).n_nodes + 4 == 2500


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


def _weighted_case(mesh, X):
    """The entries whose weighted matrix diag(sqrt w) E diag(1/sqrt w) is X."""
    sw = np.sqrt(mesh.w)
    return X / sw[:, None] * sw[None, :]


def _unitary(rng, n):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q


def _norm_cases():
    """(mesh, weighted matrix X) pairs: a random matrix, a rank-1 one, one
    whose top singular value is repeated, one whose top two are 3 % apart,
    the zero matrix, and a 1 x 1 on a one-node stand-in for a mesh."""
    rng = np.random.default_rng(5)
    mesh = build_mesh(3, 1.0, 7)
    n = mesh.n_nodes
    spread = np.geomspace(1.0, 1e-3, n - 2)
    return [
        (mesh, rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))),
        (mesh, np.outer(rng.standard_normal(n), rng.standard_normal(n) + 1j)),
        (mesh, _unitary(rng, n) @ np.diag(np.r_[2.0, 2.0, spread]) @ _unitary(rng, n)),
        (mesh, _unitary(rng, n) @ np.diag(np.r_[1.03, 1.0, spread]) @ _unitary(rng, n)),
        (build_mesh(2, 1.0, 3), np.zeros((24, 24))),
        (types.SimpleNamespace(w=np.array([0.3])), np.array([[-2.0 + 1.5j]])),
    ]


@pytest.mark.parametrize("case", range(6))
def test_weighted_norm_matches_the_2_norm(case, caplog):
    """The Lanczos 2-norm is the largest singular value of the weighted
    matrix within its stated relative tolerance (0.0 for the zero matrix),
    the same bits on a rerun, with its steps and residual logged."""
    mesh, X = _norm_cases()[case]
    E = _weighted_case(mesh, X)
    with caplog.at_level(logging.INFO, logger="rotkrein.blade"):
        got = weighted_norm(mesh, E)
    want = np.linalg.norm(X, 2)
    assert abs(got - want) <= blade_mod._NORM_TOL * want
    assert weighted_norm(mesh, E) == got
    (record,) = [r for r in caplog.records if r.getMessage().startswith("weighted norm")]
    steps, resid = re.fullmatch(r"weighted norm: (\d+) Lanczos steps, relative residual "
                                r"(\S+) on \d+ unknowns", record.getMessage()).groups()
    assert 1 <= int(steps) <= len(mesh.w)
    assert float(resid) <= blade_mod._NORM_TOL


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_weighted_norm_rejects_nonfinite_entries(bad):
    mesh = build_mesh(2, 1.0, 2)
    E = np.eye(mesh.n_nodes, dtype=complex)
    E[3, 5] = bad
    with pytest.raises(ValueError, match="NaN or an infinite entry"):
        weighted_norm(mesh, E)


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
    """solve_density is the one dense solve of the full matrix against the
    free trace of psi, and refuses a psi of the other dimension."""
    mesh = build_mesh(2, 1.0, 5)
    bp = BladeParam(1.0, 2.0, 2)
    rot = RotationSpec(8.0)
    t = Truncation(3)
    psi = make_psi(2, ChannelIndex2(1), n=120)
    z_rot = Z - rot.omega
    gm = gamma_matrix(z_rot, bp, rot, t, mesh)
    trace = blade_mod._free_trace(psi, z_rot + psi.channel.shift * rot.omega, mesh)
    phi = solve_density(z_rot, psi, bp, rot, t, mesh).values
    np.testing.assert_array_equal(blade_mod._dense_solve(gm.entries, trace), phi)
    with pytest.raises(ValueError):
        solve_density(z_rot, make_psi(3, ChannelIndex3(1, 1)), bp, rot, t, mesh)


def _solve_with(entries):
    """The blade's dense solve (blade._dense_solve) of a prebuilt matrix
    against a vector of ones."""
    entries = np.asarray(entries, dtype=complex)
    return blade_mod._dense_solve(entries, np.ones(len(entries), dtype=complex))


@pytest.mark.parametrize("factor,fails", [(1.0 - 1e-6, False), (1.0 + 1e-6, True)])
def test_conditioning_limit_is_on_the_one_norm_estimate(factor, fails):
    """diag(1, ..., 1, 1/c) has 1-norm condition number c: a solve fails
    just above the 1e12 limit and goes through just below it."""
    entries = np.eye(16)
    entries[-1, -1] = 1.0 / (factor * 1e12)
    if fails:
        with pytest.raises(ConditioningError, match=r"1-norm condition estimate 1e\+12 "):
            _solve_with(entries)
    else:
        phi = _solve_with(entries)
        assert np.isfinite(phi).all() and abs(phi[-1]) > 1e11 * abs(phi[0])


def test_singular_solve_is_a_conditioning_error():
    with pytest.raises(ConditioningError, match="condition estimate inf"):
        _solve_with(np.ones((16, 16)))


def test_averaged_side_solve_is_checked(monkeypatch):
    """The averaged Lippmann-Schwinger system goes through the same check."""
    monkeypatch.setattr(blade_mod, "_COND_LIMIT", 1.0)
    with pytest.raises(ConditioningError, match="dense solve exceeds 1"):
        averaged_resolvent(2, Z, BladeParam(1.0, 2.0, 2), make_psi(2, ChannelIndex2(1), n=60))


def _dense_ls_correction(dim, z, order, rr, mu, free_rr, r_out):
    """_ls_correction with a dense back-substitution: the kernel matrix
    between r_out and the nodes times mu u, u from the same dense solve."""
    K = separable_kernels(dim, order, z, rr[:, None], rr[None, :])
    u = blade_mod._dense_solve(np.eye(len(rr), dtype=complex) - K * mu[None, :], free_rr)
    return separable_kernels(dim, order, z, r_out[:, None], rr[None, :]) @ (mu * u)


@pytest.mark.parametrize("z", [Z, 0.4 - 1.0j, -3.0 + 0.2j])
@pytest.mark.parametrize("order", [0, 3])
@pytest.mark.parametrize("dim", [2, 3])
def test_ls_back_substitution_matches_the_dense_kernel(dim, order, z):
    """The O(N) back-substitution of the averaged solver (running sums over
    the nodes) is the dense kernel product to 1e-14, at radii inside, at
    and beyond the nodes, the origin included, in any order."""
    A = 1.3
    rr, ww = blade_mod._radial_nodes(dim, A)
    mu = 2.0 * ww * rr ** (dim - 1)
    psi = make_psi(dim, order if dim == 2 else (order, 0))
    free_rr = radial_apply(psi, z, rr)
    mids = 0.5 * (rr[:-1] + rr[1:])
    r_out = np.concatenate([[2.0, 0.0, 1e-3], rr[::7], mids[::5], [A, 7.5], rr[:3]])
    got = blade_mod._ls_correction(dim, z, order, rr, mu, free_rr, r_out)
    want = _dense_ls_correction(dim, z, order, rr, mu, free_rr, r_out)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_ls_back_substitution_overflow_is_the_kernel_error():
    """Where the dense kernel is not finite (|Im sqrt z| A = 800), the
    averaged solver raises separable_kernels' OverflowError."""
    z, order = -1e4 + 1.0j, 3
    rr, ww = blade_mod._radial_nodes(2, 8.0)
    mu, free_rr, r_out = ww * rr, np.ones(len(rr), dtype=complex), np.linspace(0.1, 8.0, 20)
    prefix = "2D radial kernel of order 3 at z=(-10000+1j) is not finite"
    with pytest.raises(OverflowError) as dense:
        separable_kernels(2, order, z, r_out[:, None], rr[None, :])
    with pytest.raises(OverflowError) as got:
        blade_mod._ls_correction(2, z, order, rr, mu, free_rr, r_out)
    assert str(dense.value).startswith(prefix) and str(got.value).startswith(prefix)


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


def test_blade_radii_whose_measure_leaves_the_doubles_are_typed_errors():
    """A blade radius whose measure under- or overflows is invalid input,
    not a mesh of zero or infinite weights; an averaged potential whose
    weights overflow is an OverflowError of the study and of the averaged
    solver, in both dimensions, not numpy's overflow warning."""
    for dim, A in ((2, 1e300), (3, 1e150), (2, 1e-300), (3, 1e-150)):
        with pytest.raises(ValueError, match="outside the normal range of doubles"):
            build_mesh(dim, A, 2)
    assert build_mesh(2, 1e-150, 2).w.min() > 0.0
    psi = make_psi(2, 0, n=8)
    with pytest.raises(OverflowError, match="averaged potential weights"):
        blade_convergence_study(2, BladeParam(1e17, 1e300, 2), Z, omegas=(0.0, 1.0),
                                psis=[psi], resolution=2, t=Truncation(0))
    for dim, A, ch in ((2, 1e160, 1), (3, 1e110, (1, 1))):
        with pytest.raises(OverflowError, match="averaged potential weights"):
            averaged_resolvent(dim, Z, BladeParam(A, 2.0, dim), make_psi(dim, ch, n=8))


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
def test_apply_blade_resolvent_adds_the_one_channel_terms(dim):
    """The field at each point is the free term times ch.angular there plus
    each window channel's layer field times its ch.angular there, added in
    window order, though every angular factor comes from one harmonic call;
    no points give an empty field."""
    rot, bp = RotationSpec(5.0), BladeParam(1.0, 2.0, dim)
    if dim == 2:
        ch, t, mesh = ChannelIndex2(1), Truncation(4), build_mesh(2, 1.0, 4)
        pts = [Point2(r, th) for r, th in ((0.5, 0.0), (1.5, 1.2), (2.5, 5.0))]
    else:
        ch, t, mesh = ChannelIndex3(2, 1), Truncation(3, l_max=5), build_mesh(3, 1.0, 5)
        pts = [Point3(r, th, ph) for r, th, ph in ((0.5, 0.0, 0.1), (1.5, math.pi / 2, 2.0),
                                                    (2.5, math.pi, 4.0), (0.9, 2.2, 5.3))]
    psi = make_psi(dim, ch, n=120)
    out = apply_blade_resolvent(Z, psi, bp, rot, t, mesh, pts)
    r_pts = np.array([p.r for p in pts])
    fp = radial_apply(psi, Z + ch.shift * rot.omega, r_pts)
    density = solve_density(Z, psi, bp, rot, t, mesh)
    fields = layer_fields(Z, density.values, rot, mesh, r_pts, type(ch).window(t))
    for i, p in enumerate(pts):
        val = fp[i] * ch.angular(*p.angles)
        for cch, c in fields.items():
            val += c[i] * cch.angular(*p.angles)
        assert out[i] == val
    assert apply_blade_resolvent(Z, psi, bp, rot, t, mesh, []).shape == (0,)


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
    th = mesh.theta
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
    th = mesh.theta
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


@pytest.mark.parametrize("A", [1e150, 1.3e154])
def test_2d_cell_out_of_range_is_named(A):
    """A 2D own-panel cell whose log moment leaves the doubles raises
    MeshCellError naming its panel: at A = 1e150, and at A = 1.3e154, a
    radius BladeMesh accepts, where the moment's products overflow without
    an overflow warning."""
    mesh = build_mesh(2, A, 2)
    with pytest.raises(MeshCellError, match=r"^singular split failed on panel 0 cell \[0, "):
        gamma_matrix(Z, BladeParam(A, 2.0, 2), RotationSpec(10.0), Truncation(2), mesh)


def test_gamma_matrix_3d_bessel_calls_per_shell(monkeypatch):
    """One factor pass over every shifted and unshifted (degree, energy)
    pair at the radial nodes, whatever the number of shells (no timing): no
    scipy Bessel call at all, and two recurrence passes (J and H)."""
    counter = CountingSpecial()
    monkeypatch.setattr(rotkrein._radial, "sp", counter)
    passes = [0]
    for name in ("_sph_j", "_sph_h"):
        def counted(*args, f=getattr(rotkrein._radial, name)):
            passes[0] += 1
            return f(*args)

        monkeypatch.setattr(rotkrein._radial, name, counted)
    t = Truncation(3, l_max=6)
    gamma_matrix(Z, BladeParam(1.0, 2.0, 3), RotationSpec(12.0), t, build_mesh(3, 1.0, 13))
    # 144 scipy calls with a call per (l, m), 28 with one per shell, 8 with
    # one per kernel call (J and H at the rows and at the columns); 4
    # recurrence passes with one kernel call for the shifted channels and
    # one for the unshifted degrees.
    assert counter.calls == 0
    assert 0 < passes[0] <= 2


# -- the 2D assembly: the segment as a tensor mesh with one angular sample --


def panel_cells(mesh, f, nodes=None, n_sub=1, n_pts=12):
    """Integral of f(r_i, t) t over node i's own panel, split at r_i, with
    n_sub equal subintervals of n_pts Gauss points on each side (12 points
    on each side by default), at the given nodes (all by default); one node
    per call."""
    xg, wg = np.polynomial.legendre.leggauss(n_pts)
    out = []
    for i in range(mesh.n_nodes) if nodes is None else nodes:
        ri = mesh.r[i]
        a, b = mesh.cells[i // mesh.n_per]
        acc = 0.0
        for lo, hi in ((a, ri), (ri, b)):
            e = np.linspace(lo, hi, n_sub + 1)
            h = 0.5 * (e[1:] - e[:-1])[:, None]
            t = 0.5 * (e[1:] + e[:-1])[:, None] + h * xg
            acc += np.sum(h * wg * f(ri, t) * t)
        out.append(acc)
    return np.array(out)


def piece_cells(mesh, f):
    """Integral of f(r_i, t) t over node i's own panel cut at its 8 nodes
    into 9 pieces, with 6 Gauss points on each piece; one node per call."""
    xg, wg = np.polynomial.legendre.leggauss(6)
    out = []
    for i, ri in enumerate(mesh.r):
        p = i // mesh.n_per
        edges = np.concatenate([mesh.cells[p, :1], mesh.r[p * mesh.n_per:(p + 1) * mesh.n_per],
                                mesh.cells[p, 1:]])
        h = 0.5 * (edges[1:] - edges[:-1])[:, None]
        t = 0.5 * (edges[1:] + edges[:-1])[:, None] + h * xg
        out.append(np.sum(h * wg * f(ri, t) * t))
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
    # The free kernel's regular remainder by 12 + 12 points about the node,
    # the channel differences by the node-split pieces.
    cells = -log_part / (2.0 * math.pi) + panel_cells(
        mesh, lambda ri, tt: 0.25j * sp.hankel1(0, w * np.abs(ri - tt))
        + np.log(np.abs(ri - tt)) / (2.0 * math.pi)) + piece_cells(
        mesh, lambda ri, tt: channel_sum_2d(diff, ri, tt))
    want = panel_matrix(mesh, k_free + k_diff, cells, inv)
    assert_close(gamma_matrix(z, bp, rot, t, mesh).entries, want, 1e-13)

    for cap in (0, 2, 5):
        terms = [(k, z + k * omega, 1.0) for k in range(-cap, cap + 1)]
        want = panel_matrix(mesh, channel_sum_2d(terms, r[:, None], r[None, :]),
                            piece_cells(mesh, lambda ri, tt: channel_sum_2d(terms, ri, tt)),
                            inv)
        assert_close(gamma_matrix_cutoff(cap, z, bp, rot, t, mesh).entries, want, 1e-13)

    for n0 in (0, -2, 3):
        terms = [(n0, z, 1.0)]
        want = panel_matrix(mesh, channel_sum_2d(terms, r[:, None], r[None, :]),
                            piece_cells(mesh, lambda ri, tt: channel_sum_2d(terms, ri, tt)),
                            inv)
        assert_close(lambda_matrix(z, ChannelIndex2(n0), bp, mesh).entries, want, 1e-13)

    rng = np.random.default_rng(7)
    xi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    r_eval = np.linspace(0.0, 3.0, 20)
    fields = layer_fields(z, xi, rot, mesh, r_eval, ChannelIndex2.window(t))
    assert list(fields) == ChannelIndex2.window(t)
    for ch, got in fields.items():
        g = channel_sum_2d([(ch.n, z + ch.n * omega, 1.0)], r_eval[:, None], r[None, :])
        # The fields multiply exp(i n theta)/sqrt(2 pi), the sum exp(i n theta).
        assert_close(got, math.sqrt(2.0 * math.pi) * g @ (mesh.w * xi), 1e-13)


def _cell_sums(z, omega):
    """The channel sums of the 2D boundary matrices, as (chans, z, omega,
    less_unshifted) of _channel_terms and the (order, energy, sign) terms of
    channel_sum_2d: the full matrix's differences, a cutoff, and channels 0
    and 2 alone."""
    t = Truncation(5)
    shifted = [ch for ch in ChannelIndex2.window(t) if ch.shift != 0]
    cutoff = ChannelIndex2.cutoff(2, t)
    return [
        ((shifted, z, omega, True), [(ch.order, z + ch.n * omega, 1.0) for ch in shifted]
         + [(ch.order, z, -1.0) for ch in shifted]),
        ((cutoff, z, omega, False), [(ch.order, z + ch.n * omega, 1.0) for ch in cutoff]),
    ] + [(([ChannelIndex2(m0)], z, 0.0, False), [(m0, z, 1.0)]) for m0 in (0, 2)]


@pytest.mark.parametrize("res", [3, 6, 12, 48])
def test_2d_cells_at_least_as_close_as_the_split_rule(res):
    """The own-panel cells of the 2D channel sums by running sums over the
    node-split pieces are at least as close to a composite oracle (20
    subintervals of 20 Gauss points on each side of the node; 120 move it by
    under 1e-15 of the largest cell) as the 12 + 12 Gauss points about the
    node that they replace, to roundoff, at nodes of the panels at both ends
    and in the middle.  The first node's [r_0, b] side holds H_n(w t) t ~
    t^(1-n), which 12 points resolve poorly.
    Where the split rule overflows, so do the cells, as an OverflowError."""
    for A, z, omega in itertools.product((1.0, 2.5), (0.4 + 1.0j, -30.0 + 0.5j),
                                         (10.0, 2e3, 2e4)):
        mesh = build_mesh(2, A, res)
        nodes = [0, 1, mesh.n_nodes // 2, mesh.n_nodes - 1]
        for args, terms in _cell_sums(z, omega):
            def f(ri, tt):
                return channel_sum_2d(terms, ri, tt)

            try:
                split = panel_cells(mesh, f, nodes)
            except OverflowError:
                with pytest.raises(OverflowError, match="own-panel cell"):
                    blade_mod._panel_cells(mesh, blade_mod._channel_terms(mesh, *args))
                continue
            got = blade_mod._panel_cells(mesh, blade_mod._channel_terms(mesh, *args))[nodes]
            want = panel_cells(mesh, f, nodes, n_sub=20, n_pts=20)
            floor = 1e-15 * np.max(np.abs(want))
            assert np.max(np.abs(got - want)) <= max(np.max(np.abs(split - want)), floor)


@pytest.mark.parametrize("z", [0.4 + 1.0j, 0.4 - 1.0j])
@pytest.mark.parametrize("dim", [2, 3])
def test_layer_fields_multiply_the_angular_factor(dim, z):
    """The coefficient convention against an independent route: the layer
    fields, each times its channel's ch.angular at x, sum to the layer
    potential sum_j rot_green(x, y_j) w_j xi_j at points x off the blade."""
    mesh = build_mesh(dim, 1.0, 3 if dim == 2 else 4)
    rot = RotationSpec(7.0)
    t = Truncation(3, l_max=None if dim == 2 else 5, tail_tol=math.inf)
    rng = np.random.default_rng(11)
    xi = rng.standard_normal(mesh.n_nodes) + 1j * rng.standard_normal(mesh.n_nodes)
    if dim == 2:
        cls, nodes = ChannelIndex2, [Point2(r, 0.0) for r in mesh.r]
        xs = [Point2(0.7, 1.1), Point2(1.6, 0.0), Point2(0.3, 3.8)]
    else:
        cls = ChannelIndex3
        nodes = [Point3(r, th, 0.0) for r, th in zip(mesh.r, mesh.theta)]
        xs = [Point3(0.7, 1.1, 0.9), Point3(1.6, 0.4, 0.0), Point3(0.3, 2.5, 4.2)]
    fields = layer_fields(z, xi, rot, mesh, [x.r for x in xs], cls.window(t))
    for i, x in enumerate(xs):
        got = sum(c[i] * ch.angular(*x.angles) for ch, c in fields.items())
        want = sum(rot_green(dim, z, rot, x, y, t) * w * f
                   for y, w, f in zip(nodes, mesh.w, xi))
        assert abs(got - want) <= 1e-12 * abs(want)


def test_gamma_matrix_2d_bessel_calls(monkeypatch):
    """One factor pass over every (order, energy) pair, shifted and
    unshifted, at the nodes, which the mesh matrix and the own-panel cells
    share, and one on the cells' pieces (no timing): the scipy.special
    calls of _radial in one 2D gamma_matrix."""
    counter = CountingSpecial()
    monkeypatch.setattr(rotkrein._radial, "sp", counter)
    gamma_matrix(Z, BladeParam(1.0, 2.0, 2), RotationSpec(12.0), Truncation(5),
                 build_mesh(2, 1.0, 12))
    # A jv and a hankel1 call per pass.
    assert 0 < counter.calls <= 2 * 2


def test_gamma_matrix_2d_bessel_elements(monkeypatch):
    """A ratchet on the work of one 2D gamma_matrix that does not drift
    with the host's speed: the elements of its jv and hankel1 calls, pinned
    exactly (47,184 with 12 + 12 points about each node for the cells and a
    Hankel value per node pair; 26,450 while the matrix and the cells each
    took their own node factors).  15 distinct (order, energy) pairs (10
    shifted, 5 unshifted); 12 panels of 8 nodes:
    - the node factors: J and H at the 96 nodes per pair, 15 * 192 = 2,880,
      from one pass that the mesh matrix and the own-panel cells share;
    - the cells' pieces: per pair and panel, J on 8 pieces and H on 8 pieces
      of 6 points, 15 * 12 * 96 = 17,280;
    - the free kernel: its 1,106 distinct node distances, and its regular
      remainder at 12 + 12 points about each node, 96 * 24 = 2,304."""
    counter = CountingSpecial()
    for mod in (rotkrein._radial, blade_mod):
        monkeypatch.setattr(mod, "sp", counter)
    gamma_matrix(Z, BladeParam(1.0, 2.0, 2), RotationSpec(12.0), Truncation(5),
                 build_mesh(2, 1.0, 12))
    assert counter.elements == 2_880 + 17_280 + 1_106 + 2_304 == 23_570


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
