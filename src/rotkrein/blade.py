"""Interaction supported on a rotating blade: half disc (3D) or segment (2D).

The boundary operator on the blade is Nystrom-discretized as

    M  =  diag(1/alpha) - K . diag(mu)

with mu the surface measure weights and K the rotating-frame kernel on the
blade.  The full kernel is split as

    K  =  K_free(z)  +  sum_c [channel_c(z + m_c w) - channel_c(z)]

where the second part is a smooth channel-wise difference of resolvents at
shifted and unshifted energies, quadratured plainly, and the free part's
1/(4 pi d) (3D) or -(1/2 pi) log d (2D) singularity is integrated in closed
form over each diagonal mesh cell.

Both meshes are tensor meshes, flattened r-major: the 3D half disc in
(r, u = cos theta), the 2D segment in r with one angular sample, theta = 0.
Channel c contributes kron(G_c, y_c y_c^T): G_c = g_c(r_i, r_j) =
(i pi / 2) J(w r<) H(w r>) on the radial nodes, y_c the orthonormal angular
factor at the samples (Y_l^m(theta_u, 0) in 3D, 1/sqrt(2 pi) in 2D).
Every boundary matrix takes its channel sum from one _factors pass over
the distinct (order, energy) pairs of its terms at the radial nodes
(_channel_terms), assembled as one matrix product of those factors
(_channel_matrix: the sum is semiseparable).  layer_fields contracts the
density with y_c before its radial blocks (one separable_kernels call over
its channels, between the evaluation radii and the nodes).  A 2D node's
own cell is its panel, whose quadrature entries the cell replaces: the
channel sum is integrated there by product integration of its separated
kernel (_panel_cells: running sums over the panel cut at its nodes, on the
same node factors), and the free kernel by its log moment plus its regular
remainder.  Per dimension stay only the meshes and angular samples, the
free kernel with its singular diagonal cells (3D: tangent-plane
rectangles, all cells as one array), the own cells of the channel sum (3D:
plain quadrature at the node), and the averaged solver's radial rule
(_radial_nodes).
Sharp-cutoff and single-channel model matrices, the weighted 2-norm of a
matrix by Golub-Kahan-Lanczos bidiagonalization (weighted_norm), the
quadratic-form probe, resolvent application with a dense solve, and the
plain averaged radial solver live here as well.
"""

from __future__ import annotations

import logging
import math
import sys
import warnings
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np
import scipy.special as sp
from scipy.linalg import LinAlgWarning, get_lapack_funcs, lu_factor, lu_solve

from ._radial import (
    _check_finite,
    _check_kernels,
    _factors,
    _integrals,
    _roots,
    gauss_legendre,
    radial_apply,
    separable_kernels,
)
from .pointint import RadialChannelFunction
from .rotframe import RotationSpec, Truncation
from .specfun import (
    ChannelIndex2,
    ChannelIndex3,
    _require_integer,
    channel_class,
    require_resolvent_energy,
    sqrt_upper,
)

__all__ = [
    "BladeParam",
    "BladeMesh",
    "BoundaryDensity",
    "GammaMatrix",
    "FormProbeResult",
    "MeshCellError",
    "ConditioningError",
    "build_mesh",
    "gamma_matrix",
    "gamma_matrix_cutoff",
    "lambda_matrix",
    "weighted_norm",
    "form_probe",
    "apply_blade_resolvent",
    "averaged_resolvent",
]

logger = logging.getLogger(__name__)

_EULER = 0.5772156649015329
_MAX_DENSE_NODES = 2500
_COND_LIMIT = 1e12
# weighted_norm: the relative residual at which its Lanczos iteration stops,
# and the seed of its start vector.
_NORM_TOL = 1e-10
_NORM_SEED = 0

_XG12, _WG12 = gauss_legendre(12)
_XG8, _WG8 = gauss_legendre(8)
# Gauss nodes per piece of the 2D own-panel cells (_panel_cells).
_PIECE_NODES = 6


class MeshCellError(RuntimeError):
    """A diagonal-cell integral failed; the message names the cell."""


class ConditioningError(RuntimeError):
    """A dense solve is too ill conditioned to trust (or exactly singular)."""


@dataclass(frozen=True)
class BladeParam:
    """Blade of radius A and coupling strength alpha.

    strength is a positive constant (attractive sign convention) or a real
    radial function; a zero constant switches the interaction off, which the
    boundary matrices reject but the averaged solver accepts.
    """

    A: float
    strength: float | Callable[[np.ndarray], np.ndarray]
    dim: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.A) and self.A > 0.0):
            raise ValueError(f"blade radius must be positive, got {self.A}")
        channel_class(self.dim)
        if not callable(self.strength) and not math.isfinite(float(self.strength)):
            raise ValueError("strength must be finite")

    def alpha_values(self, r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        if callable(self.strength):
            vals = np.asarray(self.strength(r), dtype=float)
        else:
            vals = np.full(r.shape, float(self.strength))
        if not np.all(np.isfinite(vals)):
            raise ValueError("strength sampled to nonfinite values")
        return vals

    def inverse_strength(self, r: np.ndarray) -> np.ndarray:
        vals = self.alpha_values(r)
        if np.any(np.abs(vals) < 1e-12):
            raise ValueError("strength not bounded away from zero on the blade")
        return 1.0 / vals


@dataclass(eq=False)
class BladeMesh:
    """Tensor Gauss mesh on the blade of radius A, with surface-measure weights.

    resolution is the number of 8-node panels (2D) or of nodes per direction
    (3D); dim, A and resolution are checked before any node array exists,
    and every other field is derived from them once, when the mesh is built.
    2D: composite Gauss on [0, A], n_per nodes per panel, panel edges in
    cells, weights r dr.  3D: tensor Gauss in (r, u = cos theta) with theta
    = arccos(u) per node, weights r^2 dr du, flattened r-major.  The fields
    of the other dimension (u_1d and theta, cells and n_per) are None.
    Weight sums are A^2/2 and 2 A^3/3.  angles holds the angular samples as
    the channel harmonics take them: the 2D segment's theta = 0, or the 3D
    polar nodes arccos(u_1d) at phi = 0.  panel is the index of each node's
    own cell: its panel in 2D, the node itself in 3D.
    """

    dim: int
    A: float
    resolution: int
    r: np.ndarray = field(init=False)
    w: np.ndarray = field(init=False)
    r_1d: np.ndarray = field(init=False)
    angles: tuple = field(init=False)
    panel: np.ndarray = field(init=False)
    u_1d: np.ndarray | None = field(init=False, default=None)
    theta: np.ndarray | None = field(init=False, default=None)
    cells: np.ndarray | None = field(init=False, default=None)
    n_per: int | None = field(init=False, default=None)

    def __post_init__(self) -> None:
        dim, A, resolution = self.dim, self.A, self.resolution
        channel_class(dim)
        _require_integer("resolution", resolution)
        if resolution < 2:
            raise ValueError(f"resolution must be at least 2, got {resolution}")
        if not (math.isfinite(A) and A > 0.0):
            raise ValueError(f"blade radius must be positive, got {A}")
        _require_dense(len(_XG8) * resolution if dim == 2 else int(resolution) ** 2)
        # r^(dim-1) dr over [0, A] times the angular measure: 1 for the 2D
        # segment's one sample, 2 for du over [-1, 1] in 3D.  Inside the
        # normal doubles it keeps every weight finite.
        try:
            target = (dim - 1) * float(A) ** dim / dim
        except OverflowError:  # Python's float power raises where numpy gives inf
            target = math.inf
        if not sys.float_info.min <= target < math.inf:
            raise ValueError(f"blade radius {A!r} puts the blade measure {target!r} "
                             f"outside the normal range of doubles")
        if dim == 2:
            # The segment at theta = 0: one angular sample.
            edges, r, w = _panel_nodes(A, resolution)
            self.r = self.r_1d = r
            self.w = w * r
            self.cells = np.stack([edges[:-1], edges[1:]], axis=1)
            self.n_per = 8
            self.angles = (0.0,)
            self.panel = np.arange(len(r)) // self.n_per
        else:
            r1, wr = _radial_nodes(3, A, resolution)
            xu, wu = gauss_legendre(resolution)
            R, U = np.meshgrid(r1, xu, indexing="ij")
            self.r, self.r_1d, self.u_1d = R.ravel(), r1, xu
            self.w = np.outer(wr * r1**2, wu).ravel()
            self.theta = np.arccos(U.ravel())
            self.angles = (np.arccos(xu), 0.0)
            self.panel = np.arange(len(self.r))

    @property
    def n_nodes(self) -> int:
        return len(self.r)


@dataclass(eq=False)
class BoundaryDensity:
    """Density values on blade mesh nodes."""

    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.ndim != 1:
            raise ValueError("density must be a flat vector")


@dataclass(eq=False)
class GammaMatrix:
    """Discretized boundary operator with its spectral parameter and flavor."""

    entries: np.ndarray
    z: complex
    variant: str


@dataclass(frozen=True)
class FormProbeResult:
    """Quadratic-form probe value, with the lower-bound combination if asked."""

    probe: float
    ineq_lhs: float | None = None


def _panel_nodes(A: float, n_panels: int) -> tuple:
    """Edges, and 8-point Gauss nodes and weights, of equal panels on [0, A]."""
    edges = np.linspace(0.0, A, n_panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[:-1] + edges[1:])
    nodes = mid[:, None] + half[:, None] * _XG8
    return edges, nodes.ravel(), (half[:, None] * _WG8).ravel()


def _require_dense(nodes: int) -> None:
    """The dense budget: a mesh or radial rule of more nodes is rejected
    before any of its nodes x nodes matrices is allocated.  BladeMesh and
    _radial_nodes check the size they are asked for before its node arrays
    exist."""
    if nodes > _MAX_DENSE_NODES:
        raise ValueError(f"{nodes} nodes exceed the dense budget of {_MAX_DENSE_NODES} nodes")


def _radial_nodes(dim: int, A: float, n: int | None = None) -> tuple:
    """Radial nodes and plain dr weights of the averaged solver on [0, A].

    2D: n 8-point Gauss panels (24 by default); 3D: one n-point Gauss rule
    (64 by default).  Callers multiply in r^(dim-1) and their potential.
    """
    n = (24 if dim == 2 else 64) if n is None else n
    _require_dense(len(_XG8) * n if dim == 2 else n)
    if dim == 2:
        return _panel_nodes(A, n)[1:]
    xg, wg = gauss_legendre(n)
    return 0.5 * A * (xg + 1.0), 0.5 * A * wg


def build_mesh(dim: int, A: float, resolution: int) -> BladeMesh:
    """The BladeMesh of dim, A and resolution: resolution panels (2D) or
    nodes per direction (3D)."""
    return BladeMesh(dim, A, resolution)


# ---------------------------------------------------------------------------
# 2D cell integrals


def _log_F(t: float, c: float) -> float:
    s = t - c
    if s == 0.0:
        return 0.0
    ln = math.log(abs(s))
    return 0.5 * s * s * ln - 0.25 * s * s + c * (s * ln - s)


def _log_moment(a: float, b: float, c: float) -> float:
    """Exact integral of t*log|t - c| over [a, b]."""
    return _log_F(b, c) - _log_F(a, c)


def _free2_reg(z: complex, d: np.ndarray) -> np.ndarray:
    """(i/4) H_0(w d) + log(d)/(2 pi): the free 2D kernel minus its log part."""
    w = sqrt_upper(z)
    d = np.asarray(d, dtype=float)
    out = np.empty(d.shape, dtype=complex)
    tiny = d < 1e-12
    out[~tiny] = 0.25j * sp.hankel1(0, w * d[~tiny]) + np.log(d[~tiny]) / (2.0 * math.pi)
    out[tiny] = 0.25j - (np.log(w / 2.0) + _EULER) / (2.0 * math.pi)
    return out


def _diag_cells(mesh: BladeMesh, integrand) -> np.ndarray:
    """Integral of a kinked row over each node's own panel, all nodes at once:
    the free 2D kernel's regular remainder, which does not separate (the
    channel sum's cells are _panel_cells').

    integrand(r, t) takes node radii of shape (n, 1) and points of shape
    (n, 24): 12 Gauss points on [a, r_i] and 12 on [r_i, b], with [a, b] the
    node's panel.  A side narrower than 1e-15 contributes nothing.
    """
    r = mesh.r
    a, b = mesh.cells[mesh.panel].T
    sides = ((a, r), (r, b))
    halves = [0.5 * (hi - lo) for lo, hi in sides]
    tt = np.concatenate(
        [(0.5 * (hi + lo))[:, None] + h[:, None] * _XG12
         for (lo, hi), h in zip(sides, halves)],
        axis=1,
    )
    vals = integrand(r[:, None], tt)
    acc = np.zeros(len(r), dtype=complex)
    for k, ((lo, hi), h) in enumerate(zip(sides, halves)):
        part = h * np.sum(_WG12 * vals[:, 12 * k : 12 * (k + 1)], axis=-1)
        acc += np.where(hi - lo < 1e-15, 0.0, part)
    return acc


def _free_2d(z: complex, mesh: BladeMesh) -> tuple:
    """Free 2D kernel (i/4) H_0(w |r - r'|) between nodes (0 on the diagonal),
    and its integral over each node's own panel: the log part exactly, the
    regular remainder by _diag_cells.  A nonfinite cell raises MeshCellError
    naming the panel."""
    r = mesh.r
    wz = sqrt_upper(z)
    # The free kernel is symmetric: evaluate it above the diagonal and mirror.
    iu = np.triu_indices(len(r), 1)
    K = np.zeros((len(r), len(r)), dtype=complex)
    # Equal distances recur along the panels: one Hankel value per distance.
    d, at = np.unique(np.abs(r[iu[0]] - r[iu[1]]), return_inverse=True)
    K[iu] = K[iu[::-1]] = (0.25j * sp.hankel1(0, wz * d))[at]
    with np.errstate(over="ignore", invalid="ignore"):  # a nonfinite cell is named below
        log_part = np.array([_log_moment(a, b, ri)
                             for (a, b), ri in zip(mesh.cells[mesh.panel], r)])
    cells = -log_part / (2.0 * math.pi) + _diag_cells(
        mesh, lambda ri, tt: _free2_reg(z, np.abs(ri - tt)) * tt
    )
    bad = np.flatnonzero(~np.isfinite(cells))
    if bad.size:
        i = int(bad[0])
        p = mesh.panel[i]
        a, b = mesh.cells[p]
        raise MeshCellError(
            f"singular split failed on panel {p} cell [{a:.6g}, {b:.6g}] node {i}"
        )
    return K, cells


# ---------------------------------------------------------------------------
# 3D cell integrals


def _quad_Q(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Integral of 1/sqrt(x^2 + y^2) over [0, p] x [0, q], elementwise; 0 where
    p <= 0 or q <= 0."""
    empty = (p <= 0.0) | (q <= 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        full = p * np.arcsinh(q / p) + q * np.arcsinh(p / q)
    return np.where(empty, 0.0, full)


def _rect_moment(x0, x1, y0, y1) -> np.ndarray:
    """Integral of 1/sqrt(x^2 + y^2) over [x0, x1] x [y0, y1], origin inside."""
    return (
        _quad_Q(-x0, -y0) + _quad_Q(x1, -y0) + _quad_Q(-x0, y1) + _quad_Q(x1, y1)
    )


def _chord(r1, t1, r2, t2):
    return np.sqrt(np.maximum(r1**2 + r2**2 - 2.0 * r1 * r2 * np.cos(t1 - t2), 0.0))


def _midpoint_edges(x: np.ndarray, lo: float, hi: float) -> np.ndarray:
    return np.concatenate([[lo], 0.5 * (x[:-1] + x[1:]), [hi]])


def _free_cells_3d(z: complex, mesh: BladeMesh) -> np.ndarray:
    """Free-kernel integral over each node's own (r, u) cell, all cells at once.

    The 1/(4 pi d) part goes through the tangent-plane rectangle in closed
    form; the remaining (exp(i w d) - 1)/(4 pi d) is regular and handled by
    an 8 x 8 product Gauss rule per cell with the exact measure.  A
    nonfinite cell raises MeshCellError naming the first such cell.
    """
    wz = sqrt_upper(z)
    n_u = len(mesh.u_1d)
    ir, iu = np.divmod(np.arange(mesh.n_nodes), n_u)
    redges = _midpoint_edges(mesh.r_1d, 0.0, mesh.A)
    uedges = _midpoint_edges(mesh.u_1d, -1.0, 1.0)
    ar, br = redges[ir], redges[ir + 1]
    ua, ub = uedges[iu], uedges[iu + 1]
    r_i, th_i = mesh.r, mesh.theta
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s_lo = r_i * (np.arccos(ub) - th_i)
        s_hi = r_i * (np.arccos(ua) - th_i)
        sing = (r_i * np.sin(th_i) / (4.0 * math.pi)) * _rect_moment(
            ar - r_i, br - r_i, s_lo, s_hi
        )
        # Axes: cell, r point, u point of the product rule.
        rhalf, uhalf = 0.5 * (br - ar), 0.5 * (ub - ua)
        rp = (0.5 * (br + ar))[:, None, None] + rhalf[:, None, None] * _XG8[:, None]
        up = (0.5 * (ub + ua))[:, None, None] + uhalf[:, None, None] * _XG8
        wc = (_WG8 * rhalf[:, None])[:, :, None] * (_WG8 * uhalf[:, None])[:, None, :]
        d = _chord(r_i[:, None, None], th_i[:, None, None], rp, np.arccos(up))
        vals = np.where(
            d < 1e-12, 1j * wz / (4.0 * math.pi),
            (np.exp(1j * wz * d) - 1.0) / (4.0 * math.pi * d),
        )
        cells = sing + np.sum(wc * vals * rp**2, axis=(1, 2))
    bad = np.flatnonzero(~np.isfinite(cells))
    if bad.size:
        i = int(bad[0])
        raise MeshCellError(
            f"singular split failed on cell (r {ir[i]}, u {iu[i]}) node {i}"
        )
    return cells


def _free_3d(z: complex, mesh: BladeMesh) -> tuple:
    """Free 3D kernel exp(i w d)/(4 pi d) between nodes (the diagonal is left
    to the cells), and its integral over each node's own cell."""
    R, th = mesh.r, mesh.theta
    D = _chord(R[:, None], th[:, None], R[None, :], th[None, :])
    np.fill_diagonal(D, 1.0)
    K = np.exp(1j * sqrt_upper(z) * D) / (4.0 * math.pi * D)
    return K, _free_cells_3d(z, mesh)


# ---------------------------------------------------------------------------
# Channel sums on the tensor mesh, both dimensions


def _angular(dim: int, chans, angles) -> np.ndarray:
    """Orthonormal angular factor y_c of each channel at the angle arrays,
    shape (channels,) + their broadcast shape, from one harmonic call.  At
    a mesh's angular samples the factors are real: 1/sqrt(2 pi) at the 2D
    segment's one sample theta = 0, Y_l^m(theta_u, 0) at the 3D polar nodes."""
    idx = np.array([(ch.order, ch.shift) for ch in chans], dtype=int).reshape(-1, 2)
    return channel_class(dim).harmonics(idx[:, :1], idx[:, 1:], *angles)


class _Terms(NamedTuple):
    """A channel sum on a mesh: its (channel, sign) terms, the distinct
    (order, energy) pairs they take, and the factors of those pairs at the
    radial nodes, which the mesh matrix and the 2D own-panel cells share."""

    orders: np.ndarray  # per pair
    energies: np.ndarray  # per pair
    w: np.ndarray  # per pair: the root of its energy (_roots)
    flip: np.ndarray  # per pair: Im energy < 0
    j: np.ndarray  # (pairs, radial nodes): (i pi / 2) J, as _factors gives it
    h: np.ndarray  # (pairs, radial nodes): H
    pair: np.ndarray  # per term: the index of its pair
    y: np.ndarray  # (terms, angular samples): y_c of its channel
    sign: np.ndarray  # per term: 1, or -1 for the unshifted block


def _channel_terms(mesh: BladeMesh, chans, z: complex, omega: float,
                   less_unshifted=False) -> _Terms:
    """The _Terms of the channel sum of chans: channel c at z + shift_c *
    omega, less the same channel at z if less_unshifted (the smooth
    differences of the full matrix).

    The pairs are the distinct (order, energy) keys in the order of their
    first term, shifted terms first; one _factors pass over all of them
    gives J and H at the radial nodes.  Factors that overflow are kept as
    they come (inf or nan) for _channel_matrix's check.
    """
    y = _angular(mesh.dim, chans, mesh.angles).real
    keys = [(ch.order, z + ch.shift * omega) for ch in chans]
    if less_unshifted:
        keys += [(ch.order, z) for ch in chans]
        y = np.concatenate([y, y])
    at: dict = {}
    pair = np.array([at.setdefault(k, len(at)) for k in keys], dtype=int)
    orders = np.array([o for o, _ in at], dtype=int)
    energies = np.array([e for _, e in at], dtype=complex)
    sign = np.where(np.arange(len(keys)) < len(chans), 1.0, -1.0)
    w, flip = _roots(energies), energies.imag < 0.0
    # Both factors at every node, where there is a pair at all (a window of
    # shift-0 channels leaves none in the full matrix's differences).
    need = np.full(len(mesh.r_1d), len(at) > 0)
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        j, h = _factors(mesh.dim, orders, w, flip, mesh.r_1d, need, need)
    return _Terms(orders, energies, w, flip, j, h, pair, y, sign)


def _channel_matrix(mesh: BladeMesh, terms: _Terms) -> np.ndarray:
    """The channel sum sum_c sign_c kron(G_c, y_c y_c^T) as the mesh matrix,
    by one matrix product of the shared node factors.

    G_c(r, r') = (i pi / 2) J(w r<) H(w r>) is semiseparable (Greengard &
    Rokhlin, CPAM 1991): with one row per term, A = sign_c J_c (x) y_c and
    B = H_c (x) y_c over the mesh nodes (r-major), P = A^T B holds every
    entry whose row radius is at most its column's, and K = P there, P^T
    elsewhere.  A nonfinite entry raises OverflowError naming the first
    pair whose radial kernel on the nodes is not finite, its order, energy
    and radii, as separable_kernels names them.
    """
    n = mesh.n_nodes
    with np.errstate(invalid="ignore", over="ignore"):
        jt, ht = terms.j[terms.pair], terms.h[terms.pair]
        A = ((terms.sign[:, None] * terms.y)[:, None, :] * jt[:, :, None]).reshape(-1, n)
        B = (terms.y[:, None, :] * ht[:, :, None]).reshape(-1, n)
        P = A.T @ B
    K = np.where(mesh.r[:, None] <= mesh.r[None, :], P, P.T)
    if not np.isfinite(K).all():
        r = mesh.r_1d
        j, h = terms.j, terms.h
        with np.errstate(invalid="ignore", over="ignore"):
            g = np.where(r[:, None] <= r[None, :], j[:, :, None] * h[:, None, :],
                         j[:, None, :] * h[:, :, None])
        _check_kernels(mesh.dim, terms.orders, terms.energies, g, r[:, None], r[None, :])
        raise OverflowError(f"{mesh.dim}D channel sum on {n} mesh nodes is not finite")
    return K


def _panel_cells(mesh: BladeMesh, terms: _Terms) -> np.ndarray:
    """Integral of the 2D channel sum's row, times t, over each node's own
    panel, by product integration of the separated kernel.

    The channel sum is sum_p c_p g_p over the distinct (order, energy)
    pairs p of its terms, c_p the sum of sign_c y_c^2 over the terms of the
    pair, and g_p = (i pi / 2) J_p(w t<) H_p(w t>).  So node r_i of panel
    [a, b] has the cell

        sum_p c_p [H_p(r_i) L_p(i) + J_p(r_i) R_p(i)],
        L_p(i) = int_a^r_i (i pi / 2) J_p t dt,   R_p(i) = int_r_i^b H_p t dt.

    Each panel is cut at its 8 nodes into 9 pieces with one _PIECE_NODES-point
    Gauss rule each (_radial._integrals): J on the 8 pieces below the last
    node and H on the 8 above the first, in one factor pass over all pairs;
    J and H at the nodes are the terms' own.  A forward and a backward
    running sum over the pieces give L and R.  A nonfinite cell raises
    OverflowError naming its node.
    """
    coef = np.bincount(terms.pair, weights=terms.sign * terms.y[:, 0] ** 2,
                       minlength=len(terms.orders))
    n, n_pan, n_per = mesh.n_nodes, len(mesh.cells), mesh.n_per
    # Piece edges a, r_0 .. r_7, b of each panel.
    edges = np.column_stack([mesh.cells[:, 0], mesh.r.reshape(n_pan, n_per), mesh.cells[:, 1]])
    piece = np.arange(n_per + 1)
    with np.errstate(invalid="ignore", over="ignore"):
        jint, hint = _integrals(2, terms.orders, terms.w, terms.flip,
                                edges[:, :-1].ravel(), edges[:, 1:].ravel(),
                                np.tile(piece < n_per, n_pan), np.tile(piece > 0, n_pan),
                                _PIECE_NODES)
        # Node k of a panel: L sums pieces 0 .. k, R pieces k + 1 .. 8.
        left = np.cumsum(jint.reshape(-1, n_pan, n_per + 1)[..., :-1], axis=-1)
        right = np.cumsum(hint.reshape(-1, n_pan, n_per + 1)[..., :0:-1], axis=-1)[..., ::-1]
        cells = coef @ (terms.h * left.reshape(-1, n) + terms.j * right.reshape(-1, n))
    bad = np.flatnonzero(~np.isfinite(cells))
    if bad.size:
        raise OverflowError(f"2D own-panel cell of node {int(bad[0])} is not finite")
    return cells


def _assemble(bp: BladeParam, mesh: BladeMesh, chans, z: complex, omega: float,
              less_unshifted=False, free=None) -> np.ndarray:
    """diag(1/alpha) - (K_free + K) diag(w), each node's own cell integrated.

    K is the channel sum of chans (_channel_matrix: one matrix product of
    the node factors of _channel_terms), free the free kernel's (matrix,
    cells) if any.  A 2D node's own cell is its panel, over which the kinked
    channel sum is integrated by running sums over the node-split pieces
    (_panel_cells, on the same node factors) in place of the panel's
    quadrature entries; a 3D node's is the node, where the smooth channel
    sum is quadratured plainly.
    """
    n = mesh.n_nodes
    terms = _channel_terms(mesh, chans, z, omega, less_unshifted)
    K = _channel_matrix(mesh, terms)
    own = mesh.panel[:, None] == mesh.panel[None, :]
    if mesh.dim == 2:
        cells = _panel_cells(mesh, terms)
    else:
        cells = mesh.w * np.diag(K)
    if free is not None:
        K = free[0] + K
        cells = free[1] + cells
    M = -K * mesh.w[None, :]
    M[own] = 0.0
    M[np.diag_indices(n)] = -cells
    M[np.diag_indices(n)] += bp.inverse_strength(mesh.r)
    return M


def gamma_matrix(
    z: complex,
    bp: BladeParam,
    rot: RotationSpec,
    t: Truncation,
    mesh: BladeMesh,
) -> GammaMatrix:
    """Full boundary matrix diag(1/alpha) - kernel quadrature.

    The weakly singular diagonal goes through the free/shifted-difference
    split; a nonfinite cell integral raises MeshCellError naming the cell.
    """
    z = require_resolvent_energy(z)
    cls = channel_class(mesh.dim, bp)
    # Shift 0 has no difference between shifted and unshifted energies.
    chans = [ch for ch in cls.window(t) if ch.shift != 0]
    free = (_free_2d if mesh.dim == 2 else _free_3d)(z, mesh)
    M = _assemble(bp, mesh, chans, z, rot.omega, less_unshifted=True, free=free)
    return GammaMatrix(entries=M, z=z, variant="full")


def gamma_matrix_cutoff(
    cap: int,
    z: complex,
    bp: BladeParam,
    rot: RotationSpec,
    t: Truncation,
    mesh: BladeMesh,
) -> GammaMatrix:
    """Sharp-cutoff boundary matrix: |n| <= cap (2D) or l <= cap (3D).

    The finite channel sum has no logarithmic singularity, only a derivative
    kink, so no singular split is needed; the 2D diagonal still integrates
    the kinked row over its own panel for accuracy.
    """
    _require_integer("cap", cap)
    if cap < 0:
        raise ValueError(f"cap must be nonnegative, got {cap}")
    z = require_resolvent_energy(z)
    chans = channel_class(mesh.dim, bp).cutoff(cap, t)
    M = _assemble(bp, mesh, chans, z, rot.omega)
    return GammaMatrix(entries=M, z=z, variant=f"cutoff:{cap}")


def lambda_matrix(
    z: complex,
    channel0: ChannelIndex2 | ChannelIndex3,
    bp: BladeParam,
    mesh: BladeMesh,
    *,
    t: Truncation | None = None,
) -> GammaMatrix:
    """Single-channel model matrix: the rotation-free kernel of channel0's shift.

    The full matrix at parameter z - m0*omega converges to this as the
    rotation speeds up.  In 2D that is channel n0 alone; in 3D the degrees
    |m0|..l_max of shell m0, with the degree cap from t.
    """
    z = require_resolvent_energy(z)
    cls = channel_class(mesh.dim, channel0, bp)
    s0 = channel0.shift
    l_max = None if t is None else t.l_max
    if l_max is not None and l_max < abs(s0):
        raise ValueError(f"l_max={l_max} below channel order |m0|={abs(s0)}")
    chans = [ch for ch in cls.window(Truncation(abs(s0), l_max)) if ch.shift == s0]
    M = _assemble(bp, mesh, chans, z, 0.0)
    # The shift is the channel's last index: n in 2D, m in 3D.
    return GammaMatrix(entries=M, z=z, variant=f"lambda:{list(vars(channel0))[-1]}0={s0}")


def weighted_norm(mesh: BladeMesh, entries: np.ndarray) -> float:
    """Operator 2-norm in the mesh's weighted geometry: the largest singular
    value sigma of X = diag(sqrt w) E diag(1/sqrt w), E the entries.

    Golub-Kahan-Lanczos bidiagonalization (Golub & Van Loan, Matrix
    Computations, 4th ed., ch. 10) with full reorthogonalization, from a
    fixed start vector drawn from a generator seeded with _NORM_SEED, so a
    rerun gives the same bits.  Step k extends X V_k = U_k B_k, B_k upper
    bidiagonal with alpha_1 .. alpha_k on its diagonal and beta_1 ..
    beta_{k-1} above it; the top Ritz value s of B_k is the square root of
    the largest eigenvalue of the tridiagonal B_k B_k^T, with unit
    eigenvector p, and the residual of its Ritz pair in X is beta_k |p_k|.
    The iteration stops once that residual is at most _NORM_TOL * s, with
    _NORM_TOL = 1e-10 (s is then within 1e-10 relative of a singular value
    of X: the largest unless the start vector is nearly orthogonal to its
    singular vector),
    or after n steps, when the Krylov spaces span the whole space.  The
    step count and the final relative residual are logged at INFO.  A zero
    matrix gives 0.0; an entry that is NaN or infinite raises ValueError.
    """
    E = np.asarray(entries)
    if not np.isfinite(E).all():
        raise ValueError("weighted_norm: the matrix has a NaN or an infinite entry")
    sw = np.sqrt(mesh.w)
    X = sw[:, None] * E / sw[None, :]
    n = len(sw)
    # The Lanczos vectors u_k and v_k as rows: at most n steps.
    U, V = np.empty((n, n), dtype=complex), np.empty((n, n), dtype=complex)
    alpha, beta = np.empty(n), np.empty(n)
    rng = np.random.default_rng(_NORM_SEED)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    V[0] = v / math.sqrt(np.vdot(v, v).real)
    for k in range(n):
        p = X @ V[k]
        if k:
            p -= beta[k - 1] * U[k - 1]
        p = _orthogonalize(p, U[:k])
        alpha[k] = math.sqrt(np.vdot(p, p).real)
        if alpha[k] == 0.0:
            # X v_k lies in span U_{k-1}: span V_k is invariant, p_k = 0.
            s, resid = _top_ritz(alpha[: k + 1], beta[:k])[0], 0.0
            break
        U[k] = p / alpha[k]
        q = np.conj(np.conj(U[k]) @ X) - alpha[k] * V[k]
        q = _orthogonalize(q, V[: k + 1])
        b = math.sqrt(np.vdot(q, q).real)
        s, p_k = _top_ritz(alpha[: k + 1], beta[:k])
        resid = b * abs(p_k)
        if resid <= _NORM_TOL * s or k == n - 1:
            break
        beta[k] = b
        V[k + 1] = q / b
    rel = resid / s if s > 0.0 else 0.0
    logger.info("weighted norm: %d Lanczos steps, relative residual %.3g on %d unknowns",
                k + 1, rel, n)
    return float(s)


def _orthogonalize(x: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """x less its projection on the orthonormal rows of Q (one classical
    Gram-Schmidt pass)."""
    return x - np.conj(Q @ np.conj(x)) @ Q


# LAPACK's symmetric tridiagonal eigensolver in double precision.
(_STEV,) = get_lapack_funcs(("stev",), (np.zeros(1),))


def _top_ritz(alpha: np.ndarray, beta: np.ndarray) -> tuple:
    """The largest singular value of the upper bidiagonal B (alpha on the
    diagonal, beta above it) and the last entry of its left singular
    vector: the top eigenpair of the tridiagonal B B^T (LAPACK stev)."""
    d = alpha**2
    d[:-1] += beta**2
    e = alpha[1:] * beta if len(beta) else np.zeros(1)  # stev takes one entry at size 1
    vals, vecs, info = _STEV(d, e)
    if info:
        raise np.linalg.LinAlgError(f"tridiagonal eigensolver failed (info {info})")
    return math.sqrt(max(vals[-1], 0.0)), vecs[-1, -1]


def layer_fields(
    z: complex,
    xi: np.ndarray,
    rot: RotationSpec,
    mesh: BladeMesh,
    r_eval: np.ndarray,
    channels,
) -> dict:
    """Radial channel coefficients of the layer potential of density xi.

    Each multiplies its channel's ch.angular, as RadialChannelFunction
    values do.  Channel m is evaluated at energy z + m*omega.
    """
    channels = list(channels)
    channel_class(mesh.dim, *channels)
    r_eval = np.asarray(r_eval, dtype=float)
    xi = np.asarray(xi, dtype=complex)
    if xi.shape != mesh.r.shape:
        raise ValueError("density length must match the mesh")
    # Contract over the angular samples first: v_c = (w xi as (r, u)) @ y_c,
    # then G_c(r_eval, r) @ v_c.
    ys = _angular(mesh.dim, channels, mesh.angles).real
    v = (mesh.w * xi).reshape(len(mesh.r_1d), ys.shape[1]) @ ys.T
    blocks = separable_kernels(mesh.dim, [ch.order for ch in channels],
                               [z + ch.shift * rot.omega for ch in channels],
                               r_eval[:, None], mesh.r_1d[None, :])
    return dict(zip(channels, np.matmul(blocks, v.T[:, :, None])[:, :, 0]))


def form_probe(
    z: complex,
    xi: np.ndarray,
    bp: BladeParam,
    cap: int,
    rot: RotationSpec,
    t: Truncation,
    mesh: BladeMesh,
    psi: RadialChannelFunction | None = None,
) -> FormProbeResult:
    """Real part of the cutoff quadratic form at density xi.

    With a channel function psi supplied, also evaluates the lower-bound
    combination probe - 2 Im z Im(psi, field) - (Re z + omega*cap) |psi -
    field|^2, whose sign witnesses form positivity for sufficiently negative
    Re z.
    """
    xi = np.asarray(xi, dtype=complex)
    if xi.shape != mesh.r.shape:
        raise ValueError("density length must match the mesh")
    M = gamma_matrix_cutoff(cap, z, bp, rot, t, mesh).entries
    probe = float(np.real(np.sum(mesh.w * np.conj(xi) * (M @ xi))))
    if psi is None:
        return FormProbeResult(probe=probe)
    cls = channel_class(bp.dim, psi)
    fields = layer_fields(z, xi, rot, mesh, psi.grid, cls.cutoff(cap, t))
    wq = psi.quad_weights()
    rfac = psi.grid ** (bp.dim - 1)
    inner = 0.0 + 0.0j
    mism = 0.0
    ch0 = psi.channel
    for ch, c in fields.items():
        if ch == ch0:
            inner += np.sum(wq * np.conj(psi.values) * c * rfac)
            mism += float(np.sum(wq * np.abs(psi.values - c) ** 2 * rfac))
        else:
            mism += float(np.sum(wq * np.abs(c) ** 2 * rfac))
    if ch0 not in fields:
        mism += float(np.sum(wq * np.abs(psi.values) ** 2 * rfac))
    z = complex(z)
    lhs = probe - 2.0 * z.imag * inner.imag - (z.real + rot.omega * cap) * mism
    return FormProbeResult(probe=probe, ineq_lhs=float(lhs))


def _dense_solve(M: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve M x = rhs by one LU factorisation, checked before it is used.

    The 1-norm condition number is estimated from the same LU (LAPACK
    gecon: Hager, SIAM J. Sci. Stat. Comput. 1984; Higham, ACM TOMS 1988)
    and logged; above _COND_LIMIT, or for an exactly singular M (estimate
    infinite), ConditioningError.  The one Lippmann-Schwinger solver of the
    blade and averaged systems.
    """
    with warnings.catch_warnings():
        # An exactly singular factor is reported below, by its estimate.
        warnings.simplefilter("ignore", LinAlgWarning)
        lu = lu_factor(M)
    (gecon,) = get_lapack_funcs(("gecon",), (lu[0],))
    rcond, _ = gecon(lu[0], np.linalg.norm(M, 1), norm="1")
    cond = 1.0 / rcond if rcond > 0.0 else math.inf
    logger.info("dense solve: 1-norm condition estimate %.3g on %d unknowns", cond, len(M))
    if cond > _COND_LIMIT:
        raise ConditioningError(
            f"1-norm condition estimate {cond:.3g} of the {len(M)}-unknown dense solve "
            f"exceeds {_COND_LIMIT:g}"
        )
    return lu_solve(lu, rhs)


def solve_density(
    z: complex,
    psi: RadialChannelFunction,
    bp: BladeParam,
    rot: RotationSpec,
    t: Truncation,
    mesh: BladeMesh,
) -> BoundaryDensity:
    """Boundary density of the blade resolvent applied to psi.

    One dense solve (_dense_solve) of the full boundary matrix against the
    free-field trace, which fails above the trust bound on its condition
    estimate.
    """
    channel_class(bp.dim, psi, mesh)
    M = gamma_matrix(z, bp, rot, t, mesh).entries
    trace = _free_trace(psi, z + psi.channel.shift * rot.omega, mesh)
    return BoundaryDensity(values=_dense_solve(M, trace))


def _free_trace(psi: RadialChannelFunction, energy: complex, mesh: BladeMesh) -> np.ndarray:
    """The free field of psi on the mesh nodes: its channel's free radial
    resolvent at energy on the radial nodes (radial_apply) times its
    angular factor at the angular samples, flattened r-major."""
    fp = radial_apply(psi, energy, mesh.r_1d)
    return np.outer(fp, _angular(mesh.dim, [psi.channel], mesh.angles)[0].real).ravel()


def apply_blade_resolvent(
    z: complex,
    psi: RadialChannelFunction,
    bp: BladeParam,
    rot: RotationSpec,
    t: Truncation,
    mesh: BladeMesh,
    eval_points,
) -> np.ndarray:
    """Blade-interaction resolvent field of psi at the given points.

    Free part plus the layer potential of one dense boundary solve; channel m
    runs at energy z + m*omega, with channels drawn from the window t.
    """
    cls = channel_class(bp.dim, mesh, *eval_points)
    density = solve_density(z, psi, bp, rot, t, mesh)
    ch = psi.channel
    r_pts = np.array([p.r for p in eval_points], dtype=float)
    fp_pts = radial_apply(psi, z + ch.shift * rot.omega, r_pts)
    fields = layer_fields(z, density.values, rot, mesh, r_pts, cls.window(t))
    # Every channel's angular factor at every point from one harmonic call.
    n_angles = len(cls.source_angles)
    angles = np.array([p.angles for p in eval_points]).reshape(len(r_pts), n_angles).T
    ys = _angular(bp.dim, [ch, *fields], angles).tolist()
    out = np.zeros(len(r_pts), dtype=complex)
    for i in range(len(r_pts)):
        val = fp_pts[i] * ys[0][i]
        for y, c in zip(ys[1:], fields.values()):
            val += c[i] * y[i]
        out[i] = val
    return out


def averaged_resolvent(
    dim: int,
    z: complex,
    bp: BladeParam,
    psi: RadialChannelFunction,
    resolution: int | None = None,
) -> RadialChannelFunction:
    """Resolvent of the rotation-averaged operator: radial potential alpha
    on [0, A] in the channel of psi, solved as a Lippmann-Schwinger system.

    The potential enters exactly as given; zero strength reproduces the free
    resolvent.  Nystrom collocation on a Gauss mesh over [0, A], then one
    back-substitution onto the grid of psi.
    """
    channel_class(dim, psi, bp)
    z = require_resolvent_energy(z)
    if resolution is not None:
        _require_integer("resolution", resolution)
        if resolution < 1:
            raise ValueError(f"resolution must be at least 1, got {resolution}")
    rr, ww = _radial_nodes(dim, bp.A, resolution)
    mu = _potential_weights(bp, rr, lambda alpha: alpha * ww * rr ** (dim - 1))
    # One pass gives the free part on the grid and on the solver nodes.
    free = radial_apply(psi, z, np.concatenate([psi.grid, rr]))
    free_grid, free_rr = np.split(free, [len(psi.grid)])
    vals = free_grid + _ls_correction(dim, z, psi.order, rr, mu, free_rr, psi.grid)
    return RadialChannelFunction(psi.channel, psi.grid, vals, psi.weights)


def _potential_weights(bp: BladeParam, rr: np.ndarray, weights) -> np.ndarray:
    """weights(alpha) of a radial potential at its solver nodes rr, each
    caller's own product of the strength with its quadrature weights; a
    weight that leaves the doubles raises OverflowError."""
    alpha = bp.alpha_values(rr)
    with np.errstate(over="ignore"):
        mu = weights(alpha)
    if not np.isfinite(mu).all():
        raise OverflowError(f"averaged potential weights of the blade (A={bp.A:g}) overflow")
    return mu


def _ls_correction(dim, z, order, rr, mu, free_rr, r_out) -> np.ndarray:
    """Lippmann-Schwinger correction K(r_out, rr) @ (mu u) of a radial potential.

    mu is the potential times the quadrature weights on the ascending nodes
    rr (the caller's strength convention), K the free kernel of the channel
    order at z, free_rr the free resolvent R0 psi on rr, and (I - K diag(mu))
    u = R0 psi, one dense solve.  The back-substitution onto r_out is O(N):
    with m = mu u and K = (i pi / 2) J(w r<) H(w r>),

        sum_j K(r, rr_j) m_j  =  H(w r) sum_{rr_j < r} J_j m_j + J(w r) sum_{rr_j >= r} H_j m_j,

    a forward and a backward running sum over the nodes, on the factors of
    one _factors pass over the radii of both sides (J only where some entry
    takes it at its smaller radius, H at its larger).  A nonfinite value
    raises separable_kernels' OverflowError.
    """
    K = separable_kernels(dim, order, z, rr[:, None], rr[None, :])
    M = np.eye(len(rr), dtype=complex) - K * mu[None, :]
    m = mu * _dense_solve(M, free_rr)
    n = len(rr)
    radii = np.concatenate([rr, r_out])
    below = np.searchsorted(rr, r_out)  # the nodes rr_j < r
    need_j = np.concatenate([rr < r_out.max(), below < n])
    need_h = np.concatenate([rr >= r_out.min(), below > 0])
    w = _roots(np.asarray(z, dtype=complex))
    with np.errstate(invalid="ignore", over="ignore"):
        j, h = _factors(dim, order, w, z.imag < 0.0, radii, need_j, need_h)
        left = np.concatenate([[0.0], np.cumsum(j[:n] * m)])
        right = np.concatenate([np.cumsum((h[:n] * m)[::-1])[::-1], [0.0]])
        out = h[n:] * left[below] + j[n:] * right[below]
    _check_finite("radial kernel", dim, order, z, out, r_out)
    return out
