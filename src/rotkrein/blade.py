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
Channel c contributes kron(G_c, y_c y_c^T): G_c = g_c(r_i, r_j) on the
radial nodes, y_c the orthonormal angular factor at the samples
(Y_l^m(theta_u, 0) in 3D, 1/sqrt(2 pi) in 2D).  _blocks makes one
separable_kernels call over the distinct (order, energy) pairs of the
channels; one channel sum (_channel_sum) gives every
boundary matrix and 2D own-panel cell integrand, and layer_fields contracts
the density with y_c before the radial block.  Per dimension stay only the
meshes and angular samples, the free kernel with its singular diagonal
cells (2D: log moment plus regular remainder over the node's own panel,
whose quadrature entries the cell replaces; 3D: tangent-plane rectangles,
all cells as one array), and the averaged solver's radial rule (_radial_nodes).
Sharp-cutoff and single-channel model matrices, the quadratic-form probe,
resolvent application with a dense solve, and the plain averaged radial
solver live here as well.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.special as sp

from ._radial import radial_apply, separable_kernels
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

_XG12, _WG12 = np.polynomial.legendre.leggauss(12)
_XG8, _WG8 = np.polynomial.legendre.leggauss(8)


class MeshCellError(RuntimeError):
    """A diagonal-cell integral failed; the message names the cell."""


class ConditioningError(RuntimeError):
    """The boundary solve is too ill conditioned to trust."""


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
    """Tensor Gauss mesh on the blade with surface-measure weights.

    2D: composite Gauss on [0, A], n_per nodes per panel, weights r dr.
    3D: tensor Gauss in (r, u = cos theta), weights r^2 dr du, flattened
    r-major.  Weight sums are exact: A^2/2 and 2 A^3/3.
    """

    dim: int
    A: float
    r: np.ndarray
    w: np.ndarray
    u: np.ndarray | None = None
    r_1d: np.ndarray | None = None
    u_1d: np.ndarray | None = None
    cells: np.ndarray | None = None
    n_per: int | None = None

    def __post_init__(self) -> None:
        # r^(dim-1) dr over [0, A] times the angular measure: 1 for the 2D
        # segment's one sample, 2 for du over [-1, 1] in 3D.
        target = (self.dim - 1) * self.A**self.dim / self.dim
        total = float(np.sum(self.w))
        if abs(total - target) > 1e-12 * target:
            raise ValueError(
                f"weight sum {total!r} misses the blade measure {target!r}"
            )

    @property
    def n_nodes(self) -> int:
        return len(self.r)

    def theta(self) -> np.ndarray:
        if self.u is None:
            raise ValueError("2D mesh has no polar angle")
        return np.arccos(self.u)


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


def _radial_nodes(dim: int, A: float, n: int | None = None) -> tuple:
    """Radial nodes and plain dr weights of the averaged solver on [0, A].

    2D: n 8-point Gauss panels (24 by default); 3D: one n-point Gauss rule
    (64 by default).  Callers multiply in r^(dim-1) and their potential.
    """
    if dim == 2:
        return _panel_nodes(A, 24 if n is None else n)[1:]
    xg, wg = np.polynomial.legendre.leggauss(64 if n is None else n)
    return 0.5 * A * (xg + 1.0), 0.5 * A * wg


def build_mesh(dim: int, A: float, resolution: int) -> BladeMesh:
    """Tensor Gauss mesh: resolution panels (2D) or nodes per direction (3D)."""
    channel_class(dim)
    _require_integer("resolution", resolution)
    if resolution < 2:
        raise ValueError(f"resolution must be at least 2, got {resolution}")
    if not (math.isfinite(A) and A > 0.0):
        raise ValueError(f"blade radius must be positive, got {A}")
    if dim == 2:
        # The segment at theta = 0: one angular sample.
        edges, r, w = _panel_nodes(A, resolution)
        cells = np.stack([edges[:-1], edges[1:]], axis=1)
        return BladeMesh(dim=2, A=A, r=r, w=w * r, r_1d=r, cells=cells, n_per=8)
    r1, wr = _radial_nodes(3, A, resolution)
    xu, wu = np.polynomial.legendre.leggauss(resolution)
    R, U = np.meshgrid(r1, xu, indexing="ij")
    W = np.outer(wr * r1**2, wu)
    return BladeMesh(
        dim=3, A=A, r=R.ravel(), w=W.ravel(), u=U.ravel(), r_1d=r1, u_1d=xu,
    )


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
    """Integral of a kinked row over each node's own panel, all nodes at once.

    integrand(r, t) takes node radii of shape (n, 1) and points of shape
    (n, 24): 12 Gauss points on [a, r_i] and 12 on [r_i, b], with [a, b] the
    node's panel.  A side narrower than 1e-15 contributes nothing.
    """
    r = mesh.r
    a, b = mesh.cells[np.arange(len(r)) // mesh.n_per].T
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
    K[iu] = K[iu[::-1]] = 0.25j * sp.hankel1(0, wz * np.abs(r[iu[0]] - r[iu[1]]))
    panels = mesh.cells[np.arange(len(r)) // mesh.n_per]
    log_part = np.array([_log_moment(a, b, ri) for (a, b), ri in zip(panels, r)])
    cells = -log_part / (2.0 * math.pi) + _diag_cells(
        mesh, lambda ri, tt: _free2_reg(z, np.abs(ri - tt)) * tt
    )
    bad = np.flatnonzero(~np.isfinite(cells))
    if bad.size:
        i = int(bad[0])
        p = i // mesh.n_per
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
    r_i, th_i = mesh.r, mesh.theta()
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
    R, th = mesh.r, mesh.theta()
    D = _chord(R[:, None], th[:, None], R[None, :], th[None, :])
    np.fill_diagonal(D, 1.0)
    K = np.exp(1j * sqrt_upper(z) * D) / (4.0 * math.pi * D)
    return K, _free_cells_3d(z, mesh)


# ---------------------------------------------------------------------------
# Channel sums on the tensor mesh, both dimensions


def _angular(mesh: BladeMesh, chans) -> np.ndarray:
    """Orthonormal angular factor y_c of each channel at the mesh's angular
    samples (real), shape (channels, samples): 1/sqrt(2 pi) at the 2D
    segment's one sample theta = 0, Y_l^m(theta_u, 0) at the 3D polar nodes
    (one harmonic call)."""
    if mesh.dim == 2:
        return np.full((len(chans), 1), 1.0 / math.sqrt(ChannelIndex2.harmonic_norm_sq))
    lm = np.array([(ch.l, ch.m) for ch in chans], dtype=int).reshape(-1, 2)
    th_u = np.arccos(mesh.u_1d)
    return np.real(sp.sph_harm_y(lm[:, :1], lm[:, 1:], th_u, 0.0))


def _blocks(dim: int, chans, z: complex, omega: float, r, rp) -> np.ndarray:
    """Radial blocks G_c = g_c(z + shift_c * omega; r, rp), stacked in channel
    order, shape (channels,) + the broadcast shape of r and rp.

    One separable_kernels call over the distinct (order, energy) pairs; the
    channels that repeat a pair (every channel of one degree at omega = 0)
    take its block.
    """
    keys = [(ch.order, z + ch.shift * omega) for ch in chans]
    distinct = list(dict.fromkeys(keys))
    g = separable_kernels(dim, [o for o, _ in distinct], [e for _, e in distinct], r, rp)
    if len(distinct) < len(keys):
        g = g[[distinct.index(k) for k in keys]]
    return g


def _channel_sum(mesh: BladeMesh, chans, z: complex, omega: float, less_unshifted=False):
    """The channel sum of chans as a kernel of radius arrays on the mesh.

    kernel(r, rp) = sum_c kron(G_c, y_c y_c^T), one tensordot over the
    channels, with G_c the block at z + shift_c * omega, less the block at
    z if less_unshifted (the smooth differences of the full matrix).  Radial
    node vectors give the mesh matrix; the 2D own-panel cells pass (node,
    quadrature point) arrays, which one angular sample leaves as they are.
    """
    ys = _angular(mesh, chans)
    outer = ys[:, :, None] * ys[:, None, :]

    def kernel(r, rp):
        blocks = _blocks(mesh.dim, chans, z, omega, r, rp)
        if less_unshifted:
            blocks -= _blocks(mesh.dim, chans, z, 0.0, r, rp)
        n_a, n_b = blocks.shape[1:]
        n_u = ys.shape[1]
        K = np.tensordot(blocks, outer, axes=(0, 0))  # axes r, r', u, u'
        return K.transpose(0, 2, 1, 3).reshape(n_a * n_u, n_b * n_u)

    return kernel


def _assemble(bp: BladeParam, mesh: BladeMesh, kernel, free=None) -> np.ndarray:
    """diag(1/alpha) - (K_free + K) diag(w), each node's own cell integrated.

    kernel is a _channel_sum, free the free kernel's (matrix, cells) if any.
    A 2D node's own cell is its panel, over which the kinked channel sum is
    integrated (_diag_cells) in place of the panel's quadrature entries; a 3D
    node's is the node, where the smooth channel sum is quadratured plainly.
    """
    n = mesh.n_nodes
    r1 = mesh.r_1d
    K = kernel(r1[:, None], r1[None, :])
    if mesh.dim == 2:
        panel = np.arange(n) // mesh.n_per
        own = panel[:, None] == panel[None, :]
        cells = _diag_cells(mesh, lambda ri, tt: kernel(ri, tt) * tt)
    else:
        own = np.eye(n, dtype=bool)
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
    if mesh.n_nodes > _MAX_DENSE_NODES:
        raise ValueError(f"mesh exceeds the dense budget of {_MAX_DENSE_NODES} nodes")
    # Shift 0 has no difference between shifted and unshifted energies.
    chans = [ch for ch in cls.window(t) if ch.shift != 0]
    kernel = _channel_sum(mesh, chans, z, rot.omega, less_unshifted=True)
    free = (_free_2d if mesh.dim == 2 else _free_3d)(z, mesh)
    return GammaMatrix(entries=_assemble(bp, mesh, kernel, free), z=z, variant="full")


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
    M = _assemble(bp, mesh, _channel_sum(mesh, chans, z, rot.omega))
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
    M = _assemble(bp, mesh, _channel_sum(mesh, chans, z, 0.0))
    # The shift is the channel's last index: n in 2D, m in 3D.
    return GammaMatrix(entries=M, z=z, variant=f"lambda:{list(vars(channel0))[-1]}0={s0}")


def weighted_norm(mesh: BladeMesh, entries: np.ndarray) -> float:
    """Operator norm in the mesh's weighted geometry."""
    sw = np.sqrt(mesh.w)
    return float(np.linalg.norm(sw[:, None] * entries / sw[None, :], 2))


def layer_fields(
    z: complex,
    xi: np.ndarray,
    rot: RotationSpec,
    mesh: BladeMesh,
    r_eval: np.ndarray,
    channels,
) -> dict:
    """Radial channel coefficients of the layer potential of density xi.

    2D coefficients multiply exp(i n theta); 3D coefficients multiply
    Y_l^m(theta, phi).  Channel m is evaluated at energy z + m*omega.
    """
    channels = list(channels)
    cls = channel_class(mesh.dim, *channels)
    r_eval = np.asarray(r_eval, dtype=float)
    xi = np.asarray(xi, dtype=complex)
    if xi.shape != mesh.r.shape:
        raise ValueError("density length must match the mesh")
    # Contract over the angular samples first: v_c = (w xi as (r, u)) @ y_c,
    # then G_c(r_eval, r) @ v_c.
    ys = _angular(mesh, channels)
    v = (mesh.w * xi).reshape(len(mesh.r_1d), ys.shape[1]) @ ys.T
    blocks = _blocks(mesh.dim, channels, z, rot.omega, r_eval[:, None], mesh.r_1d[None, :])
    # y_c is the orthonormal factor; the fields multiply the harmonic.
    coef = np.matmul(blocks, v.T[:, :, None])[:, :, 0] / math.sqrt(cls.harmonic_norm_sq)
    return dict(zip(channels, coef))


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
    rg = psi.grid
    rfac = rg ** (bp.dim - 1)
    # Layer fields multiply the channel harmonic, psi its orthonormal factor.
    angular = cls.harmonic_norm_sq
    coef0 = psi.values / math.sqrt(angular)
    inner = 0.0 + 0.0j
    mism = 0.0
    ch0 = psi.channel
    for ch, c in fields.items():
        if ch == ch0:
            inner += angular * np.sum(wq * np.conj(coef0) * c * rfac)
            mism += angular * float(np.sum(wq * np.abs(coef0 - c) ** 2 * rfac))
        else:
            mism += angular * float(np.sum(wq * np.abs(c) ** 2 * rfac))
    if ch0 not in fields:
        mism += angular * float(np.sum(wq * np.abs(coef0) ** 2 * rfac))
    z = complex(z)
    lhs = probe - 2.0 * z.imag * inner.imag - (z.real + rot.omega * cap) * mism
    return FormProbeResult(probe=probe, ineq_lhs=float(lhs))


def _free_radial(
    z: complex, psi: RadialChannelFunction, rot: RotationSpec, r: np.ndarray
) -> np.ndarray:
    """Free-resolvent radial profile of psi at radii r.

    Channel m0 of the rotating frame sits at energy z + m0*omega.
    """
    return radial_apply(psi, z + psi.channel.shift * rot.omega, r)


def solve_density(
    z: complex,
    psi: RadialChannelFunction,
    bp: BladeParam,
    rot: RotationSpec,
    t: Truncation,
    mesh: BladeMesh,
    *,
    gm: GammaMatrix | None = None,
) -> BoundaryDensity:
    """Boundary density of the blade resolvent applied to psi.

    One dense solve of the full boundary matrix against the free-field trace;
    reports the condition number and fails above the trust bound.  A matrix
    already assembled for this (z, mesh) can be passed to skip reassembly.
    """
    channel_class(bp.dim, psi, mesh)
    if gm is not None and gm.z != complex(z):
        raise ValueError("prebuilt matrix was assembled at a different parameter")
    M = gm.entries if gm is not None else gamma_matrix(z, bp, rot, t, mesh).entries
    cond = float(np.linalg.cond(M))
    logger.info("boundary solve conditioning %.3g on %d nodes", cond, mesh.n_nodes)
    if cond > _COND_LIMIT:
        raise ConditioningError(
            f"boundary matrix condition number {cond:.3g} exceeds {_COND_LIMIT:g}"
        )
    fp = _free_radial(z, psi, rot, mesh.r_1d)
    trace = np.outer(fp, _angular(mesh, [psi.channel])[0]).ravel()
    phi = np.linalg.solve(M, trace)
    return BoundaryDensity(values=phi)


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
    fp_pts = _free_radial(z, psi, rot, r_pts)
    fields = layer_fields(z, density.values, rot, mesh, r_pts, cls.window(t))
    out = np.zeros(len(r_pts), dtype=complex)
    for i, p in enumerate(eval_points):
        # psi multiplies the orthonormal factor, the layer fields the harmonic.
        val = fp_pts[i] * ch.harmonic(*p.angles) / math.sqrt(cls.harmonic_norm_sq)
        for cch, c in fields.items():
            val += c[i] * cch.harmonic(*p.angles)
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
    mu = bp.alpha_values(rr) * ww * rr ** (dim - 1)
    # One pass gives the free part on the grid and on the solver nodes.
    free = radial_apply(psi, z, np.concatenate([psi.grid, rr]))
    free_grid, free_rr = np.split(free, [len(psi.grid)])
    vals = free_grid + _ls_correction(dim, z, psi.order, rr, mu, free_rr, psi.grid)
    return RadialChannelFunction(psi.channel, psi.grid, vals, psi.weights)


def _ls_correction(dim, z, order, rr, mu, free_rr, r_out) -> np.ndarray:
    """Lippmann-Schwinger correction K(r_out, rr) @ (mu u) of a radial potential.

    mu is the potential times the quadrature weights on the nodes rr (the
    caller's strength convention), K the free kernel of the channel order at
    z, free_rr the free resolvent R0 psi on rr, and (I - K diag(mu)) u = R0 psi.
    """
    K = separable_kernels(dim, order, z, rr[:, None], rr[None, :])
    M = np.eye(len(rr), dtype=complex) - K * mu[None, :]
    u = np.linalg.solve(M, free_rr)
    return separable_kernels(dim, order, z, r_out[:, None], rr[None, :]) @ (mu * u)
