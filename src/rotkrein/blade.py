"""Interaction supported on a rotating blade: half disc (3D) or segment (2D).

The boundary operator on the blade is Nystrom-discretized as

    M  =  diag(1/alpha) - K . diag(mu)

with mu the surface measure weights and K the rotating-frame kernel on the
blade.  The full kernel is split as

    K  =  K_free(z)  +  sum_m [channel_m(z + m w) - channel_m(z)]

where the second part is a smooth channel-wise difference of resolvents at
shifted and unshifted energies, quadratured plainly, and the free part's
1/(4 pi d) (3D) or -(1/2 pi) log d (2D) singularity is integrated in closed
form over each diagonal mesh cell.  Every channel matrix comes from the
separable core _radial.separable_kernel, with J and H evaluated once per
distinct node radius; the unshifted channel_m(z) depends on |m| (2D) or l
(3D) only and is built once per matrix.  The 3D tensor mesh has one radius
per radial Gauss node, so its channel matrices are built on those radii and
expanded by index.  In 2D, all three boundary matrices integrate the
kinked diagonal row over the node's own panel through one batched routine,
_diag_cells.  Sharp-cutoff and single-channel model matrices, the
quadratic-form probe, resolvent application with a dense solve, and the
plain averaged radial solver live here as well.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.special as sp

from ._radial import radial_apply, separable_kernel
from .greens import require_resolvent_energy
from .pointint import RadialChannelFunction
from .rotframe import RotationSpec, Truncation
from .specfun import ChannelIndex2, ChannelIndex3, sqrt_upper

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
        if self.dim not in (2, 3):
            raise ValueError(f"dimension must be 2 or 3, got {self.dim}")
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
        target = self.A**2 / 2.0 if self.dim == 2 else 2.0 * self.A**3 / 3.0
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


def build_mesh(dim: int, A: float, resolution: int) -> BladeMesh:
    """Tensor Gauss mesh: resolution panels (2D) or nodes per direction (3D)."""
    if dim not in (2, 3):
        raise ValueError(f"dimension must be 2 or 3, got {dim}")
    if resolution < 2:
        raise ValueError(f"resolution must be at least 2, got {resolution}")
    if not (math.isfinite(A) and A > 0.0):
        raise ValueError(f"blade radius must be positive, got {A}")
    if dim == 2:
        n_per = 8
        edges = np.linspace(0.0, A, resolution + 1)
        xg, wg = np.polynomial.legendre.leggauss(n_per)
        rr, ww = [], []
        for a, b in zip(edges[:-1], edges[1:]):
            half, mid = 0.5 * (b - a), 0.5 * (a + b)
            r_p = mid + half * xg
            rr.append(r_p)
            ww.append(half * wg * r_p)
        cells = np.stack([edges[:-1], edges[1:]], axis=1)
        return BladeMesh(
            dim=2, A=A, r=np.concatenate(rr), w=np.concatenate(ww),
            cells=cells, n_per=n_per,
        )
    xr, wr = np.polynomial.legendre.leggauss(resolution)
    xu, wu = np.polynomial.legendre.leggauss(resolution)
    r1 = 0.5 * A * (xr + 1.0)
    wr_full = 0.5 * A * wr * r1**2
    R, U = np.meshgrid(r1, xu, indexing="ij")
    W = np.outer(wr_full, wu)
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


def _panel_matrix_2d(K: np.ndarray, cells: np.ndarray, bp: BladeParam, mesh: BladeMesh):
    """diag(1/alpha) - K diag(w), with each node's own panel replaced by its cell."""
    n = mesh.n_nodes
    panel = np.arange(n) // mesh.n_per
    M = -K * mesh.w[None, :]
    M[panel[:, None] == panel[None, :]] = 0.0
    M[np.diag_indices(n)] = -cells
    M[np.diag_indices(n)] += bp.inverse_strength(mesh.r)
    return M


def _diff2(ns, z: complex, omega: float, r, rp):
    """Smooth part: channel differences at shifted vs unshifted energies."""
    unshifted = {}
    acc = None
    for n in ns:
        if n == 0:
            continue
        if abs(n) not in unshifted:
            unshifted[abs(n)] = separable_kernel(2, n, z, r, rp)
        d = separable_kernel(2, n, z + n * omega, r, rp) - unshifted[abs(n)]
        acc = d if acc is None else acc + d
    if acc is None:
        return np.zeros(np.broadcast(np.asarray(r), np.asarray(rp)).shape, dtype=complex)
    return acc / (2.0 * math.pi)


def _sum2(ns, z: complex, omega: float, r, rp):
    """Windowed channel sum of the rotating kernel on the segment."""
    acc = None
    for n in ns:
        d = separable_kernel(2, n, z + n * omega, r, rp)
        acc = d if acc is None else acc + d
    return acc / (2.0 * math.pi)


def _gamma_full_2d(
    z: complex, bp: BladeParam, rot: RotationSpec, t: Truncation, mesh: BladeMesh
) -> np.ndarray:
    r = mesh.r
    wz = sqrt_upper(z)
    ns = range(-t.m_max, t.m_max + 1)
    D = np.abs(r[:, None] - r[None, :])
    np.fill_diagonal(D, 1.0)
    K = 0.25j * sp.hankel1(0, wz * D)
    K = K + _diff2(ns, z, rot.omega, r[:, None], r[None, :])
    panels = mesh.cells[np.arange(len(r)) // mesh.n_per]
    log_part = np.array([_log_moment(a, b, ri) for (a, b), ri in zip(panels, r)])
    free_cells = -log_part / (2.0 * math.pi) + _diag_cells(
        mesh, lambda ri, tt: _free2_reg(z, np.abs(ri - tt)) * tt
    )
    cells = free_cells + _diag_cells(
        mesh, lambda ri, tt: _diff2(ns, z, rot.omega, ri, tt) * tt
    )
    bad = np.flatnonzero(~np.isfinite(cells))
    if bad.size:
        i = int(bad[0])
        p = i // mesh.n_per
        a, b = mesh.cells[p]
        raise MeshCellError(
            f"singular split failed on panel {p} cell [{a:.6g}, {b:.6g}] node {i}"
        )
    return _panel_matrix_2d(K, cells, bp, mesh)


# ---------------------------------------------------------------------------
# 3D cell integrals


def _quad_Q(p: float, q: float) -> float:
    """Integral of 1/sqrt(x^2 + y^2) over [0, p] x [0, q]."""
    if p <= 0.0 or q <= 0.0:
        return 0.0
    return p * math.asinh(q / p) + q * math.asinh(p / q)


def _rect_moment(x0: float, x1: float, y0: float, y1: float) -> float:
    """Integral of 1/sqrt(x^2 + y^2) over [x0, x1] x [y0, y1], origin inside."""
    return (
        _quad_Q(-x0, -y0) + _quad_Q(x1, -y0) + _quad_Q(-x0, y1) + _quad_Q(x1, y1)
    )


def _chord(r1, t1, r2, t2):
    return np.sqrt(np.maximum(r1**2 + r2**2 - 2.0 * r1 * r2 * np.cos(t1 - t2), 0.0))


def _free_cell_3d(
    z: complex, r_i: float, th_i: float,
    ar: float, br: float, ua: float, ub: float,
) -> complex:
    """Free-kernel integral over the (r, u) cell around node i.

    The 1/(4 pi d) part goes through the tangent-plane rectangle in closed
    form; the remaining (exp(i w d) - 1)/(4 pi d) is regular and handled by
    a small product Gauss rule with the exact measure.
    """
    wz = sqrt_upper(z)
    s_lo = r_i * (math.acos(ub) - th_i)
    s_hi = r_i * (math.acos(ua) - th_i)
    sing = (r_i * math.sin(th_i) / (4.0 * math.pi)) * _rect_moment(
        ar - r_i, br - r_i, s_lo, s_hi
    )
    rhalf, rmid = 0.5 * (br - ar), 0.5 * (br + ar)
    uhalf, umid = 0.5 * (ub - ua), 0.5 * (ub + ua)
    rr = rmid + rhalf * _XG8
    uu = umid + uhalf * _XG8
    Rp, Up = np.meshgrid(rr, uu, indexing="ij")
    Wc = np.outer(_WG8 * rhalf, _WG8 * uhalf)
    d = _chord(r_i, th_i, Rp, np.arccos(Up))
    vals = np.where(
        d < 1e-12, 1j * wz / (4.0 * math.pi),
        (np.exp(1j * wz * d) - 1.0) / (4.0 * math.pi * d),
    )
    rem = np.sum(Wc * vals * Rp**2)
    return complex(sing + rem)


def _midpoint_edges(x: np.ndarray, lo: float, hi: float) -> np.ndarray:
    return np.concatenate([[lo], 0.5 * (x[:-1] + x[1:]), [hi]])


def _y_flat(mesh: BladeMesh, l: int, m: int) -> np.ndarray:
    """Y_l^m(theta, 0) on the flattened tensor mesh (real valued)."""
    th_u = np.arccos(mesh.u_1d)
    y_u = np.real(sp.sph_harm_y(l, m, th_u, 0.0))
    return np.tile(y_u, len(mesh.r_1d))


def _kernel_3d(mesh: BladeMesh, l: int, z: complex, r_rows=None) -> np.ndarray:
    """g_l(z) from r_rows (default: the mesh nodes) to the flat mesh nodes.

    Built on the distinct radii of the tensor mesh, then expanded by index.
    """
    r1 = mesh.r_1d
    idx = np.repeat(np.arange(len(r1)), len(mesh.u_1d))
    if r_rows is None:
        return separable_kernel(3, l, z, r1[:, None], r1[None, :])[np.ix_(idx, idx)]
    # take, not [:, idx]: the product with the density must see the same
    # row-major layout as a directly built matrix, or BLAS sums differently.
    return np.take(separable_kernel(3, l, z, r_rows[:, None], r1[None, :]), idx, axis=1)


def _gamma_full_3d(
    z: complex, bp: BladeParam, rot: RotationSpec, t: Truncation, mesh: BladeMesh
) -> np.ndarray:
    R, W = mesh.r, mesh.w
    th = mesh.theta()
    n = len(R)
    l_max = t.require_l_max()
    wz = sqrt_upper(z)
    D = _chord(R[:, None], th[:, None], R[None, :], th[None, :])
    np.fill_diagonal(D, 1.0)
    K_free = np.exp(1j * wz * D) / (4.0 * math.pi * D)
    K_diff = np.zeros((n, n), dtype=complex)
    unshifted = {}
    for m in range(-t.m_max, t.m_max + 1):
        if m == 0:
            continue
        for l in range(abs(m), l_max + 1):
            y = _y_flat(mesh, l, m)
            if l not in unshifted:
                unshifted[l] = _kernel_3d(mesh, l, z)
            diff = _kernel_3d(mesh, l, z + m * rot.omega) - unshifted[l]
            K_diff += diff * np.outer(y, y)
    M = -(K_free + K_diff) * W[None, :]
    redges = _midpoint_edges(mesh.r_1d, 0.0, mesh.A)
    uedges = _midpoint_edges(mesh.u_1d, -1.0, 1.0)
    n_u = len(mesh.u_1d)
    for i in range(n):
        ir, iu = divmod(i, n_u)
        cell = _free_cell_3d(
            z, R[i], th[i],
            redges[ir], redges[ir + 1], uedges[iu], uedges[iu + 1],
        )
        if not np.isfinite(cell):
            raise MeshCellError(
                f"singular split failed on cell (r {ir}, u {iu}) node {i}"
            )
        M[i, i] = -(cell + W[i] * K_diff[i, i])
    M[np.diag_indices(n)] += bp.inverse_strength(R)
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
    if mesh.dim != bp.dim:
        raise ValueError("mesh and blade parameter dimensions differ")
    if mesh.n_nodes > _MAX_DENSE_NODES:
        raise ValueError(f"mesh exceeds the dense budget of {_MAX_DENSE_NODES} nodes")
    if bp.dim == 2:
        entries = _gamma_full_2d(z, bp, rot, t, mesh)
    else:
        entries = _gamma_full_3d(z, bp, rot, t, mesh)
    return GammaMatrix(entries=entries, z=z, variant="full")


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
    if cap < 0:
        raise ValueError(f"cap must be nonnegative, got {cap}")
    z = require_resolvent_energy(z)
    if mesh.dim != bp.dim:
        raise ValueError("mesh and blade parameter dimensions differ")
    if bp.dim == 2:
        r = mesh.r
        ns = range(-min(cap, t.m_max), min(cap, t.m_max) + 1)
        K = _sum2(ns, z, rot.omega, r[:, None], r[None, :])
        cells = _diag_cells(mesh, lambda ri, tt: _sum2(ns, z, rot.omega, ri, tt) * tt)
        M = _panel_matrix_2d(K, cells, bp, mesh)
        return GammaMatrix(entries=M, z=z, variant=f"cutoff:{cap}")
    R, W = mesh.r, mesh.w
    n = len(R)
    K = np.zeros((n, n), dtype=complex)
    for l in range(0, cap + 1):
        for m in range(-min(l, t.m_max), min(l, t.m_max) + 1):
            y = _y_flat(mesh, l, m)
            K += _kernel_3d(mesh, l, z + m * rot.omega) * np.outer(y, y)
    M = -K * W[None, :]
    M[np.diag_indices(n)] += bp.inverse_strength(R)
    return GammaMatrix(entries=M, z=z, variant=f"cutoff:{cap}")


def lambda_matrix(
    z: complex,
    channel0: ChannelIndex2 | ChannelIndex3,
    bp: BladeParam,
    mesh: BladeMesh,
    *,
    t: Truncation | None = None,
) -> GammaMatrix:
    """Single-channel model matrix: the rotation-free kernel of channel0.

    The full matrix at parameter z - m0*omega converges to this as the
    rotation speeds up.  3D needs the degree cap from t.
    """
    z = require_resolvent_energy(z)
    if isinstance(channel0, ChannelIndex2):
        if bp.dim != 2:
            raise ValueError("2D channel with a non-2D blade")
        n0 = channel0.n
        r = mesh.r
        K = separable_kernel(2, n0, z, r[:, None], r[None, :]) / (2.0 * math.pi)
        cells = _diag_cells(
            mesh, lambda ri, tt: separable_kernel(2, n0, z, ri, tt) * tt / (2.0 * math.pi)
        )
        M = _panel_matrix_2d(K, cells, bp, mesh)
        return GammaMatrix(entries=M, z=z, variant=f"lambda:n0={n0}")
    if bp.dim != 3:
        raise ValueError("3D channel with a non-3D blade")
    if t is None:
        raise ValueError("3D single-channel matrix needs a truncation for l_max")
    l_max = t.require_l_max()
    m0 = channel0.m
    R, W = mesh.r, mesh.w
    n = len(R)
    K = np.zeros((n, n), dtype=complex)
    for l in range(abs(m0), l_max + 1):
        y = _y_flat(mesh, l, m0)
        K += _kernel_3d(mesh, l, z) * np.outer(y, y)
    M = -K * W[None, :]
    M[np.diag_indices(n)] += bp.inverse_strength(R)
    return GammaMatrix(entries=M, z=z, variant=f"lambda:m0={m0}")


def weighted_norm(mesh: BladeMesh, entries: np.ndarray) -> float:
    """Operator norm in the mesh's weighted geometry."""
    sw = np.sqrt(mesh.w)
    return float(np.linalg.norm(sw[:, None] * entries / sw[None, :], 2))


def _cutoff_channels(dim: int, cap: int, t: Truncation):
    if dim == 2:
        cc = min(cap, t.m_max)
        return [ChannelIndex2(n) for n in range(-cc, cc + 1)]
    chans = []
    for l in range(0, cap + 1):
        for m in range(-min(l, t.m_max), min(l, t.m_max) + 1):
            chans.append(ChannelIndex3(l, m))
    return chans


def _window_channels(dim: int, t: Truncation):
    if dim == 2:
        return [ChannelIndex2(n) for n in range(-t.m_max, t.m_max + 1)]
    chans = []
    for m in range(-t.m_max, t.m_max + 1):
        for l in range(abs(m), t.require_l_max() + 1):
            chans.append(ChannelIndex3(l, m))
    return chans


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
    r_eval = np.asarray(r_eval, dtype=float)
    xi = np.asarray(xi, dtype=complex)
    out = {}
    if mesh.dim == 2:
        mu = mesh.w * xi
        for ch in channels:
            g = separable_kernel(
                2, ch.n, z + ch.n * rot.omega, r_eval[:, None], mesh.r[None, :]
            )
            out[ch] = (g @ mu) / (2.0 * math.pi)
        return out
    for ch in channels:
        y = _y_flat(mesh, ch.l, ch.m)
        mu = mesh.w * y * xi
        g = _kernel_3d(mesh, ch.l, z + ch.m * rot.omega, r_eval)
        out[ch] = g @ mu
    return out


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
    if psi.dim != bp.dim:
        raise ValueError("psi dimension differs from the blade")
    chans = _cutoff_channels(bp.dim, cap, t)
    fields = layer_fields(z, xi, rot, mesh, psi.grid, chans)
    wq = psi.quad_weights()
    rg = psi.grid
    if bp.dim == 2:
        rfac = rg
        coef0 = psi.values / math.sqrt(2.0 * math.pi)
        angular = 2.0 * math.pi
    else:
        rfac = rg**2
        coef0 = psi.values
        angular = 1.0
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


def _free_field_parts(
    z: complex,
    psi: RadialChannelFunction,
    rot: RotationSpec,
    mesh: BladeMesh,
):
    """Free-resolvent field of psi: samples on the blade and its radial trace.

    Channel m0 of the rotating frame sits at energy z + m0*omega.
    """
    ch = psi.channel
    f = psi.interpolant()
    rmax = float(psi.grid[-1])
    m0 = ch.n if isinstance(ch, ChannelIndex2) else ch.m
    z_ch = z + m0 * rot.omega
    if mesh.dim == 2:
        fp = radial_apply(2, abs(ch.n), z_ch, mesh.r, f, rmax=rmax)
        trace = fp / math.sqrt(2.0 * math.pi)
    else:
        fp_r = radial_apply(3, ch.l, z_ch, mesh.r_1d, f, rmax=rmax)
        fp = np.repeat(fp_r, len(mesh.u_1d))
        trace = fp * _y_flat(mesh, ch.l, ch.m)
    return z_ch, trace


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
    if psi.dim != bp.dim:
        raise ValueError("psi dimension differs from the blade")
    if gm is not None and gm.z != complex(z):
        raise ValueError("prebuilt matrix was assembled at a different parameter")
    M = gm.entries if gm is not None else gamma_matrix(z, bp, rot, t, mesh).entries
    cond = float(np.linalg.cond(M))
    logger.info("boundary solve conditioning %.3g on %d nodes", cond, mesh.n_nodes)
    if cond > _COND_LIMIT:
        raise ConditioningError(
            f"boundary matrix condition number {cond:.3g} exceeds {_COND_LIMIT:g}"
        )
    _, trace = _free_field_parts(z, psi, rot, mesh)
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
    density = solve_density(z, psi, bp, rot, t, mesh)
    ch = psi.channel
    f = psi.interpolant()
    rmax = float(psi.grid[-1])
    m0 = ch.n if isinstance(ch, ChannelIndex2) else ch.m
    z_ch = z + m0 * rot.omega
    r_pts = np.array([p.r for p in eval_points], dtype=float)
    fp_pts = radial_apply(
        mesh.dim, abs(ch.n) if mesh.dim == 2 else ch.l, z_ch, r_pts, f, rmax=rmax
    )
    chans = _window_channels(bp.dim, t)
    fields = layer_fields(z, density.values, rot, mesh, r_pts, chans)
    out = np.zeros(len(r_pts), dtype=complex)
    for i, p in enumerate(eval_points):
        if mesh.dim == 2:
            val = fp_pts[i] * np.exp(1j * ch.n * p.theta) / math.sqrt(2.0 * math.pi)
            for cch, c in fields.items():
                val += c[i] * np.exp(1j * cch.n * p.theta)
        else:
            val = fp_pts[i] * sp.sph_harm_y(ch.l, ch.m, p.theta, p.phi)
            for cch, c in fields.items():
                val += c[i] * sp.sph_harm_y(cch.l, cch.m, p.theta, p.phi)
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
    if dim not in (2, 3) or psi.dim != dim or bp.dim != dim:
        raise ValueError("dimension mismatch between psi, blade parameter and dim")
    z = complex(z)
    if z.imag == 0.0 and z.real >= 0.0:
        raise ValueError("spectral parameter on the essential spectrum")
    order = psi.order
    f = psi.interpolant()
    rmax = float(psi.grid[-1])
    if dim == 2:
        n_panels = resolution or 24
        edges = np.linspace(0.0, bp.A, n_panels + 1)
        xg, wg = np.polynomial.legendre.leggauss(8)
        rr, ww = [], []
        for a, b in zip(edges[:-1], edges[1:]):
            half, mid = 0.5 * (b - a), 0.5 * (a + b)
            rr.append(mid + half * xg)
            ww.append(half * wg)
        rr = np.concatenate(rr)
        ww = np.concatenate(ww)
    else:
        xg, wg = np.polynomial.legendre.leggauss(resolution or 64)
        rr = 0.5 * bp.A * (xg + 1.0)
        ww = 0.5 * bp.A * wg
    alpha = bp.alpha_values(rr)
    mu = alpha * ww * rr ** (dim - 1)
    K = separable_kernel(dim, order, z, rr[:, None], rr[None, :])
    M = np.eye(len(rr), dtype=complex) - K * mu[None, :]
    fp_mesh = radial_apply(dim, order, z, rr, f, rmax=rmax)
    u = np.linalg.solve(M, fp_mesh)
    fp_out = radial_apply(dim, order, z, psi.grid, f, rmax=rmax)
    K_out = separable_kernel(dim, order, z, psi.grid[:, None], rr[None, :])
    vals = fp_out + K_out @ (mu * u)
    return RadialChannelFunction(psi.channel, psi.grid, vals, psi.weights)
