"""Fast-rotation limit experiments.

Each study sweeps omega (or the spectral offset epsilon) and reports an
error norm between a rotating-frame resolvent, applied with the input
channel held at the physical energy z, and the resolvent of the averaged
operator it converges to: the circle interaction for a rotating point, the
radial potential for a rotating blade.  Results come back as StudyTable,
which serializes deterministically to CSV and JSON.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from ._radial import g2_vec, g3_vec, radial_apply, separable_kernel
from .blade import (
    BladeParam,
    BladeMesh,
    build_mesh,
    gamma_matrix,
    lambda_matrix,
    layer_fields,
    solve_density,
    weighted_norm,
    _window_channels,
)
from .circleint import CircleParam, gamma_coeff_2d, gamma_coeff_3d, gamma_from_alpha
from .pointint import KreinParam, RadialChannelFunction, lambda_at
from .rotframe import PointSource, RotationSpec, Truncation, rot_norm_sq
from .specfun import ChannelIndex2, ChannelIndex3, equatorial_weight

__all__ = [
    "StudyTable",
    "point_convergence_study",
    "blade_convergence_study",
    "eps_scaling_study",
]

DEFAULT_OMEGAS = (10.0, 20.0, 40.0, 80.0, 160.0)


def _fmt(v) -> str:
    if isinstance(v, bool):
        return str(v)
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.12e}"
    return str(v)


def _jsonable(v):
    if isinstance(v, complex):
        return f"{v.real:.12g}{v.imag:+.12g}i"
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, (np.floating,)):
        return float(v)
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    return v


@dataclass(eq=False)
class StudyTable:
    """Sweep results: one dict per row, identical keys, sweep column sorted."""

    study: str
    params: dict
    rows: list

    def __post_init__(self) -> None:
        for row in self.rows:
            e = row.get("error_norm")
            if e is not None and e < 0.0:
                raise ValueError("negative error norm in a study row")

    def column(self, key: str) -> list:
        return [row[key] for row in self.rows]

    def to_csv(self, path: str | None = None) -> str:
        cols = list(self.rows[0].keys()) if self.rows else []
        lines = [",".join(cols)]
        for row in self.rows:
            lines.append(",".join(_fmt(row[c]) for c in cols))
        text = "\n".join(lines) + "\n"
        if path is not None:
            with open(path, "w", newline="") as fh:
                fh.write(text)
        return text

    def to_json(self, path: str | None = None) -> str:
        doc = {
            "study": self.study,
            "params": _jsonable(self.params),
            "rows": [_jsonable(r) for r in self.rows],
        }
        text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
        if path is not None:
            with open(path, "w", newline="") as fh:
                fh.write(text)
        return text


def _check_sweep(values) -> list:
    values = [float(v) for v in values]
    if not values:
        raise ValueError("empty sweep grid")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ValueError("sweep grid must be strictly increasing")
    return values


def _channel_label(ch) -> str:
    if isinstance(ch, ChannelIndex2):
        return f"n={ch.n}"
    return f"l={ch.l},m={ch.m}"


def _edge_truncation(ch) -> Truncation:
    """Minimal window that still sees the study channel at its edge."""
    if isinstance(ch, ChannelIndex2):
        return Truncation(m_max=abs(ch.n))
    return Truncation(m_max=abs(ch.m), l_max=max(ch.l, abs(ch.m)))


def point_convergence_study(
    dim: int,
    alpha: float,
    y0: float,
    z: complex,
    omegas=DEFAULT_OMEGAS,
    psis=(),
    *,
    mode: str = "closed",
) -> StudyTable:
    """Rotating point interaction against its matched circle interaction.

    For each input channel function the resolvent difference is expanded over
    the angular channels of the minimal window: the study channel carries the
    coupling mismatch lambda - beta, side channels the full lambda, each
    multiplying the source overlap and a shifted-energy kernel profile.  The
    row value is the grid L2 norm of that difference field.
    """
    if dim not in (2, 3):
        raise ValueError(f"dimension must be 2 or 3, got {dim}")
    z = complex(z)
    if z.imag <= 0.0:
        raise ValueError("study needs Im z > 0")
    omegas = _check_sweep(omegas)
    if not psis:
        raise ValueError("no channel functions supplied")
    kp = KreinParam(alpha)
    src = PointSource(y0, dim)
    rows = []
    for psi in psis:
        if psi.dim != dim:
            raise ValueError("channel function dimension differs from the study")
        ch = psi.channel
        label = _channel_label(ch)
        if kp.is_free:
            for om in omegas:
                rows.append({"channel": label, "omega": om, "error_norm": 0.0})
            continue
        t = _edge_truncation(ch)
        wq = psi.quad_weights()
        rg = psi.grid
        wr = wq * rg ** (dim - 1)
        if dim == 2:
            n0 = ch.n
            i_chi = complex(np.sum(wr * g2_vec(n0, z, y0, rg) * psi.values))
            gam = gamma_from_alpha(2, alpha, y0, mode=mode)
            beta = 2.0 * math.pi / gamma_coeff_2d(
                n0, CircleParam(gam, y0, 2), z, mode=mode
            )
        else:
            l0, m0 = ch.l, ch.m
            L = t.require_l_max()
            i_chi = complex(np.sum(wr * g3_vec(l0, z, y0, rg) * psi.values))
            gam = gamma_from_alpha(3, alpha, y0, l_max=L, mode=mode)
            beta = 2.0 * math.pi / gamma_coeff_3d(
                m0, CircleParam(gam, y0, 3), z, L, mode=mode
            )
        for om in omegas:
            rot = RotationSpec(om)
            m0 = ch.n if dim == 2 else ch.m
            lam = lambda_at(dim, z - m0 * om, kp, rot, src, t, mode=mode)
            e2 = 0.0
            if dim == 2:
                for n in range(-t.m_max, t.m_max + 1):
                    fld = g2_vec(n, z + (n - m0) * om, rg, y0) / (2.0 * math.pi)
                    coef = lam - beta if n == m0 else lam
                    e2 += 2.0 * math.pi * float(
                        np.sum(wr * np.abs(coef * i_chi * fld) ** 2)
                    )
            else:
                for m in range(-t.m_max, t.m_max + 1):
                    for l in range(abs(m), t.require_l_max() + 1):
                        wgt = equatorial_weight(l, m)
                        if wgt == 0.0:
                            continue
                        fld = g3_vec(l, z + (m - m0) * om, rg, y0)
                        coef = lam - beta if m == m0 else lam
                        e2 += wgt * float(
                            np.sum(wr * np.abs(coef * i_chi * fld) ** 2)
                        )
            rows.append({"channel": label, "omega": om, "error_norm": math.sqrt(e2)})
    params = {
        "dim": dim,
        "alpha": alpha,
        "y0": y0,
        "z": z,
        "omegas": list(omegas),
        "channels": [_channel_label(p.channel) for p in psis],
        "mode": mode,
    }
    return StudyTable("point_convergence", params, rows)


def _averaged_correction(
    dim: int,
    z: complex,
    bp: BladeParam,
    psi: RadialChannelFunction,
    mesh: BladeMesh,
    r_eval: np.ndarray,
) -> np.ndarray:
    """Channel coefficient of (averaged resolvent - free resolvent) of psi.

    The sweep-averaged potential is the blade strength spread over the full
    turn, alpha/(2 pi), supported on r <= A in the channel of psi.
    """
    order = psi.order
    f = psi.interpolant()
    rmax = float(psi.grid[-1])
    if dim == 2:
        rr, ww = mesh.r, mesh.w
    else:
        xg, wg = np.polynomial.legendre.leggauss(64)
        rr = 0.5 * bp.A * (xg + 1.0)
        ww = 0.5 * bp.A * wg * rr**2
    aeff = bp.alpha_values(rr) / (2.0 * math.pi)
    mu = aeff * ww
    K = separable_kernel(dim, order, z, rr[:, None], rr[None, :])
    M = np.eye(len(rr), dtype=complex) - K * mu[None, :]
    u = np.linalg.solve(M, radial_apply(dim, order, z, rr, f, rmax=rmax))
    corr = separable_kernel(dim, order, z, r_eval[:, None], rr[None, :]) @ (mu * u)
    if dim == 2:
        corr = corr / math.sqrt(2.0 * math.pi)
    return corr


def blade_convergence_study(
    dim: int,
    bp: BladeParam,
    z: complex,
    omegas=DEFAULT_OMEGAS,
    psis=(),
    *,
    resolution: int | None = None,
    t: Truncation | None = None,
) -> StudyTable:
    """Rotating blade against the averaged radial potential.

    Each row solves the full boundary system at the channel-shifted parameter,
    expands the layer field over the window's channels on a fixed evaluation
    grid, and takes the L2 norm against the averaged-side correction.  The
    weighted operator distance between the full matrix and the single-channel
    model is co-reported per row.
    """
    if dim not in (2, 3) or bp.dim != dim:
        raise ValueError("blade parameter dimension differs from the study")
    z = complex(z)
    if z.imag <= 0.0:
        raise ValueError("study needs Im z > 0")
    omegas = _check_sweep(omegas)
    if not psis:
        raise ValueError("no channel functions supplied")
    if t is None:
        t = Truncation(m_max=5) if dim == 2 else Truncation(m_max=3, l_max=6)
    mesh = build_mesh(dim, bp.A, resolution or (12 if dim == 2 else 13))
    off = not callable(bp.strength) and float(bp.strength) == 0.0
    xg, wg = np.polynomial.legendre.leggauss(60)
    r_eval = 1.5 * xg + 1.5
    w_eval = 1.5 * wg * r_eval ** (dim - 1)
    angular = 2.0 * math.pi if dim == 2 else 1.0
    chans = _window_channels(dim, t)
    rows = []
    for psi in psis:
        if psi.dim != dim:
            raise ValueError("channel function dimension differs from the study")
        ch = psi.channel
        label = _channel_label(ch)
        if off:
            for om in omegas:
                rows.append(
                    {"channel": label, "omega": om, "error_norm": 0.0,
                     "kernel_gap": 0.0}
                )
            continue
        m0 = ch.n if dim == 2 else ch.m
        avg = _averaged_correction(dim, z, bp, psi, mesh, r_eval)
        lam_m = lambda_matrix(z, ch, bp, mesh, t=t)
        for om in omegas:
            rot = RotationSpec(om)
            z_rot = z - m0 * om
            gm = gamma_matrix(z_rot, bp, rot, t, mesh)
            phi = solve_density(z_rot, psi, bp, rot, t, mesh, gm=gm).values
            fields = layer_fields(z_rot, phi, rot, mesh, r_eval, chans)
            e2 = 0.0
            for cch, c in fields.items():
                d = c - avg if cch == ch else c
                e2 += angular * float(np.sum(w_eval * np.abs(d) ** 2))
            gap = weighted_norm(mesh, gm.entries - lam_m.entries)
            rows.append(
                {"channel": label, "omega": om, "error_norm": math.sqrt(e2),
                 "kernel_gap": gap}
            )
    params = {
        "dim": dim,
        "A": bp.A,
        "strength": "radial" if callable(bp.strength) else float(bp.strength),
        "z": z,
        "omegas": list(omegas),
        "channels": [_channel_label(p.channel) for p in psis],
        "resolution": resolution or (12 if dim == 2 else 13),
        "m_max": t.m_max,
        "l_max": t.l_max,
    }
    return StudyTable("blade_convergence", params, rows)


def eps_scaling_study(
    dim: int,
    x_real: float,
    epsilons,
    rot: RotationSpec,
    src: PointSource,
    t: Truncation,
) -> StudyTable:
    """Kernel norm blowup approaching the spectrum from below.

    Sweeps z = x - i eps and records the squared windowed norm; the log-log
    slope and prefactor of the fitted power law norm_sq ~ C * eps^slope are
    reported in the params.
    """
    epsilons = _check_sweep(epsilons)
    if epsilons[0] <= 0.0 or epsilons[-1] >= 1.0:
        raise ValueError("epsilons must lie in (0, 1)")
    rows = []
    for eps in epsilons:
        val = rot_norm_sq(dim, complex(x_real, -eps), rot, src, t)
        rows.append({"epsilon": eps, "norm_sq": val})
    slope, logc = np.polyfit(
        np.log([r["epsilon"] for r in rows]),
        np.log([r["norm_sq"] for r in rows]),
        1,
    )
    params = {
        "dim": dim,
        "x_real": x_real,
        "omega": rot.omega,
        "y0": src.y0,
        "m_max": t.m_max,
        "l_max": t.l_max,
        "slope": float(slope),
        "prefactor": float(math.exp(logc)),
    }
    return StudyTable("eps_scaling", params, rows)
