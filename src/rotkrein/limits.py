"""Fast-rotation limit experiments.

Each study sweeps omega (or the spectral offset epsilon) and reports an
error norm between a rotating-frame resolvent, applied with the input
channel held at the physical energy z, and the resolvent of the averaged
operator it converges to: the circle interaction for a rotating point, the
radial potential for a rotating blade.  An omega study does each channel's
omega-independent work once, then runs every omega of its grid; a row that
raises one of _COMPUTE_ERRORS goes to StudyTable.failures and the sweep goes
on.  The point and eps studies evaluate a whole grid at once, with one
coupling, side-field or norm call per grid; when a point grid fails, each of
its omegas is run again alone, so a failure lands on its own row, with the
error text of a one-omega study.  The blade study runs row by row.
Results come back as StudyTable, which serializes deterministically to
CSV and JSON.  Both dimensions share each study's code through the specfun
channel classes; only the study defaults differ by dimension here, and the
averaged side's radial nodes come from blade._radial_nodes.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from ._radial import gauss_legendre, radial_apply, separable_kernels
from .blade import (
    BladeParam,
    BladeMesh,
    ConditioningError,
    MeshCellError,
    _dense_solve,
    _free_trace,
    _ls_correction,
    _potential_weights,
    _radial_nodes,
    build_mesh,
    gamma_matrix,
    lambda_matrix,
    layer_fields,
    weighted_norm,
)
from .circleint import CircleParam, _gamma, gamma_from_alpha
from .greens import TruncationError
from .pointint import KreinParam, RadialChannelFunction, ResonanceError, _lambdas_at
from .rotframe import PointSource, RotationSpec, Truncation, _norm_sqs
from .specfun import channel_class, require_upper_energy

__all__ = [
    "StudyTable",
    "point_convergence_study",
    "blade_convergence_study",
    "eps_scaling_study",
]

DEFAULT_OMEGAS = (10.0, 20.0, 40.0, 80.0, 160.0)

# Failures of a computation on valid input: a study records them per row, and
# the CLI maps them to exit status 1 (ValueError, invalid input, to 2).
_COMPUTE_ERRORS = (
    TruncationError,
    ResonanceError,
    ConditioningError,
    MeshCellError,
    OverflowError,
    np.linalg.LinAlgError,
)


# numpy's warning of a rank-deficient polyfit (np.exceptions from numpy 1.25).
_RankWarning = getattr(np, "exceptions", np).RankWarning


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
    """Sweep results: one dict per row, identical keys, sweep column sorted;
    failures, never serialized, has {"channel", "omega", "error"} per failed row."""

    study: str
    params: dict
    rows: list
    failures: list = field(default_factory=list, init=False)

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


def _check_study(z: complex, omegas, psis) -> tuple:
    z = require_upper_energy(z, "study")
    omegas = _check_sweep(omegas)
    for om in omegas:  # every row's, even where the interaction is off
        RotationSpec(om)
    if not psis:
        raise ValueError("no channel functions supplied")
    return z, omegas


def _sweep(study: str, params: dict, dim: int, psis, zero, setup) -> StudyTable:
    """Every (channel function, omega in params["omegas"]) row of an omega study.

    setup(psi) does the channel's omega-independent work and returns its grid
    function: a list of omegas -> the row values of each, a dict or the
    compute error of that row.  With the interaction off every row is zero.
    A compute error is recorded in the table's failures; one in setup, and
    any ValueError, ends the study.
    """
    rows, failures = [], []
    omegas = params["omegas"]
    for psi in psis:
        channel_class(dim, psi)
        label = psi.channel.label
        outs = [zero] * len(omegas) if zero else setup(psi)(omegas)
        for om, out in zip(omegas, outs):
            if isinstance(out, Exception):
                error = f"{type(out).__name__}: {out}"
                failures.append({"channel": label, "omega": om, "error": error})
            else:
                rows.append({"channel": label, "omega": om, **out})
    table = StudyTable(study, params, rows)
    table.failures = failures
    return table


def _each(row, omegas) -> list:
    """row(om) for each omega, or the compute error it raised."""
    outs = []
    for om in omegas:
        try:
            outs.append(row(om))
        except _COMPUTE_ERRORS as exc:
            outs.append(exc)
    return outs


def point_convergence_study(
    dim: int,
    alpha: float,
    y0: float,
    z: complex,
    omegas=DEFAULT_OMEGAS,
    psis=(),
) -> StudyTable:
    """Rotating point interaction against its matched circle interaction.

    For each input channel function the resolvent difference is expanded over
    the angular channels of the minimal window: the study channel carries the
    coupling mismatch lambda - beta, side channels the full lambda, each
    multiplying the source overlap and a shifted-energy kernel profile.  The
    row value is the grid L2 norm of that difference field.  A channel's
    whole omega grid takes one coupling call and one kernel call; when one of
    its rows fails, each omega is run again alone, so the failure lands on
    its own row.
    """
    cls = channel_class(dim)
    z, omegas = _check_study(z, omegas, psis)
    kp = KreinParam(alpha)
    src = PointSource(y0, dim)

    def setup(psi):
        ch = psi.channel
        m0 = ch.shift
        # Minimal window that still sees the study channel at its edge (2D
        # reads no l_max).
        t = Truncation(m_max=abs(m0), l_max=ch.order)
        rg = psi.grid
        wr = psi.quad_weights() * rg ** (dim - 1)
        g_src = separable_kernels(dim, ch.order, z, y0, rg)
        i_chi = complex(np.sum(wr * g_src * psi.values))
        gam = gamma_from_alpha(dim, alpha, y0, l_max=ch.order)
        cp = CircleParam(gam, y0, dim)
        beta = 2.0 * math.pi / _gamma(cls, m0, cp, z, t.l_max)
        # Side channel c of the source field: kernel g_c(r, y0) at energy
        # z + (c.shift - m0) omega, weighted by |harmonic|^2 at the source.
        # The sides of the study channel's shift sit at z for every omega.
        sides = [(c, c.source_weight()) for c in cls.window(t)]
        sides = [(c, w) for c, w in sides if w != 0.0]
        fixed = [c for c, _ in sides if c.shift == m0]
        moving = [c for c, _ in sides if c.shift != m0]
        fixed_flds = separable_kernels(dim, [c.order for c in fixed], z, rg, y0)

        def batch(oms):
            rots = [RotationSpec(om) for om in oms]
            lams = _lambdas_at(dim, [z - m0 * om for om in oms], kp, rots, src, t)
            zs = [[z + (c.shift - m0) * om for c in moving] for om in oms]
            orders = [[c.order for c in moving]] * len(oms)
            moving_flds = separable_kernels(dim, orders, zs, rg, y0)
            fixed_it, moving_it = iter(fixed_flds), iter(moving_flds.transpose(1, 0, 2))
            # Side by side, the terms of every omega at once.
            e2 = np.zeros(len(oms))
            for c, w in sides:
                if c.shift == m0:
                    amps, fld = [(lam - beta) * i_chi for lam in lams], next(fixed_it)
                else:
                    amps, fld = [lam * i_chi for lam in lams], next(moving_it)
                amp = np.array(amps)[:, None]
                e2 += w * np.sum(wr * np.abs(amp * fld) ** 2, axis=-1)
            return [{"error_norm": e} for e in np.sqrt(e2).tolist()]

        def grid(oms):
            try:
                return batch(oms)
            except _COMPUTE_ERRORS as exc:
                if len(oms) == 1:
                    return [exc]
            return _each(lambda om: batch([om])[0], oms)

        return grid

    params = {
        "dim": dim,
        "alpha": alpha,
        "y0": y0,
        "z": z,
        "omegas": omegas,
        "channels": [p.channel.label for p in psis],
    }
    zero = {"error_norm": 0.0} if kp.is_free else None
    return _sweep("point_convergence", params, dim, psis, zero, setup)


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
    turn, alpha/(2 pi), supported on r <= A in the channel of psi.  The
    solve shares the panels of a 2D blade mesh; a 3D mesh has none, and the
    solver's default rule serves.
    """
    panels = None if mesh.cells is None else len(mesh.cells)
    rr, ww = _radial_nodes(dim, bp.A, panels)
    mu = _potential_weights(
        bp, rr, lambda alpha: alpha / (2.0 * math.pi) * (ww * rr ** (dim - 1)))
    return _ls_correction(dim, z, psi.order, rr, mu, radial_apply(psi, z, rr), r_eval)


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

    Each row solves the full boundary system at the channel-shifted parameter
    z - m0 omega against the free-field trace of psi, expands the layer field
    over the window's channels on a fixed evaluation grid, and takes the L2
    norm against the averaged-side correction.  The study channel sits at z
    in every row, so its trace is computed once per channel, at z itself,
    with the radial_apply plan of the averaged side.  The weighted operator
    distance between the full matrix and the single-channel model
    (weighted_norm) is co-reported per row.
    """
    cls = channel_class(dim, bp)
    z, omegas = _check_study(z, omegas, psis)
    if t is None:
        t = Truncation(m_max=5) if dim == 2 else Truncation(m_max=3, l_max=6)
    if resolution is None:
        resolution = 12 if dim == 2 else 13
    mesh = build_mesh(dim, bp.A, resolution)
    xg, wg = gauss_legendre(60)
    r_eval = 1.5 * xg + 1.5
    w_eval = 1.5 * wg * r_eval ** (dim - 1)
    chans = cls.window(t)

    def setup(psi):
        ch = psi.channel
        m0 = ch.shift
        avg = _averaged_correction(dim, z, bp, psi, mesh, r_eval)
        lam_m = lambda_matrix(z, ch, bp, mesh, t=t)
        # The study channel sits at z itself in every row.
        trace = _free_trace(psi, z, mesh)

        def row(om):
            rot = RotationSpec(om)
            z_rot = z - m0 * om
            gm = gamma_matrix(z_rot, bp, rot, t, mesh)
            phi = _dense_solve(gm.entries, trace)
            fields = layer_fields(z_rot, phi, rot, mesh, r_eval, chans)
            e2 = 0.0
            for cch, c in fields.items():
                d = c - avg if cch == ch else c
                e2 += float(np.sum(w_eval * np.abs(d) ** 2))
            gap = weighted_norm(mesh, gm.entries - lam_m.entries)
            return {"error_norm": math.sqrt(e2), "kernel_gap": gap}

        return lambda oms: _each(row, oms)

    params = {
        "dim": dim,
        "A": bp.A,
        "strength": "radial" if callable(bp.strength) else float(bp.strength),
        "z": z,
        "omegas": omegas,
        "channels": [p.channel.label for p in psis],
        "resolution": resolution,
        "m_max": t.m_max,
        "l_max": t.l_max,
    }
    off = not callable(bp.strength) and float(bp.strength) == 0.0
    zero = {"error_norm": 0.0, "kernel_gap": 0.0} if off else None
    return _sweep("blade_convergence", params, dim, psis, zero, setup)


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
    reported in the params, so at least two epsilons are needed.
    """
    epsilons = _check_sweep(epsilons)
    if len(epsilons) < 2:
        raise ValueError("eps study needs at least two epsilons to fit a slope")
    if epsilons[0] <= 0.0 or epsilons[-1] >= 1.0:
        raise ValueError("epsilons must lie in (0, 1)")
    with np.errstate(all="ignore"):  # a norm that leaves the range is reported below
        vals = _norm_sqs(dim, [complex(x_real, -eps) for eps in epsilons], rot, src, t)
    rows = [{"epsilon": eps, "norm_sq": val} for eps, val in zip(epsilons, vals)]
    for eps, val in zip(epsilons, vals):
        # Not positive: the imaginary parts of the diagonals are below their
        # rounding (a source near the origin); inf: 1/epsilon overflows.
        if not 0.0 < val < math.inf:
            raise ValueError(f"squared norm {val:.6g} at epsilon {eps:.6g} is not a positive "
                             f"double; nothing to fit at y0={src.y0:g}")
    log_eps, log_norms = np.log(epsilons), np.log(vals)
    with warnings.catch_warnings():
        # Epsilons whose logarithms (nearly) coincide leave the fit without a slope.
        warnings.simplefilter("error", _RankWarning)
        try:
            slope, logc = np.polyfit(log_eps, log_norms, 1)
        except _RankWarning:
            raise ValueError("epsilons too close together to fit a slope") from None
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
