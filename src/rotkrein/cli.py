"""Command-line front end.

Three subcommands: `kernel` evaluates rotating-frame or interacting kernels
at a pair of points, `gamma` evaluates circle couplings and channel
coefficients, `study` runs a sweep described by an INI config and writes
CSV/JSON plus a run manifest.  Exit codes: 0 success, 1 computational
failure, 2 validation failure.  Complex numbers are written "a+bi"; angles
are radians.

Config schema (INI, all keys flat under their section):

    [study]
    kind = point_convergence | blade_convergence | eps_scaling
    dim = 2 | 3

    [parameters]
    z = 0.4+1i              ; point/blade studies
    alpha = 1.5707963268    ; point study coupling
    y0 = 0.72               ; point study source radius
    A = 1.0                 ; blade radius
    strength = 2.0          ; blade coupling (constant)
    channels = 1 | 1:1      ; comma list; 2D n values, 3D l:m pairs
    x_real = 1.0            ; eps study spectral abscissa

    [sweep]
    omegas = 10,20,40,80,160
    epsilons = 1e-3,...     ; eps study instead of omegas

    [truncation]
    m_max = 5
    l_max = 6               ; required for dim = 3
    resolution = 12         ; blade mesh resolution

    [psi]
    grid_points = 200       ; Gauss nodes of the input profile r e^{-r^2}
    r_max = 8.0

    [output]
    csv = rows.csv
    json = rows.json
    manifest = manifest.json
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import sys

import numpy as np

from .blade import BladeParam, ConditioningError, MeshCellError
from .circleint import CircleParam, gamma_coeff_2d, gamma_coeff_3d, gamma_from_alpha
from .greens import Point2, Point3, TruncationError
from .limits import (
    StudyTable,
    _jsonable,
    blade_convergence_study,
    eps_scaling_study,
    point_convergence_study,
)
from .pointint import KreinParam, RadialChannelFunction, ResonanceError, krein_kernel
from .rotframe import PointSource, RotationSpec, Truncation, rot_green
from .specfun import ChannelIndex2, ChannelIndex3

__all__ = ["main", "parse_complex", "format_complex"]

_COMPUTE_ERRORS = (
    TruncationError,
    ResonanceError,
    ConditioningError,
    MeshCellError,
    OverflowError,
    np.linalg.LinAlgError,
)


def parse_complex(text: str) -> complex:
    """Parse "a+bi" (also plain "a" or "bi"); rejects anything else."""
    s = text.strip().replace(" ", "")
    if not s:
        raise ValueError("empty complex literal")
    if not s.endswith("i"):
        return complex(float(s), 0.0)
    s = s[:-1]
    # split at the sign that separates real and imaginary parts; signs that
    # follow an exponent marker belong to the exponent
    for k in range(len(s) - 1, 0, -1):
        if s[k] in "+-" and s[k - 1] not in "eE":
            re_part, im_part = s[:k], s[k:]
            return complex(float(re_part), float(im_part if im_part not in "+-" else im_part + "1"))
    return complex(0.0, float(s if s not in ("", "+", "-") else s + "1"))


def format_complex(v: complex) -> str:
    v = complex(v)
    return f"{v.real:.12e}{v.imag:+.12e}i"


def _parse_point(text: str, dim: int) -> Point2 | Point3:
    parts = [float(p) for p in text.split(",")]
    if dim == 2:
        if len(parts) != 2:
            raise ValueError(f"2D point needs r,theta, got {text!r}")
        return Point2(parts[0], parts[1])
    if len(parts) != 3:
        raise ValueError(f"3D point needs r,theta,phi, got {text!r}")
    return Point3(parts[0], parts[1], parts[2])


def _truncation_args(args) -> Truncation:
    l_max = args.l_max
    if l_max is None and args.dim == 3:
        l_max = args.m_max
    return Truncation(m_max=args.m_max, l_max=l_max, tail_tol=args.tail_tol)


def cmd_kernel(args) -> int:
    t = _truncation_args(args)
    z = parse_complex(args.z)
    rot = RotationSpec(args.omega)
    x = _parse_point(args.point, args.dim)
    xp = _parse_point(args.source, args.dim)
    if args.alpha is None:
        val = rot_green(args.dim, z, rot, x, xp, t, args.mode)
    else:
        alpha = args.alpha
        if abs(alpha - math.pi) < 1e-6:
            print("note: coupling within 1e-6 of pi, taking the free fast path")
            alpha = math.pi
        if args.y0 is None:
            raise ValueError("--alpha needs --y0 for the source radius")
        val = krein_kernel(
            args.dim, z, KreinParam(alpha), rot, x, xp,
            PointSource(args.y0, args.dim), t, args.mode,
        )
    print(f"kernel = {format_complex(val)}")
    print(f"tail_rel_bound = {t.tail_tol:.3e} (enforced on the channel window)")
    return 0


def cmd_gamma(args) -> int:
    if args.alpha is not None:
        if args.y0 is None:
            raise ValueError("--alpha needs --y0")
        val = gamma_from_alpha(args.dim, args.alpha, args.y0, l_max=args.l_max or 64)
        print(f"gamma = {val:.12e} (real by construction, Im = 0)")
        return 0
    if args.gamma is None or args.radius is None or args.z is None or args.channel is None:
        raise ValueError(
            "need either --alpha/--y0 or --gamma/--radius/--z/--channel"
        )
    z = parse_complex(args.z)
    cp = CircleParam(args.gamma, args.radius, args.dim)
    if args.dim == 2:
        val = gamma_coeff_2d(int(args.channel), cp, z)
    else:
        val = gamma_coeff_3d(int(args.channel), cp, z, args.l_max or 64)
    print(f"Gamma = {format_complex(val)}")
    return 0


def _config_channels(dim: int, raw: str):
    chans = []
    for item in raw.split(","):
        item = item.strip()
        if dim == 2:
            chans.append(ChannelIndex2(int(item)))
        else:
            l_s, m_s = item.split(":")
            chans.append(ChannelIndex3(int(l_s), int(m_s)))
    return chans


def _psi_profile(dim: int, chans, n_points: int, r_max: float):
    """The built-in input profile r e^{-r^2} on a Gauss grid, per channel."""
    xg, wg = np.polynomial.legendre.leggauss(n_points)
    rg = 0.5 * r_max * (xg + 1.0)
    wq = np.full(n_points, 0.5 * r_max) * wg
    vals = rg * np.exp(-(rg**2))
    return [RadialChannelFunction(ch, rg, vals.astype(complex), wq) for ch in chans]


def _floats(raw: str):
    return [float(p) for p in raw.split(",") if p.strip()]


def run_study_config(path: str):
    """Execute a study config; returns (table, manifest dict, exit code)."""
    cfg = configparser.ConfigParser()
    if not cfg.read(path):
        raise ValueError(f"config {path!r} not found or unreadable")
    kind = cfg.get("study", "kind")
    dim = cfg.getint("study", "dim")
    if kind not in ("point_convergence", "blade_convergence", "eps_scaling"):
        raise ValueError(f"unknown study kind {kind!r}")
    tr = cfg["truncation"] if cfg.has_section("truncation") else {}
    m_max = int(tr.get("m_max", 8))
    l_max = int(tr["l_max"]) if "l_max" in tr else None
    t = Truncation(m_max=m_max, l_max=l_max)
    sweep = cfg["sweep"] if cfg.has_section("sweep") else {}
    par = cfg["parameters"] if cfg.has_section("parameters") else {}
    manifest: dict = {
        "config_path": path,
        "study": kind,
        "dim": dim,
        "failures": [],
    }
    if kind == "eps_scaling":
        epsilons = _floats(sweep.get("epsilons", ""))
        if not epsilons:
            raise ValueError("eps_scaling needs a nonempty sweep epsilons grid")
        table = eps_scaling_study(
            dim,
            float(par.get("x_real", "1.0")),
            epsilons,
            RotationSpec(float(par.get("omega", "0.0"))),
            PointSource(float(par.get("y0", "1.0")), dim),
            t,
        )
        manifest["params"] = _jsonable(table.params)
        manifest["slope"] = table.params["slope"]
        return table, manifest, 0
    omegas = _floats(sweep.get("omegas", ""))
    if not omegas:
        raise ValueError("study needs a nonempty sweep omegas grid")
    z = parse_complex(par.get("z", "0.4+1i"))
    psi_sec = cfg["psi"] if cfg.has_section("psi") else {}
    chans = _config_channels(dim, par.get("channels", "1" if dim == 2 else "1:1"))
    psis = _psi_profile(
        dim, chans, int(psi_sec.get("grid_points", 200)),
        float(psi_sec.get("r_max", 8.0)),
    )
    rows: list = []
    params: dict = {}
    failed = []
    for om in omegas:
        try:
            if kind == "point_convergence":
                part = point_convergence_study(
                    dim, float(par["alpha"]), float(par["y0"]), z, [om], psis
                )
            else:
                bp = BladeParam(
                    float(par.get("A", "1.0")), float(par.get("strength", "2.0")), dim
                )
                resolution = int(tr["resolution"]) if "resolution" in tr else None
                part = blade_convergence_study(
                    dim, bp, z, [om], psis, resolution=resolution,
                    t=Truncation(m_max=m_max, l_max=l_max),
                )
            rows.extend(part.rows)
            params = part.params
        except _COMPUTE_ERRORS + (ValueError,) as exc:
            failed.append({"omega": om, "error": f"{type(exc).__name__}: {exc}"})
    rows.sort(key=lambda r: (r["channel"], r["omega"]))
    params["omegas"] = omegas
    table = StudyTable(kind, params, rows)
    manifest["params"] = _jsonable(table.params)
    manifest["truncation"] = {"m_max": m_max, "l_max": l_max,
                              "tail_tol": t.tail_tol}
    manifest["failures"] = failed
    return table, manifest, 1 if failed else 0


def cmd_study(args) -> int:
    table, manifest, status = run_study_config(args.config)
    cfg = configparser.ConfigParser()
    cfg.read(args.config)
    out = cfg["output"] if cfg.has_section("output") else {}
    if "csv" in out:
        table.to_csv(out["csv"])
        print(f"wrote {out['csv']}")
    if "json" in out:
        table.to_json(out["json"])
        print(f"wrote {out['json']}")
    if "manifest" in out:
        with open(out["manifest"], "w", newline="") as fh:
            fh.write(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
        print(f"wrote {out['manifest']}")
    if not out:
        sys.stdout.write(table.to_csv())
    if status:
        print(f"{len(manifest['failures'])} sweep row(s) failed", file=sys.stderr)
    return status


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="rotkrein",
        description="Rotating singular interactions: kernels, couplings, studies.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    k = sub.add_parser("kernel", help="evaluate a resolvent kernel at two points")
    k.add_argument("--dim", type=int, choices=(2, 3), required=True)
    k.add_argument("--z", required=True, help='spectral parameter, "a+bi"')
    k.add_argument("--omega", type=float, required=True)
    k.add_argument("--point", required=True, help="r,theta (2D) or r,theta,phi (3D)")
    k.add_argument("--source", required=True, help="second point, same format")
    k.add_argument("--m-max", type=int, default=64)
    k.add_argument("--l-max", type=int, default=None)
    k.add_argument("--tail-tol", type=float, default=1e-8)
    k.add_argument("--alpha", type=float, default=None,
                   help="point-interaction coupling; omit for the free kernel")
    k.add_argument("--y0", type=float, default=None, help="source radius for --alpha")
    k.add_argument("--mode", choices=("closed", "quadrature"), default="closed")
    k.set_defaults(func=cmd_kernel)

    g = sub.add_parser("gamma", help="circle couplings and channel coefficients")
    g.add_argument("--dim", type=int, choices=(2, 3), required=True)
    g.add_argument("--alpha", type=float, default=None)
    g.add_argument("--y0", type=float, default=None)
    g.add_argument("--gamma", type=float, default=None)
    g.add_argument("--radius", type=float, default=None)
    g.add_argument("--z", default=None)
    g.add_argument("--channel", type=int, default=None)
    g.add_argument("--l-max", type=int, default=None)
    g.set_defaults(func=cmd_gamma)

    s = sub.add_parser("study", help="run a sweep from an INI config")
    s.add_argument("config")
    s.set_defaults(func=cmd_study)
    return ap


def _glue_z(argv: list[str]) -> list[str]:
    # argparse treats "-1+1i" after --z as an unknown flag; fold it in as --z=-1+1i
    out: list[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok == "--z" and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"--z={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    ap = build_parser()
    args = ap.parse_args(_glue_z(list(argv)))
    try:
        return args.func(args)
    except _COMPUTE_ERRORS as exc:
        print(f"computation failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, configparser.Error) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
