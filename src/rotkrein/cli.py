"""Command-line front end.

Three subcommands: `kernel` evaluates rotating-frame or interacting kernels
at a pair of points, `gamma` evaluates circle couplings and channel
coefficients, `study` runs a sweep described by an INI config and writes
CSV/JSON plus a run manifest.  Exit codes: 0 success, 1 computational
failure (a study lists its failed rows in the manifest), 2 validation
failure (any ValueError).  Complex numbers are written "a+bi"; angles are
radians.

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
import dataclasses
import functools
import json
import math
import sys

import numpy as np

from ._radial import gauss_legendre
from .blade import BladeParam
from .circleint import CircleParam, gamma_coeff_2d, gamma_coeff_3d, gamma_from_alpha
from .greens import Point2, Point3
from .limits import (
    _COMPUTE_ERRORS,
    _jsonable,
    blade_convergence_study,
    eps_scaling_study,
    point_convergence_study,
)
from .pointint import KreinParam, RadialChannelFunction, krein_kernel
from .rotframe import PointSource, RotationSpec, Truncation, rot_green
from .specfun import channel_class

__all__ = ["main", "parse_complex", "format_complex"]


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
    if len(parts) != dim:
        raise ValueError(f"{dim}D point needs r and {dim - 1} angle(s), got {text!r}")
    return (Point2 if dim == 2 else Point3)(*parts)


def _truncation_args(args) -> Truncation:
    """The degree cap defaults to m_max (2D windows do not read it)."""
    l_max = args.m_max if args.l_max is None else args.l_max
    return Truncation(m_max=args.m_max, l_max=l_max, tail_tol=args.tail_tol)


def cmd_kernel(args) -> int:
    t = _truncation_args(args)
    z = parse_complex(args.z)
    rot = RotationSpec(args.omega)
    x = _parse_point(args.point, args.dim)
    xp = _parse_point(args.source, args.dim)
    if args.alpha is None:
        val = rot_green(args.dim, z, rot, x, xp, t)
    else:
        alpha = args.alpha
        if abs(alpha - math.pi) < 1e-6:
            print("note: coupling within 1e-6 of pi, taking the free fast path")
            alpha = math.pi
        if args.y0 is None:
            raise ValueError("--alpha needs --y0 for the source radius")
        src = PointSource(args.y0, args.dim)
        val = krein_kernel(args.dim, z, KreinParam(alpha), rot, x, xp, src, t)
    print(f"kernel = {format_complex(val)}")
    print(f"tail_rel_bound = {t.tail_tol:.3e} (enforced on the channel window)")
    return 0


def cmd_gamma(args) -> int:
    l_max = 64 if args.l_max is None else args.l_max
    if args.alpha is not None:
        if args.y0 is None:
            raise ValueError("--alpha needs --y0")
        val = gamma_from_alpha(args.dim, args.alpha, args.y0, l_max=l_max)
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
        val = gamma_coeff_3d(int(args.channel), cp, z, l_max)
    print(f"Gamma = {format_complex(val)}")
    return 0


def _config_channels(dim: int, raw: str):
    """The channels of a comma list, each its class's indices joined by ':'
    ("n" in 2D, "l:m" in 3D)."""
    cls = channel_class(dim)
    names = [f.name for f in dataclasses.fields(cls)]
    chans = []
    for item in raw.split(","):
        item = item.strip()
        parts = item.split(":")
        if len(parts) != len(names):
            raise ValueError(f"{dim}D channel {item!r} needs {':'.join(names)}")
        chans.append(cls(*(int(p) for p in parts)))
    return chans


def _psi_profile(dim: int, chans, n_points: int, r_max: float):
    """The built-in input profile r e^{-r^2} on a Gauss grid, per channel
    (0 where r^2 overflows, as e^{-r^2} is there)."""
    xg, wg = gauss_legendre(n_points)
    rg = 0.5 * r_max * (xg + 1.0)
    wq = np.full(n_points, 0.5 * r_max) * wg
    with np.errstate(over="ignore"):
        vals = rg * np.exp(-(rg**2))
    return [RadialChannelFunction(ch, rg, vals.astype(complex), wq) for ch in chans]


def _grid(sweep, key: str) -> list:
    values = [float(p) for p in sweep.get(key, "").split(",") if p.strip()]
    if not values:
        raise ValueError(f"study needs a nonempty sweep {key} grid")
    return values


def run_study_config(path: str):
    """Run a config's study once over its whole sweep grid, write its outputs;
    returns (table, manifest dict, exit code: 1 if any sweep row failed)."""
    cfg = configparser.ConfigParser()
    if not cfg.read(path):
        raise ValueError(f"config {path!r} not found or unreadable")
    kind = cfg.get("study", "kind")
    dim = cfg.getint("study", "dim")
    if kind not in ("point_convergence", "blade_convergence", "eps_scaling"):
        raise ValueError(f"unknown study kind {kind!r}")
    tr = cfg["truncation"] if cfg.has_section("truncation") else {}
    l_max = int(tr["l_max"]) if "l_max" in tr else None
    t = Truncation(m_max=int(tr.get("m_max", 8)), l_max=l_max)
    sweep = cfg["sweep"] if cfg.has_section("sweep") else {}
    par = cfg["parameters"] if cfg.has_section("parameters") else {}
    if kind == "eps_scaling":
        table = eps_scaling_study(
            dim,
            float(par.get("x_real", "1.0")),
            _grid(sweep, "epsilons"),
            RotationSpec(float(par.get("omega", "0.0"))),
            PointSource(float(par.get("y0", "1.0")), dim),
            t,
        )
    else:
        omegas = _grid(sweep, "omegas")
        z = parse_complex(par.get("z", "0.4+1i"))
        psi_sec = cfg["psi"] if cfg.has_section("psi") else {}
        chans = _config_channels(dim, par.get("channels", "1" if dim == 2 else "1:1"))
        psis = _psi_profile(
            dim, chans, int(psi_sec.get("grid_points", 200)),
            float(psi_sec.get("r_max", 8.0)),
        )
        if kind == "point_convergence":
            table = point_convergence_study(
                dim, float(par["alpha"]), float(par["y0"]), z, omegas, psis
            )
        else:
            bp = BladeParam(
                float(par.get("A", "1.0")), float(par.get("strength", "2.0")), dim
            )
            resolution = int(tr["resolution"]) if "resolution" in tr else None
            table = blade_convergence_study(
                dim, bp, z, omegas, psis, resolution=resolution, t=t
            )
        table.rows.sort(key=lambda r: (r["channel"], r["omega"]))
    manifest: dict = {
        "config_path": path,
        "study": kind,
        "dim": dim,
        "params": _jsonable(table.params),
        "truncation": {"m_max": t.m_max, "l_max": t.l_max, "tail_tol": t.tail_tol},
        "failures": table.failures,
    }
    if kind == "eps_scaling":
        manifest["slope"] = table.params["slope"]
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
    if table.failures:
        print(f"{len(table.failures)} sweep row(s) failed", file=sys.stderr)
    return table, manifest, 1 if table.failures else 0


def cmd_study(args) -> int:
    return run_study_config(args.config)[2]


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every main call, built once per process (parsing
    leaves it as it was)."""
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
    args = build_parser().parse_args(_glue_z(list(argv)))
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
