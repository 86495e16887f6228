"""The four benchmark workloads: parameter draws, inputs and one op each.

Each workload has four steps.  ``draw`` makes the parameters of one op from
a random generator (``tiny`` shrinks every size for the harness self-test).
``make_inputs`` turns them into what the program receives: INI configs,
argv lists or arrays.  ``execute`` is the timed op: it calls the program
through ``rotkrein.cli.main`` or the public library functions.  ``collect``
reads the outputs back as named numeric vectors, plus the raw bytes they
came from, and notes every problem it finds.
"""

from __future__ import annotations

import configparser
import contextlib
import io
import json
import math
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import rotkrein
from rotkrein import cli

Z = "0.4+1i"
Z_VALUE = 0.4 + 1.0j


@dataclass
class OpResult:
    """What one op produced: numeric outputs, raw bytes and any problems."""

    values: dict = field(default_factory=dict)
    raw: bytes = b""
    problems: list = field(default_factory=list)
    bytes_written: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # Pool entries are the parameters the reference digests were made for.
    pool_size: int
    draw: Callable[[np.random.Generator, bool], dict]
    make_inputs: Callable[[dict, Path], object]
    execute: Callable[[object], object]
    collect: Callable[[object, object], OpResult]

    def op(self, params: dict, workdir: Path, timed: Callable) -> OpResult:
        """Run one op; ``timed`` wraps the call that executes it."""
        inputs = self.make_inputs(params, workdir)
        raw = timed(lambda: self.execute(inputs))
        res = self.collect(inputs, raw)
        for name, v in res.values.items():
            if not np.all(np.isfinite(v)):
                res.problems.append(f"{name}: nonfinite value")
        return res


def _u(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(rng.uniform(lo, hi))


def _grid(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _omegas(rng: np.random.Generator, lo: float, hi: float, n: int) -> list:
    """n increasing log-uniform draws in [lo, hi], at least 2% apart."""
    while True:
        om = np.sort(np.exp(rng.uniform(math.log(lo), math.log(hi), n)))
        if np.all(np.diff(om) > 0.02 * om[:-1]):
            return om.tolist()


# ---------------------------------------------------------------------------
# the CLI: studies from INI configs, kernels from argv lists


def run_cli(argvs: dict) -> dict:
    """Run ``rotkrein`` once per argv list; tag -> (status, stdout, stderr)."""
    out = {}
    for tag, argv in argvs.items():
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            status = cli.main(argv)
        out[tag] = (status, stdout.getvalue(), stderr.getvalue())
    return out


def study_inputs(workdir: Path, studies: dict) -> dict:
    """Write one INI config per study; return the argv lists of the op."""
    argvs = {}
    for tag, sections in studies.items():
        cfg = configparser.ConfigParser()
        cfg.read_dict({**sections, "output": {
            k: str(workdir / f"{tag}.{k}") for k in ("csv", "json", "manifest")}})
        ini = workdir / f"{tag}.ini"
        with open(ini, "w") as fh:
            cfg.write(fh)
        argvs[tag] = ["study", str(ini)]
    return argvs


def collect_studies(argvs: dict, ran: dict) -> OpResult:
    res = OpResult()
    for tag, (status, _, stderr) in ran.items():
        if status != 0:
            res.problems.append(f"{tag}: exit {status}: {stderr.strip()}")
            continue
        paths = {k: Path(argvs[tag][1]).with_suffix(f".{k}") for k in ("csv", "json", "manifest")}
        csv_bytes, json_bytes = paths["csv"].read_bytes(), paths["json"].read_bytes()
        failures = json.loads(paths["manifest"].read_text())["failures"]
        if failures:
            res.problems.append(f"{tag}: manifest failures {failures}")
        res.raw += csv_bytes + json_bytes
        res.bytes_written += sum(p.stat().st_size for p in paths.values())
        header, *rows = csv_bytes.decode().splitlines()
        if not rows:
            res.problems.append(f"{tag}: no rows")
            continue
        # The channel label comes first and holds an unquoted comma in 3D
        # ("l=1,m=1"), so the numeric columns are read from the right.
        cols = [c for c in header.split(",") if c != "channel"]
        table = np.array([[float(x) for x in row.split(",")[-len(cols):]] for row in rows])
        for k, col in enumerate(cols):
            res.values[f"{tag}.{col}"] = table[:, k]
        params = json.loads(json_bytes)["params"]
        if "slope" in params:
            res.values[f"{tag}.fit"] = np.array([params["slope"], params["prefactor"]])
    return res


def draw_blade(rng: np.random.Generator, tiny: bool) -> dict:
    n_om = 2 if tiny else 3
    return {
        "2d": {
            "omegas": _omegas(rng, 10.0, 200.0, n_om),
            "channel": str(rng.choice(["-2", "-1", "0", "1", "2"])),
            "strength": _u(rng, 1.0, 3.0),
            "resolution": 3 if tiny else 12,
            "m_max": 2 if tiny else 5,
        },
        "3d": {
            "omegas": _omegas(rng, 10.0, 200.0, n_om),
            "channel": str(rng.choice(["1:1", "1:0", "2:0", "2:1", "2:2", "3:1"])),
            "strength": _u(rng, 1.0, 3.0),
            "resolution": 4 if tiny else 13,
            "m_max": 2 if tiny else 3,
            "l_max": 3 if tiny else 6,
        },
    }


def blade_inputs(p: dict, workdir: Path) -> dict:
    studies = {}
    for dim in (2, 3):
        q = p[f"{dim}d"]
        trunc = {"m_max": q["m_max"], "resolution": q["resolution"]}
        if dim == 3:
            trunc["l_max"] = q["l_max"]
        studies[f"blade{dim}d"] = {
            "study": {"kind": "blade_convergence", "dim": dim},
            "parameters": {"z": Z, "A": 1.0, "strength": repr(q["strength"]),
                           "channels": q["channel"]},
            "sweep": {"omegas": _grid(q["omegas"])},
            "truncation": trunc,
        }
    return study_inputs(workdir, studies)


def draw_point_eps(rng: np.random.Generator, tiny: bool) -> dict:
    # Channels and grid lengths stay fixed: they set the cost of an op (the
    # channel sets the window of the point study), and ops should cost alike.
    n_om = 8 if tiny else 200
    p = {}
    for dim in (2, 3):
        p[f"point{dim}d"] = {
            "omegas": np.geomspace(_u(rng, 10.0, 12.0), _u(rng, 8e3, 1e4), n_om).tolist(),
            "alpha": _u(rng, 0.5, 2.5),
            "y0": _u(rng, 0.5, 1.0),
            "channel": "1" if dim == 2 else "1:1",
        }
    for dim in (2, 3):
        p[f"eps{dim}d"] = {
            "epsilons": np.geomspace(_u(rng, 1e-3, 2e-3), _u(rng, 5e-2, 1e-1), 8).tolist(),
            "x_real": _u(rng, 0.5, 1.5),
            "omega": _u(rng, 0.0, 1.0),
            "y0": _u(rng, 0.5, 1.5),
            "cap": 8 if tiny else 64,
        }
    return p


def point_eps_inputs(p: dict, workdir: Path) -> dict:
    studies = {}
    for dim in (2, 3):
        q = p[f"point{dim}d"]
        studies[f"point{dim}d"] = {
            "study": {"kind": "point_convergence", "dim": dim},
            "parameters": {"z": Z, "alpha": repr(q["alpha"]), "y0": repr(q["y0"]),
                           "channels": q["channel"]},
            "sweep": {"omegas": _grid(q["omegas"])},
        }
    for dim in (2, 3):
        q = p[f"eps{dim}d"]
        trunc = {"m_max": q["cap"]}
        if dim == 3:
            trunc["l_max"] = q["cap"]
        studies[f"eps{dim}d"] = {
            "study": {"kind": "eps_scaling", "dim": dim},
            "parameters": {"x_real": repr(q["x_real"]), "omega": repr(q["omega"]),
                           "y0": repr(q["y0"])},
            "sweep": {"epsilons": _grid(q["epsilons"])},
            "truncation": trunc,
        }
    return study_inputs(workdir, studies)


def draw_kernel(rng: np.random.Generator, tiny: bool) -> dict:
    # The radii keep the point, the source and the interaction site apart, so
    # the channel-window tail check passes for every omega in [1, 20].
    def pt(dim, lo, hi):
        r = _u(rng, lo, hi)
        if dim == 2:
            return [r, _u(rng, 0.0, 2.0 * math.pi)]
        return [r, _u(rng, 0.3, math.pi - 0.3), _u(rng, 0.0, 2.0 * math.pi)]

    p = {"omega": _u(rng, 1.0, 20.0), "alpha": _u(rng, 0.5, 2.5), "y0": _u(rng, 0.6, 0.8)}
    for dim in (2, 3):
        p[f"point{dim}d"] = pt(dim, 1.5, 1.8)
        p[f"source{dim}d"] = pt(dim, 0.15, 0.3)
    # The self-test keeps these caps too: smaller ones fail the tail check.
    p["caps"] = [32, 64, 48]
    return p


def kernel_inputs(p: dict, workdir: Path) -> dict:
    def base(dim):
        return ["kernel", "--dim", str(dim), "--z", Z, "--omega", repr(p["omega"]),
                "--point", _grid(p[f"point{dim}d"]), "--source", _grid(p[f"source{dim}d"])]

    c2f, c2i, c3 = p["caps"]
    coupling = ["--alpha", repr(p["alpha"]), "--y0", repr(p["y0"])]
    l3 = ["--m-max", str(c3), "--l-max", str(c3)]
    return {
        "2d.free": base(2) + ["--m-max", str(c2f)],
        "2d.interacting": base(2) + ["--m-max", str(c2i)] + coupling,
        "3d.free": base(3) + l3,
        "3d.interacting": base(3) + l3 + coupling,
    }


def collect_kernel(argvs: dict, ran: dict) -> OpResult:
    res = OpResult()
    for tag, (status, stdout, stderr) in ran.items():
        res.raw += stdout.encode()
        line = next((ln for ln in stdout.splitlines() if ln.startswith("kernel = ")), None)
        if status != 0 or line is None:
            res.problems.append(f"{tag}: exit {status}: {stderr.strip()} {stdout!r}")
            continue
        res.values[tag] = np.array([complex(line.split("=", 1)[1].strip().replace("i", "j"))])
    return res


# ---------------------------------------------------------------------------
# resolvent applications through the library


def draw_apply(rng: np.random.Generator, tiny: bool) -> dict:
    # Fixed channels and grid length, so that ops cost alike.
    return {
        "grid_points": 100 if tiny else 1000,
        "power": _u(rng, 1.0, 2.0),
        "width": _u(rng, 0.7, 1.5),
        "channel2d": 1,
        "channel3d": [1, 1],
        "alpha": _u(rng, 0.5, 2.5),
        "omega": _u(rng, 1.0, 20.0),
        "y0": _u(rng, 0.5, 1.5),
        "gamma": _u(rng, 0.5, 2.0),
        "strength": _u(rng, 1.0, 3.0),
    }


def apply_inputs(p: dict, workdir: Path) -> dict:
    """Channel functions r^power exp(-(r/width)^2) on a Gauss grid of (0, 8)."""
    xg, wg = np.polynomial.legendre.leggauss(p["grid_points"])
    rg, wq = 4.0 * (xg + 1.0), 4.0 * wg
    vals = (rg ** p["power"] * np.exp(-((rg / p["width"]) ** 2))).astype(complex)
    chans = {2: rotkrein.ChannelIndex2(p["channel2d"]),
             3: rotkrein.ChannelIndex3(*p["channel3d"])}
    return {dim: (rotkrein.RadialChannelFunction(ch, rg, vals, wq), p)
            for dim, ch in chans.items()}


def run_apply(inputs: dict) -> dict:
    out = {}
    for dim, (psi, p) in inputs.items():
        t = rotkrein.Truncation(m_max=8, l_max=8 if dim == 3 else None)
        free, coef = rotkrein.apply_krein_resolvent(
            dim, psi, Z_VALUE, rotkrein.KreinParam(p["alpha"]),
            rotkrein.RotationSpec(p["omega"]), rotkrein.PointSource(p["y0"], dim), t,
        )
        circle = rotkrein.apply_circle_resolvent(
            dim, psi, rotkrein.CircleParam(p["gamma"], p["y0"], dim), Z_VALUE, t
        )
        averaged = rotkrein.averaged_resolvent(
            dim, Z_VALUE, rotkrein.BladeParam(1.0, p["strength"], dim), psi
        )
        out[f"{dim}d.krein.free"] = free.values
        out[f"{dim}d.krein.coef"] = np.array([coef])
        out[f"{dim}d.circle"] = circle.values
        out[f"{dim}d.averaged"] = averaged.values
    return out


def collect_apply(inputs: dict, ran: dict) -> OpResult:
    res = OpResult()
    for tag, v in ran.items():
        v = np.asarray(v, dtype=complex)
        res.values[tag] = v
        res.raw += v.tobytes()
    return res


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "blade-sweep",
            "2D and 3D blade studies: blade assembly and the g2_vec/g3_vec array "
            "kernels do almost all the work; 13 distinct radii among 169 3D nodes",
            12, draw_blade, blade_inputs, run_cli, collect_studies,
        ),
        Workload(
            "point-eps-sweep",
            "point studies over ~200 omegas and eps-scaling studies at cap 64: "
            "lambda_at, channel_diag and scalar kernels, no blade work",
            96, draw_point_eps, point_eps_inputs, run_cli, collect_studies,
        ),
        Workload(
            "kernel-eval",
            "four rotkrein kernel calls: pointwise shell sums and per-term scalar "
            "specfun calls; no arrays, meshes or files",
            256, draw_kernel, kernel_inputs, run_cli, collect_kernel,
        ),
        Workload(
            "resolvent-apply",
            "krein, circle and averaged resolvents applied to ~1000-point channel "
            "functions in 2D and 3D: the radial_apply loop dominates",
            24, draw_apply, apply_inputs, run_apply, collect_apply,
        ),
    )
}


def pool(wl: Workload, tiny: bool) -> list:
    """The workload's fixed parameter pool, which the reference digests cover."""
    rng = np.random.default_rng(zlib.crc32(wl.name.encode()))
    return [wl.draw(rng, tiny) for _ in range(wl.pool_size)]


# ---------------------------------------------------------------------------
# reference digests


def digest(values: dict) -> dict:
    """Per output vector: length, L1 norm, plain and ramp-weighted sums."""
    out = {}
    for name, v in sorted(values.items()):
        v = np.asarray(v, dtype=complex).ravel()
        ramp = np.arange(1, v.size + 1) / v.size
        s, w = v.sum(), (ramp * v).sum()
        out[name] = [v.size, float(np.abs(v).sum()), s.real, s.imag, w.real, w.imag]
    return out


def digest_mismatch(got: dict, ref: dict, rtol: float) -> list:
    """Names whose digest differs from the reference beyond rtol * L1 norm."""
    bad = sorted(set(got) ^ set(ref))
    for name in sorted(set(got) & set(ref)):
        g, r = got[name], ref[name]
        scale = rtol * max(r[1], 1e-300)
        if g[0] != r[0] or any(abs(a - b) > scale for a, b in zip(g[1:], r[1:])):
            bad.append(name)
    return bad
