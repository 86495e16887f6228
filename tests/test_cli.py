"""Command-line front end: parsing, parity with the library, exit codes."""

import configparser
import contextlib
import io
import json
import math
import os
import re
import tempfile

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from rotkrein.cli import format_complex, main, parse_complex
from rotkrein.greens import Point2, TruncationError
from rotkrein.pointint import KreinParam, krein_kernel
from rotkrein.rotframe import PointSource, RotationSpec, Truncation, rot_green


def test_parse_complex_forms():
    assert parse_complex("0.4+1i") == 0.4 + 1.0j
    assert parse_complex("-1+1i") == -1.0 + 1.0j
    assert parse_complex("1.5-0.5i") == 1.5 - 0.5j
    assert parse_complex("2i") == 2.0j
    assert parse_complex("-i") == -1.0j
    assert parse_complex("+i") == 1.0j
    assert parse_complex("3") == 3.0 + 0.0j
    assert parse_complex("1e-3+2e-4i") == 1e-3 + 2e-4j
    assert parse_complex("-2.5e+1i") == -25.0j
    assert parse_complex(" 0.4 + 1i ") == 0.4 + 1.0j
    for bad in ("", "abc", "1+2j", "1++2i"):
        with pytest.raises(ValueError):
            parse_complex(bad)


def test_format_complex_round_trip():
    for v in (0.4 + 1.0j, -1.0 - 0.25j, 3.0, 2e-4j):
        assert parse_complex(format_complex(v)) == complex(v)


def test_kernel_cli_matches_library(capsys):
    code = main(
        ["kernel", "--dim", "2", "--z", "0.4+1i", "--omega", "6.0",
         "--point", "1.8,0.4", "--source", "0.5,2.2", "--m-max", "32"]
    )
    out = capsys.readouterr().out
    assert code == 0
    want = rot_green(
        2, 0.4 + 1.0j, RotationSpec(6.0), Point2(1.8, 0.4), Point2(0.5, 2.2),
        Truncation(32),
    )
    assert f"kernel = {format_complex(want)}" in out
    assert "tail_rel_bound = 1.000e-08" in out


def test_kernel_cli_interacting_matches_library(capsys):
    code = main(
        ["kernel", "--dim", "2", "--z", "0.4+1i", "--omega", "6.0",
         "--point", "1.8,0.4", "--source", "0.5,2.2", "--m-max", "64",
         "--alpha", "1.3", "--y0", "0.7"]
    )
    out = capsys.readouterr().out
    assert code == 0
    want = krein_kernel(
        2, 0.4 + 1.0j, KreinParam(1.3), RotationSpec(6.0),
        Point2(1.8, 0.4), Point2(0.5, 2.2), PointSource(0.7, 2), Truncation(64),
    )
    assert f"kernel = {format_complex(want)}" in out


def test_kernel_cli_near_free_coupling_note(capsys):
    code = main(
        ["kernel", "--dim", "2", "--z", "0.4+1i", "--omega", "6.0",
         "--point", "1.8,0.4", "--source", "0.5,2.2", "--m-max", "32",
         "--alpha", "3.14159265", "--y0", "0.7"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "free fast path" in out
    want = rot_green(
        2, 0.4 + 1.0j, RotationSpec(6.0), Point2(1.8, 0.4), Point2(0.5, 2.2),
        Truncation(32),
    )
    assert f"kernel = {format_complex(want)}" in out


def test_kernel_cli_negative_z_token(capsys):
    code = main(
        ["kernel", "--dim", "2", "--z", "-1+1i", "--omega", "6.0",
         "--point", "1.8,0.4", "--source", "0.5,2.2", "--m-max", "32"]
    )
    assert code == 0
    assert "kernel = " in capsys.readouterr().out


def test_kernel_cli_truncation_failure_exit(capsys):
    code = main(
        ["kernel", "--dim", "2", "--z", "0.4+1i", "--omega", "2.0",
         "--point", "1.3,0.4", "--source", "0.7,2.2", "--m-max", "8"]
    )
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("computation failed: TruncationError")


def test_kernel_cli_overflow_exit(capsys):
    code = main(
        ["kernel", "--dim", "2", "--z", "0.4+1i", "--omega", "1e6",
         "--point", "1.8,0.4", "--source", "0.5,2.2", "--m-max", "8"]
    )
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("computation failed: OverflowError")
    assert err.count("\n") == 1


def test_kernel_cli_validation_exit(capsys):
    code = main(
        ["kernel", "--dim", "2", "--z", "nonsense", "--omega", "2.0",
         "--point", "1.3,0.4", "--source", "0.7,2.2"]
    )
    assert code == 2
    assert "invalid input" in capsys.readouterr().err
    code = main(
        ["kernel", "--dim", "2", "--z", "0.4+1i", "--omega", "2.0",
         "--point", "1.3,0.4", "--source", "0.7,2.2", "--alpha", "1.0"]
    )
    assert code == 2


def test_main_builds_one_parser_per_process(capsys, monkeypatch):
    """Repeated main calls, one of them exiting 2 on bad argv, build one
    ArgumentParser tree (the program and its three subcommands) and print
    what a parser built for each call prints."""
    import argparse

    from rotkrein import cli

    argvs = [
        ["kernel", "--dim", "2", "--z", "0.4+1i", "--omega", "2.0",
         "--point", "1.3,0.4", "--source", "0.7,2.2", "--m-max", "64"],
        ["gamma", "--dim", "2", "--alpha", "1.2", "--y0", "0.7"],
        ["kernel", "--dim", "2", "--omega", "2.0"],
        ["kernel", "--dim", "3", "--z", "-1+1i", "--omega", "0.5",
         "--point", "1.3,0.4,0.1", "--source", "0.7,2.2,1.0", "--m-max", "8"],
        ["gamma", "--dim", "2", "--alpha", "1.2", "--y0", "0.7"],
    ]

    def run_all():
        outputs = []
        for argv in argvs:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            outputs.append((code, *capsys.readouterr()))
        return outputs

    made = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        made.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli.build_parser.cache_clear()
    cached = run_all()
    assert len(made) == 4
    assert [c[0] for c in cached] == [0, 0, 2, 1, 0]
    assert "required: --z" in cached[2][2]
    assert cached[1] == cached[4]
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert run_all() == cached
    assert len(made) == 4 + 4 * len(argvs)


def test_gamma_cli(capsys):
    from rotkrein.circleint import gamma_coeff_2d, gamma_from_alpha
    from rotkrein.circleint import CircleParam

    code = main(["gamma", "--dim", "2", "--alpha", "1.3", "--y0", "0.8"])
    out = capsys.readouterr().out
    assert code == 0
    want = gamma_from_alpha(2, 1.3, 0.8)
    assert f"gamma = {want:.12e}" in out
    assert "Im = 0" in out

    code = main(
        ["gamma", "--dim", "2", "--gamma", "0.9", "--radius", "0.8",
         "--z", "0.4+1i", "--channel", "1"]
    )
    out = capsys.readouterr().out
    assert code == 0
    want = gamma_coeff_2d(1, CircleParam(0.9, 0.8, 2), 0.4 + 1.0j)
    assert f"Gamma = {format_complex(want)}" in out

    # an explicit --l-max 0 is used, not replaced by the default 64
    code = main(["gamma", "--dim", "3", "--alpha", "1", "--y0", "0.8", "--l-max", "0"])
    out = capsys.readouterr().out
    assert code == 0
    want = gamma_from_alpha(3, 1.0, 0.8, l_max=0)
    assert want != gamma_from_alpha(3, 1.0, 0.8, l_max=64)
    assert f"gamma = {want:.12e}" in out

    assert main(["gamma", "--dim", "2", "--alpha", str(math.pi), "--y0", "0.8"]) == 2
    assert "free case" in capsys.readouterr().err
    assert main(["gamma", "--dim", "2"]) == 2


def test_gamma_cli_subnormal_2d_coupling_exits_2(capsys):
    """A coupling whose 1/gamma overflows has no finite Gamma."""
    argv = ["gamma", "--dim", "2", "--gamma", "1e-320", "--radius", "1", "--z", "0.4+1i",
            "--channel", "0"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "Gamma =" not in captured.out
    assert captured.err.startswith("invalid input: gamma = 1e-320 has no finite 2D channel")


def test_gamma_cli_rejects_negative_l_max(capsys):
    argv = ["gamma", "--dim", "3", "--alpha", "1.0", "--y0", "0.7", "--l-max", "-2"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "gamma =" not in captured.out
    assert "l_max must be nonnegative" in captured.err


def _write_config(path, body):
    path.write_text(body)
    return str(path)


POINT_INI = """\
[study]
kind = point_convergence
dim = 2

[parameters]
z = 0.4+1i
alpha = 1.5707963267948966
y0 = 0.72
channels = 1

[sweep]
omegas = 10,20

[psi]
grid_points = 80
r_max = 8.0

[output]
csv = {csv}
json = {json}
manifest = {mani}
"""


def test_study_cli_deterministic_and_matches_library(tmp_path, capsys):
    import numpy as np
    from rotkrein.cli import _psi_profile
    from rotkrein.limits import point_convergence_study
    from rotkrein.specfun import ChannelIndex2

    paths = {}
    for tag in ("a", "b"):
        csv = tmp_path / f"{tag}.csv"
        cfg = _write_config(
            tmp_path / f"{tag}.ini",
            POINT_INI.format(
                csv=csv, json=tmp_path / f"{tag}.json", mani=tmp_path / f"{tag}.mani"
            ),
        )
        assert main(["study", cfg]) == 0
        paths[tag] = csv
    capsys.readouterr()
    assert paths["a"].read_bytes() == paths["b"].read_bytes()

    mani = json.loads((tmp_path / "a.mani").read_text())
    assert mani["failures"] == []
    assert mani["study"] == "point_convergence"

    psis = _psi_profile(2, [ChannelIndex2(1)], 80, 8.0)
    tab = point_convergence_study(
        2, 1.5707963267948966, 0.72, 0.4 + 1.0j, [10.0, 20.0], psis
    )
    lines = paths["a"].read_text().splitlines()
    got = [float(line.split(",")[2]) for line in lines[1:]]
    want = tab.column("error_norm")
    assert got == [float(f"{v:.12e}") for v in want]


def test_study_cli_no_output_prints_table(tmp_path, capsys):
    body = POINT_INI.split("[output]")[0]
    cfg = _write_config(tmp_path / "c.ini", body)
    assert main(["study", cfg]) == 0
    out = capsys.readouterr().out
    assert out.startswith("channel,omega,error_norm")


def test_study_cli_records_row_failures(tmp_path, capsys, monkeypatch):
    import rotkrein.limits as limits_mod

    real = limits_mod._lambdas_at

    def flaky(dim, zs, kp, rots, src, t, **kw):
        if any(rot.omega > 15.0 for rot in rots):
            raise TruncationError("window too small for this speed")
        return real(dim, zs, kp, rots, src, t, **kw)

    monkeypatch.setattr(limits_mod, "_lambdas_at", flaky)
    csv = tmp_path / "f.csv"
    cfg = _write_config(
        tmp_path / "f.ini",
        POINT_INI.format(csv=csv, json=tmp_path / "f.json", mani=tmp_path / "f.mani"),
    )
    assert main(["study", cfg]) == 1
    assert "failed" in capsys.readouterr().err
    mani = json.loads((tmp_path / "f.mani").read_text())
    assert len(mani["failures"]) == 1
    assert mani["failures"][0]["omega"] == 20.0
    assert mani["failures"][0]["channel"] == "n=1"
    assert "TruncationError" in mani["failures"][0]["error"]
    lines = csv.read_text().splitlines()
    assert len(lines) == 2  # header plus the surviving omega row


def test_study_cli_setup_failure_exit(tmp_path, capsys, monkeypatch):
    import rotkrein.limits as limits_mod
    from rotkrein.pointint import ResonanceError

    def resonant(*args, **kw):
        raise ResonanceError("matching integral vanishes")

    monkeypatch.setattr(limits_mod, "gamma_from_alpha", resonant)
    cfg = _write_config(tmp_path / "s.ini", POINT_INI.split("[output]")[0])
    assert main(["study", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("computation failed: ResonanceError")
    assert captured.err.count("\n") == 1
    assert captured.out == ""


BLADE_INI = """\
[study]
kind = blade_convergence
dim = {dim}

[parameters]
z = 0.4+1i
A = 1.0
strength = 2.0
channels = {channels}

[sweep]
omegas = 15,30,60

[truncation]
m_max = 2
l_max = 3
resolution = 4

[psi]
grid_points = 60
r_max = 3.0

[output]
csv = {csv}
"""


def test_study_cli_breakpoint_budget_exits_2(tmp_path, capsys, monkeypatch):
    """A study whose radial_apply plan needs more breakpoints than the budget
    (cut to 8 here, so the plan stays small without the check) exits 2.
    The plan memo is emptied first: a plan that an earlier study of the same
    channel left there would be met without the budget check."""
    import rotkrein._radial as radial_mod

    radial_mod._plan.cache_clear()
    monkeypatch.setattr(radial_mod, "_MAX_EDGES", 8)
    csv = tmp_path / "b.csv"
    cfg = _write_config(tmp_path / "b.ini", BLADE_INI.format(dim=2, channels="1", csv=csv))
    assert main(["study", cfg]) == 2
    captured = capsys.readouterr()
    assert re.fullmatch(r"invalid input: radial_apply needs \S+ breakpoints .* "
                        r"over the budget of 8\n", captured.err)
    assert captured.out == ""
    assert not csv.exists()


@pytest.mark.parametrize("dim,channels", [(2, "0,1"), (3, "1:0,1:1")])
def test_study_cli_blade_sweep_runs_setup_once(tmp_path, capsys, monkeypatch, dim, channels):
    import rotkrein.limits as limits_mod
    from rotkrein.blade import BladeParam
    from rotkrein.cli import _config_channels, _psi_profile

    calls = {"_averaged_correction": 0, "lambda_matrix": 0}

    def spy(name):
        real = getattr(limits_mod, name)

        def counted(*args, **kw):
            calls[name] += 1
            return real(*args, **kw)

        return counted

    for name in calls:
        monkeypatch.setattr(limits_mod, name, spy(name))
    csv = tmp_path / "b.csv"
    cfg = _write_config(
        tmp_path / "b.ini", BLADE_INI.format(dim=dim, channels=channels, csv=csv)
    )
    assert main(["study", cfg]) == 0
    capsys.readouterr()
    assert calls == {"_averaged_correction": 2, "lambda_matrix": 2}

    psis = _psi_profile(dim, _config_channels(dim, channels), 60, 3.0)
    tab = limits_mod.blade_convergence_study(
        dim, BladeParam(1.0, 2.0, dim), 0.4 + 1.0j, [15.0, 30.0, 60.0], psis,
        resolution=4, t=Truncation(m_max=2, l_max=3),
    )
    assert csv.read_text() == tab.to_csv()
    assert len(tab.rows) == 6


def test_study_cli_eps_scaling(tmp_path, capsys):
    cfg = _write_config(
        tmp_path / "e.ini",
        """\
[study]
kind = eps_scaling
dim = 2

[parameters]
x_real = 1.0
omega = 0.0
y0 = 1.0

[sweep]
epsilons = 1e-3,1e-2,1e-1

[truncation]
m_max = 16
""",
    )
    assert main(["study", cfg]) == 0
    out = capsys.readouterr().out
    assert out.startswith("epsilon,norm_sq")


def test_study_cli_validation_exits(tmp_path, capsys):
    assert main(["study", str(tmp_path / "missing.ini")]) == 2
    cfg = _write_config(
        tmp_path / "bad.ini",
        "[study]\nkind = bogus\ndim = 2\n",
    )
    assert main(["study", cfg]) == 2
    cfg = _write_config(
        tmp_path / "empty.ini",
        POINT_INI.format(csv="x.csv", json="x.json", mani="x.mani").replace(
            "omegas = 10,20", "omegas ="
        ),
    )
    assert main(["study", cfg]) == 2
    # invalid parameters and grids are rejected before any row runs
    for tag, old, new in (
        ("alpha", "alpha = 1.5707963267948966", "alpha = 7"),
        ("order", "omegas = 10,20", "omegas = 20,10,10"),
    ):
        csv = tmp_path / f"{tag}.csv"
        cfg = _write_config(
            tmp_path / f"{tag}.ini",
            POINT_INI.format(csv=csv, json=tmp_path / "x.json", mani=tmp_path / "x.mani")
            .replace(old, new),
        )
        assert main(["study", cfg]) == 2
        assert not csv.exists()
    for tag, old, new in (("radius", "A = 1.0", "A = -1"),
                          ("resolution", "resolution = 4", "resolution = 0")):
        cfg = _write_config(
            tmp_path / f"{tag}.ini",
            BLADE_INI.format(dim=2, channels="1", csv=tmp_path / f"{tag}.csv").replace(old, new),
        )
        assert main(["study", cfg]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("dim,channels,fields", [(2, "1:1", "n"), (3, "1", "l:m")])
def test_study_cli_channel_arity_exits_2(tmp_path, capsys, dim, channels, fields):
    """A channel with the wrong number of indices for its dimension is
    invalid input, named by the class's fields, before any row runs."""
    csv = tmp_path / "b.csv"
    cfg = _write_config(tmp_path / "b.ini", BLADE_INI.format(dim=dim, channels=channels, csv=csv))
    assert main(["study", cfg]) == 2
    err = capsys.readouterr().err
    assert err == f"invalid input: {dim}D channel {channels!r} needs {fields}\n"
    assert not csv.exists()


def test_kernel_cli_singular_argument_exits_2(capsys):
    code = main(
        ["kernel", "--dim", "2", "--z", "0.4+1i", "--omega", "2.0",
         "--point", "0,0", "--source", "0,1"]
    )
    assert code == 2
    assert capsys.readouterr().err.startswith("invalid input: ")


# The error policy as a generated test: kernel and gamma argv over extreme
# radii, energies, speeds and couplings.
_RADII = st.floats(-300.0, 300.0).map(lambda e: 10.0**e)
_PARTS = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e15, -1e15]),
                   st.floats(-1e15, 1e15))
_COUPLINGS = st.one_of(st.sampled_from([0.0, 5e-324, -1e-320, 1e-309, math.pi]),
                       st.floats(-1e3, 1e3))


def _complex_token(re: float, im: float) -> str:
    return f"{re!r}{'' if math.copysign(1.0, im) < 0 else '+'}{im!r}i"


@st.composite
def _argv(draw):
    dim = draw(st.sampled_from([2, 3]))
    z = _complex_token(draw(_PARTS), draw(_PARTS))
    m_max = draw(st.integers(0, 6))
    caps = [f"--m-max={m_max}"]
    if dim == 3 and draw(st.booleans()):
        caps.append(f"--l-max={m_max + draw(st.integers(0, 3))}")
    if draw(st.booleans()):
        def point():
            angles = [draw(st.floats(0.0, math.pi)), draw(st.floats(-7.0, 7.0))]
            return ",".join(map(repr, [draw(_RADII), *angles[3 - dim:]]))

        argv = ["kernel", f"--dim={dim}", f"--z={z}", f"--omega={draw(st.floats(0.0, 1e4))!r}",
                f"--point={point()}", f"--source={point()}", *caps]
        if draw(st.booleans()):
            argv += [f"--alpha={draw(_COUPLINGS)!r}", f"--y0={draw(_RADII)!r}"]
        return argv
    if draw(st.booleans()):
        return ["gamma", f"--dim={dim}", f"--alpha={draw(_COUPLINGS)!r}",
                f"--y0={draw(_RADII)!r}", *caps[1:]]
    return ["gamma", f"--dim={dim}", f"--gamma={draw(_COUPLINGS)!r}",
            f"--radius={draw(_RADII)!r}", f"--z={z}",
            f"--channel={draw(st.integers(-6, 6))}", *caps[1:]]


@settings(max_examples=200, deadline=None)
@given(argv=_argv())
@example(argv=["gamma", "--dim=2", "--gamma=1e-320", "--radius=1", "--z=0.4+1i",
               "--channel=0"])  # 1/gamma overflows
@example(argv=["gamma", "--dim=2", "--gamma=-1e-309", "--radius=1.0", "--z=0.4+1i",
               "--channel=0"])
@example(argv=["gamma", "--dim=3", "--gamma=0.0", "--radius=1.0", "--z=0.0+5e-324i",
               "--channel=0"])  # Im z subnormal: the scaled branch of the array root
def test_kernel_and_gamma_argv_keep_the_error_policy(argv):
    """Every run exits 0, 1 (a typed computation error) or 2 (invalid
    input) without a traceback, and prints no nan or inf."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    prefix = {0: "", 1: "computation failed: ", 2: "invalid input: "}[code]
    assert err.getvalue().startswith(prefix)
    assert "Traceback" not in err.getvalue()
    assert not any(bad in out.getvalue().lower() for bad in ("nan", "inf"))


# The error policy of the study argv: generated INI configs of every study
# kind, mostly valid (so most runs compute), with extreme values (NaN and
# infinities among them) mixed in; small windows and grids.  The energies
# and speeds stay below 1e4 or jump to 1e300: radial_apply's breakpoints
# grow with |sqrt(z)| times the grid's length, and between the two (and on
# long grids) a run would take up to the breakpoint budget of 131,072
# intervals per plan, seconds each.
_EXTREMES = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1e300, math.inf,
                                       -math.inf, math.nan, -1.0]),
                      st.floats(-1e4, 1e4))
_MODERATE = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310]),
                      st.floats(-1e4, 1e4))


def _mostly(good, extreme=_EXTREMES):
    """good about seven times in eight."""
    return st.integers(0, 7).flatmap(lambda k: extreme if k == 5 else good)


def _sweep_grid(good):
    valid = st.lists(good, min_size=2, max_size=3, unique=True).map(sorted)
    return _mostly(valid, st.lists(_EXTREMES, min_size=1, max_size=3)).map(
        lambda values: ",".join(map(repr, values)))


@st.composite
def _study_config(draw):
    dim = draw(st.sampled_from([2, 3]))
    kind = draw(st.sampled_from(["point_convergence", "eps_scaling", "blade_convergence"]))
    m_max = draw(st.integers(0, 3))
    trunc = {"m_max": str(m_max)}
    if dim == 3 and draw(_mostly(st.just(True), st.just(False))):
        trunc["l_max"] = str(m_max + draw(st.integers(0, 3)))
    degree = draw(st.integers(0, 3))
    channel = (str(draw(st.integers(-3, 3))) if dim == 2
               else f"{degree}:{draw(st.integers(-degree, degree))}")
    z = _mostly(st.builds(complex, st.floats(-30.0, 30.0), st.floats(0.1, 3.0)).map(
        lambda v: _complex_token(v.real, v.imag)),
        st.builds(_complex_token, _MODERATE, _MODERATE))
    params = {"z": draw(z), "channels": draw(_mostly(st.just(channel),
                                                     st.sampled_from(["1:1:1", "x"])))}
    sweep = {"omegas": draw(_sweep_grid(st.floats(0.0, 1e4)))}
    if kind == "point_convergence":
        params |= {"alpha": repr(draw(_COUPLINGS)),
                   "y0": repr(draw(_mostly(st.floats(0.1, 3.0), _RADII)))}
    elif kind == "eps_scaling":
        params = {"x_real": repr(draw(_mostly(st.floats(0.1, 3.0)))),
                  "omega": repr(draw(_mostly(st.floats(0.0, 20.0)))),
                  "y0": repr(draw(_mostly(st.floats(0.1, 3.0), _RADII)))}
        sweep = {"epsilons": draw(_sweep_grid(st.floats(1e-4, 0.5)))}
    else:
        params |= {"A": repr(draw(_mostly(st.floats(0.2, 3.0)))),
                   "strength": repr(draw(_mostly(st.floats(0.2, 3.0))))}
        trunc["resolution"] = str(draw(st.integers(2, 4)))
    return {"study": {"kind": kind, "dim": str(dim)}, "parameters": params, "sweep": sweep,
            "truncation": trunc,
            "psi": {"grid_points": str(draw(_mostly(st.integers(2, 24), st.just(1)))),
                    "r_max": repr(draw(st.sampled_from([8.0, 8.0, 1e-3])))}}


@settings(max_examples=100, deadline=None)
@given(config=_study_config())
@example(config={"study": {"kind": "eps_scaling", "dim": "2"},
                 "parameters": {"x_real": "1.0", "omega": "0.0", "y0": "1.0"},
                 "sweep": {"epsilons": "0.0001,0.00010000000000000002"},
                 "truncation": {"m_max": "0"}, "psi": {}})  # equal logs: no slope to fit
@example(config={"study": {"kind": "eps_scaling", "dim": "3"},
                 "parameters": {"x_real": "1.0", "omega": "0.0", "y0": "1e-17"},
                 "sweep": {"epsilons": "0.25,0.5"},
                 "truncation": {"m_max": "0", "l_max": "0"}, "psi": {}})  # norms lost to rounding
@example(config={"study": {"kind": "blade_convergence", "dim": "3"},
                 "parameters": {"z": "0.0+1.0i", "channels": "1:0", "A": "1e+300",
                                "strength": "1.0"},
                 "sweep": {"omegas": "0.0,1.0"}, "truncation": {"m_max": "0", "resolution": "2"},
                 "psi": {"grid_points": "2"}})  # the blade measure overflows
@example(config={"study": {"kind": "point_convergence", "dim": "2"},
                 "parameters": {"z": "0.0+1.0i", "channels": "0", "alpha": "3.141592653589793",
                                "y0": "1.0"},
                 "sweep": {"omegas": "inf"}, "truncation": {"m_max": "0"},
                 "psi": {"grid_points": "2"}})  # no row computes where the coupling is free
def test_study_argv_keeps_the_error_policy(config):
    """Every study run exits 0, 1 (a typed computation error, or failed rows
    whose errors the manifest names) or 2 (invalid input) without a
    traceback, and the CSV and JSON it writes hold no nan or inf."""
    with tempfile.TemporaryDirectory() as tmp:
        out_files = {k: os.path.join(tmp, f"out.{k}") for k in ("csv", "json", "manifest")}
        cfg = configparser.ConfigParser()
        cfg.read_dict({**config, "output": out_files})
        path = os.path.join(tmp, "study.ini")
        with open(path, "w") as fh:
            cfg.write(fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["study", path])
        text = err.getvalue()
        event(f"{config['study']['kind']}: exit {code}")
        assert code in (0, 1, 2) and "Traceback" not in text
        typed = r"[A-Za-z]+(Error|Exception): "
        if code == 2:
            assert text.startswith("invalid input: ")
        elif code == 1 and text.startswith("computation failed: "):
            assert re.match(typed, text.removeprefix("computation failed: "))
        elif code == 1:
            assert text.endswith("sweep row(s) failed\n")
            with open(out_files["manifest"]) as fh:
                failures = json.load(fh)["failures"]
            assert failures and all(re.match(typed, f["error"]) for f in failures)
        else:
            assert text == ""
        if code != 2 and os.path.exists(out_files["csv"]):
            with open(out_files["csv"]) as fh:
                csv_text = fh.read().lower()
            assert "nan" not in csv_text and "inf" not in csv_text
            with open(out_files["json"]) as fh:
                json_text = fh.read()
            assert "NaN" not in json_text and "Infinity" not in json_text
