"""Command-line front end: parsing, parity with the library, exit codes."""

import json
import math

import pytest

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

    assert main(["gamma", "--dim", "2", "--alpha", str(math.pi), "--y0", "0.8"]) == 2
    assert "free case" in capsys.readouterr().err
    assert main(["gamma", "--dim", "2"]) == 2


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
    import rotkrein.cli as cli_mod

    real = cli_mod.point_convergence_study

    def flaky(dim, alpha, y0, z, omegas, psis, **kw):
        if omegas[0] > 15.0:
            raise TruncationError("window too small for this speed")
        return real(dim, alpha, y0, z, omegas, psis, **kw)

    monkeypatch.setattr(cli_mod, "point_convergence_study", flaky)
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
    assert "TruncationError" in mani["failures"][0]["error"]
    lines = csv.read_text().splitlines()
    assert len(lines) == 2  # header plus the surviving omega row


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
    capsys.readouterr()
