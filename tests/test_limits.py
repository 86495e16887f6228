"""Study tables: validation, determinism, and sweep behavior."""

import math

import numpy as np
import pytest

from helpers import make_psi
from rotkrein.blade import BladeParam
from rotkrein.limits import (
    StudyTable,
    blade_convergence_study,
    eps_scaling_study,
    point_convergence_study,
)
from rotkrein.rotframe import PointSource, RotationSpec, Truncation
from rotkrein.specfun import ChannelIndex2, ChannelIndex3

Z = 0.4 + 1.0j


def test_table_rejects_negative_error():
    with pytest.raises(ValueError):
        StudyTable("s", {}, [{"omega": 1.0, "error_norm": -1e-3}])


def test_table_serialization_is_deterministic(tmp_path):
    tab = StudyTable(
        "s",
        {"z": Z, "count": np.int64(3), "scale": np.float64(0.5)},
        [
            {"omega": 10.0, "error_norm": 1.5e-2, "flag": True},
            {"omega": 20.0, "error_norm": 5.0e-3, "flag": False},
        ],
    )
    csv1, csv2 = tab.to_csv(), tab.to_csv()
    assert csv1 == csv2
    lines = csv1.splitlines()
    assert lines[0] == "omega,error_norm,flag"
    assert lines[1] == "1.000000000000e+01,1.500000000000e-02,True"
    js1, js2 = tab.to_json(), tab.to_json()
    assert js1 == js2
    assert '"0.4+1i"' in js1
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    tab.to_csv(str(p1))
    tab.to_csv(str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    assert tab.column("omega") == [10.0, 20.0]


def test_sweep_validation():
    psi = [make_psi(2, ChannelIndex2(1), n=60)]
    with pytest.raises(ValueError):
        point_convergence_study(2, 1.0, 0.8, Z, omegas=(), psis=psi)
    with pytest.raises(ValueError):
        point_convergence_study(2, 1.0, 0.8, Z, omegas=(10.0, 10.0), psis=psi)
    with pytest.raises(ValueError):
        point_convergence_study(2, 1.0, 0.8, Z, omegas=(20.0, 10.0), psis=psi)


def test_point_study_validation():
    psi = [make_psi(2, ChannelIndex2(1), n=60)]
    with pytest.raises(ValueError):
        point_convergence_study(4, 1.0, 0.8, Z, psis=psi)
    with pytest.raises(ValueError):
        point_convergence_study(2, 1.0, 0.8, 0.4 - 1.0j, psis=psi)
    with pytest.raises(ValueError):
        point_convergence_study(2, 1.0, 0.8, Z, psis=())
    with pytest.raises(ValueError):
        point_convergence_study(3, 1.0, 0.8, Z, psis=psi)


def test_point_study_free_coupling_short_circuit():
    tab = point_convergence_study(
        2, math.pi, 0.8, Z, omegas=(10.0, 20.0),
        psis=[make_psi(2, ChannelIndex2(1), n=60)],
    )
    assert tab.column("error_norm") == [0.0, 0.0]


def test_point_study_errors_decay():
    tab = point_convergence_study(
        2, math.pi / 2, 0.72, Z, omegas=(10.0, 40.0, 160.0),
        psis=[make_psi(2, ChannelIndex2(1))],
    )
    e = tab.column("error_norm")
    assert e[0] > e[1] > e[2] > 0.0
    assert e[2] <= e[0] / 4.0
    assert tab.study == "point_convergence"
    assert tab.params["channels"] == ["n=1"]


def test_blade_study_zero_strength_rows():
    tab = blade_convergence_study(
        2, BladeParam(1.0, 0.0, 2), Z, omegas=(10.0, 20.0),
        psis=[make_psi(2, ChannelIndex2(1), n=60, r_max=3.0)],
        resolution=4, t=Truncation(2),
    )
    assert tab.column("error_norm") == [0.0, 0.0]
    assert tab.column("kernel_gap") == [0.0, 0.0]


def test_blade_study_errors_decay():
    tab = blade_convergence_study(
        2, BladeParam(1.0, 2.0, 2), Z, omegas=(15.0, 60.0),
        psis=[make_psi(2, ChannelIndex2(1), n=120, r_max=3.0)],
        resolution=6, t=Truncation(3),
    )
    e = tab.column("error_norm")
    g = tab.column("kernel_gap")
    assert e[0] > e[1] > 0.0
    assert g[0] > g[1] > 0.0
    assert tab.params["strength"] == 2.0


def test_blade_study_validation():
    psi = [make_psi(2, ChannelIndex2(1), n=60, r_max=3.0)]
    with pytest.raises(ValueError):
        blade_convergence_study(3, BladeParam(1.0, 2.0, 2), Z, psis=psi)
    with pytest.raises(ValueError):
        blade_convergence_study(2, BladeParam(1.0, 2.0, 2), 0.4, psis=psi)
    with pytest.raises(ValueError):
        blade_convergence_study(2, BladeParam(1.0, 2.0, 2), Z, psis=())


def test_blade_study_radial_strength_label():
    tab = blade_convergence_study(
        2, BladeParam(1.0, lambda r: 2.0 + 0.0 * r, 2), Z, omegas=(20.0,),
        psis=[make_psi(2, ChannelIndex2(1), n=60, r_max=3.0)],
        resolution=4, t=Truncation(2),
    )
    assert tab.params["strength"] == "radial"
    assert tab.column("error_norm")[0] > 0.0


def test_point_study_records_row_failures(monkeypatch):
    import rotkrein.limits as limits_mod
    from rotkrein.greens import TruncationError

    real = limits_mod.lambda_at

    def flaky(dim, z, kp, rot, src, t, **kw):
        if rot.omega == 40.0:
            raise TruncationError("window too small for this speed")
        return real(dim, z, kp, rot, src, t, **kw)

    psis = [make_psi(2, ChannelIndex2(1), n=60)]
    want = point_convergence_study(2, math.pi / 2, 0.72, Z, (10.0, 160.0), psis)
    monkeypatch.setattr(limits_mod, "lambda_at", flaky)
    tab = point_convergence_study(2, math.pi / 2, 0.72, Z, (10.0, 40.0, 160.0), psis)
    assert tab.rows == want.rows
    assert tab.failures == [
        {"channel": "n=1", "omega": 40.0,
         "error": "TruncationError: window too small for this speed"}
    ]
    assert want.failures == []
    assert "failures" not in tab.to_json()
    assert tab.to_csv() == want.to_csv()


def test_eps_study_slope_and_monotone():
    tab = eps_scaling_study(
        2, 1.0, np.geomspace(1e-3, 1e-1, 5), RotationSpec(0.0),
        PointSource(1.0, 2), Truncation(48),
    )
    ns = tab.column("norm_sq")
    assert all(a > b for a, b in zip(ns, ns[1:]))
    assert tab.params["slope"] == pytest.approx(-1.0, abs=0.1)
    assert tab.params["prefactor"] > 0.0
    with pytest.raises(ValueError):
        eps_scaling_study(
            2, 1.0, [0.5, 1.5], RotationSpec(0.0), PointSource(1.0, 2), Truncation(8)
        )
    with pytest.raises(ValueError):
        eps_scaling_study(
            2, 1.0, [], RotationSpec(0.0), PointSource(1.0, 2), Truncation(8)
        )
