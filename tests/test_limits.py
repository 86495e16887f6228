"""Study tables: validation, determinism, and sweep behavior."""

import math
import sys

import numpy as np
import pytest

from helpers import make_psi
from rotkrein import _radial, specfun
from rotkrein._radial import separable_kernels
from rotkrein.circleint import CircleParam, _gamma, gamma_from_alpha
from rotkrein.blade import BladeParam
from rotkrein.limits import (
    StudyTable,
    blade_convergence_study,
    eps_scaling_study,
    point_convergence_study,
)
from rotkrein.pointint import KreinParam, lambda_at
from rotkrein.rotframe import PointSource, RotationSpec, Truncation, rot_norm_sq
from rotkrein.specfun import ChannelIndex2, ChannelIndex3, channel_class

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
    # The omegas are checked even where no row computes.
    for om in (math.inf, -1.0):
        with pytest.raises(ValueError, match="omega must be finite and nonnegative"):
            point_convergence_study(2, math.pi, 0.8, Z, omegas=(om,),
                                    psis=[make_psi(2, ChannelIndex2(1), n=60)])


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

    real = limits_mod._lambdas_at

    def flaky(dim, zs, kp, rots, src, t, **kw):
        if any(rot.omega == 40.0 for rot in rots):
            raise TruncationError("window too small for this speed")
        return real(dim, zs, kp, rots, src, t, **kw)

    psis = [make_psi(2, ChannelIndex2(1), n=60)]
    want = point_convergence_study(2, math.pi / 2, 0.72, Z, (10.0, 160.0), psis)
    monkeypatch.setattr(limits_mod, "_lambdas_at", flaky)
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
    with pytest.raises(ValueError, match="at least two epsilons"):
        eps_scaling_study(
            2, 1.0, [0.01], RotationSpec(0.0), PointSource(1.0, 2), Truncation(4)
        )
    # A source so close to the origin that the imaginary parts of the
    # diagonals are lost to rounding: a negative norm, nothing to fit.
    with pytest.raises(ValueError, match="at epsilon 0.25 is not a positive double"):
        eps_scaling_study(
            3, 1.0, [0.25, 0.5], RotationSpec(0.0), PointSource(1e-17, 3), Truncation(0, 0)
        )
    # A subnormal epsilon: the norm overflows.
    with pytest.raises(ValueError, match="squared norm inf at epsilon 4.94066e-324"):
        eps_scaling_study(
            2, 1.0, [5e-324, 0.5], RotationSpec(0.0), PointSource(1.0, 2), Truncation(0)
        )
    # Increasing epsilons whose logarithms coincide: no slope to fit.
    with pytest.raises(ValueError, match="too close together to fit a slope"):
        eps_scaling_study(
            2, 1.0, [1e-4, 1.0000000000000002e-4], RotationSpec(0.0), PointSource(1.0, 2),
            Truncation(0)
        )


GRID_PSIS = {
    2: [make_psi(2, ChannelIndex2(1)), make_psi(2, ChannelIndex2(-2))],
    3: [make_psi(3, ChannelIndex3(1, 1)), make_psi(3, ChannelIndex3(3, 1))],
}


def _point_row_by_loop(dim, alpha, y0, z, om, psi):
    """error_norm of one point-study row, side by side with one-omega calls."""
    ch, m0 = psi.channel, psi.channel.shift
    cls = channel_class(dim)
    t = Truncation(m_max=abs(m0), l_max=ch.order)
    wr = psi.quad_weights() * psi.grid ** (dim - 1)
    i_chi = complex(np.sum(wr * separable_kernels(dim, ch.order, z, y0, psi.grid) * psi.values))
    cp = CircleParam(gamma_from_alpha(dim, alpha, y0, l_max=ch.order), y0, dim)
    beta = 2.0 * math.pi / _gamma(cls, m0, cp, z, t.l_max)
    src = PointSource(y0, dim)
    lam = lambda_at(dim, z - m0 * om, KreinParam(alpha), RotationSpec(om), src, t)
    e2 = 0.0
    for c in cls.window(t):
        w = c.source_weight()
        if w == 0.0:
            continue
        energy = z + (c.shift - m0) * om
        fld = separable_kernels(dim, c.order, energy, psi.grid, y0)
        coef = lam - beta if c.shift == m0 else lam
        e2 += w * float(np.sum(wr * np.abs(coef * i_chi * fld) ** 2))
    return math.sqrt(e2)


@pytest.mark.parametrize("dim", [2, 3])
def test_point_study_rows_equal_one_omega_studies(dim):
    # (3, 1) has two sides in the study channel's shift, (1, 1) and (3, 1).
    omegas = np.geomspace(10.0, 1e4, 13).tolist()
    tab = point_convergence_study(dim, 1.3, 0.7, Z, omegas, GRID_PSIS[dim])
    assert len(tab.rows) == 26 and tab.failures == []
    for row in tab.rows:
        psi = next(p for p in GRID_PSIS[dim] if p.channel.label == row["channel"])
        alone = point_convergence_study(dim, 1.3, 0.7, Z, [row["omega"]], [psi])
        assert alone.rows == [row]
        assert row["error_norm"] == _point_row_by_loop(dim, 1.3, 0.7, Z, row["omega"], psi)


@pytest.mark.parametrize("dim,t", [(2, Truncation(16)), (3, Truncation(24, 24))])
def test_eps_study_equals_one_energy_norms(dim, t):
    rot, src = RotationSpec(0.6), PointSource(0.9, dim)
    tab = eps_scaling_study(dim, 1.1, np.geomspace(1e-3, 1e-1, 6), rot, src, t)
    for row in tab.rows:
        assert row["norm_sq"] == rot_norm_sq(dim, complex(1.1, -row["epsilon"]), rot, src, t)


@pytest.mark.parametrize("dim", [2, 3])
def test_point_study_overflow_fails_its_own_rows(dim):
    # The CLI's default profile and channel; the kernels overflow from about
    # omega = 5e5 on.
    psis = [make_psi(dim, ChannelIndex2(1) if dim == 2 else ChannelIndex3(1, 1))]
    tab = point_convergence_study(dim, 1.2, 0.7, Z, [1e2, 1e4, 3e5, 7e5, 1e6], psis)
    assert [f["omega"] for f in tab.failures] == [7e5, 1e6]
    for failure in tab.failures:
        alone = point_convergence_study(dim, 1.2, 0.7, Z, [failure["omega"]], psis)
        assert alone.rows == []
        assert alone.failures == [failure]
        assert failure["error"].startswith("OverflowError: ")
    good = point_convergence_study(dim, 1.2, 0.7, Z, [1e2, 1e4, 3e5], psis)
    assert good.failures == []
    assert tab.to_csv().encode() == good.to_csv().encode()


# The blade study's overflow messages per dimension and failing omega, as
# separable_kernels words them: the order, the channel energy and the radii
# of the first channel kernel of the matrix's sum that is not finite.
BLADE_OVERFLOWS = {
    2: {3e5: "2D radial kernel of order 3 at z=(-1199999.6+1j) is not finite "
             "for radii in [0.646897, 0.998345]",
        1e6: "2D radial kernel of order 3 at z=(-3999999.6+1j) is not finite "
             "for radii in [0.353103, 0.998345]"},
    3: {3e5: "3D radial kernel of order 3 at z=(-1199999.6+1j) is not finite "
             "for radii in [0.724246, 0.992092]",
        1e6: "3D radial kernel of order 3 at z=(-3999999.6+1j) is not finite "
             "for radii in [0.384771, 0.992092]"},
}


@pytest.mark.parametrize("dim", [2, 3])
def test_blade_study_overflow_fails_its_own_rows(dim):
    """From omega = 3e5 on, the J factor of a channel at z - omega + m omega
    (m = -3, the lowest shift of the window) overflows at the outer nodes;
    those rows fail with an OverflowError naming the order, the channel
    energy and the radii, and the rows before them compute."""
    psis = [make_psi(dim, ChannelIndex2(1) if dim == 2 else ChannelIndex3(1, 1))]
    t = Truncation(3) if dim == 2 else None
    tab = blade_convergence_study(dim, BladeParam(1.0, 2.0, dim), Z, [50.0, 1e5, 3e5, 1e6],
                                  psis, t=t)
    assert [f["omega"] for f in tab.failures] == [3e5, 1e6]
    for failure in tab.failures:
        assert failure["error"] == "OverflowError: " + BLADE_OVERFLOWS[dim][failure["omega"]]
    assert [row["omega"] for row in tab.rows] == [50.0, 1e5]
    for row in tab.rows:
        assert 0.0 < row["error_norm"] < math.inf and 0.0 < row["kernel_gap"] < math.inf


@pytest.mark.parametrize("dim,channel", [(2, ChannelIndex2(1)), (3, ChannelIndex3(1, 1))])
def test_blade_study_builds_one_plan_per_channel(dim, channel):
    """The free-field trace is taken once per channel at z itself, which the
    averaged side uses too: one radial_apply plan for the whole study of a
    shifted channel, however many rows it has."""
    _radial._plan.cache_clear()
    blade_convergence_study(dim, BladeParam(1.0, 2.0, dim), Z, [10.0, 20.0, 40.0],
                            [make_psi(dim, channel, n=60, r_max=3.0)],
                            resolution=3, t=Truncation(2, l_max=None if dim == 2 else 3))
    assert _radial._plan.cache_info().misses == 1


def _count_calls(monkeypatch, fn) -> list:
    """Count the calls of fn through every rotkrein module that holds it."""
    calls = []

    def counted(*args, **kw):
        calls.append(args)
        return fn(*args, **kw)

    for name, mod in list(sys.modules.items()):
        if name == "rotkrein" or name.startswith("rotkrein."):
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


@pytest.mark.parametrize("dim", [2, 3])
def test_point_study_kernel_calls_do_not_grow_with_the_grid(monkeypatch, dim):
    calls = _count_calls(monkeypatch, _radial.separable_kernels)
    counts = []
    for n in (5, 50):
        calls.clear()
        tab = point_convergence_study(dim, 1.3, 0.7, Z, np.geomspace(10.0, 1e3, n),
                                      GRID_PSIS[dim][:1])
        assert len(tab.rows) == n
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_eps_study_equatorial_weights_once_per_order(monkeypatch):
    """Every source_shells call takes the weights of all its shifts' degrees
    in one _equatorial_weights call."""
    calls = _count_calls(monkeypatch, specfun._equatorial_weights)
    shells, source_shells = [], specfun.ChannelIndex3.source_shells

    def counted_shells(*args):
        shells.append(args)
        return source_shells(*args)

    monkeypatch.setattr(specfun.ChannelIndex3, "source_shells", staticmethod(counted_shells))
    eps_scaling_study(3, 1.1, np.geomspace(1e-3, 1e-1, 8), RotationSpec(0.6),
                      PointSource(0.9, 3), Truncation(16, 16))
    assert len(calls) == len(shells) > 0
