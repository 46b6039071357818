"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from insa import (
    ConstantField,
    GeodeticPosition,
    GridField,
    Observation,
    OffsetGrid3D,
    Offsets,
    QuasiStaticModel,
    anchors,
    build_figure,
    d_geopotential_d_hp,
    geodetic_to_geopotential,
    geopotential_from_hp,
    hp_from_geopotential,
    hp_from_pressure,
    identify_offsets,
    pressure_from_hp,
    standard_temperature_from_hp,
    state_at_geopotential,
    temperature_from_hp,
    vertical_gradients,
)
from insa import solvers, static_atmosphere
from insa.cli import main as cli_main
from insa.figures import FIGURE_IDS

ISA = Offsets(0.0, 0.0)
HP_TROP = 11000.0

# mpmath 50-digit evaluation of the troposphere pressure law at 11 km
P_TROP_EXACT = 22632.040095007799
# mpmath 50-digit evaluation of -rho0*g0
RHO0_G0 = 12.01314625


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number:02d}: {title}")
        raise
    print(f"[PASS] criterion {number:02d}: {title}")


def random_offsets(rng):
    return Offsets(rng.uniform(-20.0, 20.0), rng.uniform(-5000.0, 5000.0))


def test_criterion_01_standard_msl_reproduction():
    with criterion(1, "standard mean sea level reproduction"):
        state = state_at_geopotential(0.0, ISA)
        assert state.p == 101325.0
        assert state.T == 288.15
        assert abs(state.rho - 1.225) < 1e-4


def test_criterion_02_tropopause_values():
    with criterion(2, "tropopause standard temperature and pressure"):
        assert abs(standard_temperature_from_hp(11000.0) - 216.65) < 1e-9
        assert abs(pressure_from_hp(11000.0) - P_TROP_EXACT) < 0.5


def test_criterion_03_isa_convergence():
    with criterion(3, "ISA convergence: H equals Hp when both offsets vanish"):
        rng = np.random.default_rng(101)
        for hp in rng.uniform(-2000.0, 20000.0, 10000):
            assert abs(geopotential_from_hp(float(hp), ISA) - hp) < 1e-9


def test_criterion_04_round_trip_inversions(monkeypatch):
    with criterion(4, "Hp<->p and Hp<->H round trips, Newton within 10 iterations"):
        iterations = []

        def newton(a, c, **kwargs):
            u, n = solvers.newton(a, c, **kwargs)
            iterations.append(n)
            return u, n

        monkeypatch.setattr(static_atmosphere, "newton", newton)
        rng = np.random.default_rng(102)
        for _ in range(10000):
            offsets = random_offsets(rng)
            hp = float(rng.uniform(-2000.0, 20000.0))
            assert abs(hp_from_pressure(pressure_from_hp(hp)) - hp) < 1e-6
            H = geopotential_from_hp(hp, offsets)
            assert abs(hp_from_geopotential(H, offsets) - hp) < 1e-6
        assert max(iterations) <= 10


def test_criterion_05_offset_identification_round_trip():
    with criterion(5, "offset identification inverts the forward model"):
        rng = np.random.default_rng(103)
        for _ in range(1000):
            offsets = random_offsets(rng)
            h = float(rng.uniform(0.0, 4000.0))
            state = state_at_geopotential(geodetic_to_geopotential(h), offsets)
            got = identify_offsets(
                Observation(t=0.0, lon=0.0, lat=0.0, h=h, p=state.p, T=state.T)
            )
            assert abs(got.delta_T - offsets.delta_T) < 1e-7
            assert abs(got.delta_p - offsets.delta_p) < 1e-6


def test_criterion_06_figure_properties():
    with criterion(6, "parallel lines, common intercept, gradient step"):
        hps = [100.0 * i for i in range(151)]
        # Pure pressure offsets keep every curve parallel.
        for dp1, dp2 in ((-5000.0, 5000.0), (-2500.0, 0.0), (2500.0, 5000.0)):
            o1, o2 = Offsets(0.0, dp1), Offsets(0.0, dp2)
            gaps = [
                geopotential_from_hp(hp, o1) - geopotential_from_hp(hp, o2)
                for hp in hps
            ]
            assert max(gaps) - min(gaps) < 1e-9
        # Columns sharing delta_p cross H = 0 at the same pressure altitude.
        for dp in (-5000.0, 0.0, 5000.0):
            hp_msl = anchors(Offsets(0.0, dp)).Hp_msl
            for dt in (-20.0, 0.0, 20.0):
                assert abs(geopotential_from_hp(hp_msl, Offsets(dt, dp))) < 1e-6
        # Two-layer temperature gradient step, per pressure altitude.
        eps = 0.01
        for hp in (0.0, 5000.0, 10999.0 - eps):
            fd = (
                temperature_from_hp(hp + eps, ISA) - temperature_from_hp(hp - eps, ISA)
            ) / (2 * eps)
            assert fd == pytest.approx(-6.5e-3, rel=1e-9)
        for hp in (11002.0, 15000.0, 19999.0):
            fd = (
                temperature_from_hp(hp + eps, ISA) - temperature_from_hp(hp - eps, ISA)
            ) / (2 * eps)
            assert fd == 0.0
        table = build_figure("dTdHp")
        for hp_km, value in zip(table.abscissa_km, table.series[0].values):
            assert value == (-6.5 if hp_km <= 11.0 else 0.0)


def test_criterion_07_derivative_checks():
    with criterion(7, "analytic derivatives match central finite differences"):
        rng = np.random.default_rng(104)
        eps = 0.01
        checked = 0
        while checked < 1000:
            offsets = random_offsets(rng)
            hp = float(rng.uniform(-1999.0, 19999.0))
            if abs(hp - HP_TROP) < 1.0 + eps:
                continue
            checked += 1
            fd_slope = (
                geopotential_from_hp(hp + eps, offsets)
                - geopotential_from_hp(hp - eps, offsets)
            ) / (2 * eps)
            assert d_geopotential_d_hp(hp, offsets) == pytest.approx(fd_slope, rel=1e-6)

            H = geopotential_from_hp(hp, offsets)
            before = state_at_geopotential(H - eps, offsets)
            after = state_at_geopotential(H + eps, offsets)
            grads = vertical_gradients(H, offsets)
            assert grads.dp_dH == pytest.approx(
                (after.p - before.p) / (2 * eps), rel=1e-6
            )
            fd_T = (after.T - before.T) / (2 * eps)
            if grads.dT_dH == 0.0:
                assert fd_T == 0.0
            else:
                assert grads.dT_dH == pytest.approx(fd_T, rel=1e-6)
            assert grads.drho_dH == pytest.approx(
                (after.rho - before.rho) / (2 * eps), rel=1e-6
            )


def test_criterion_08_tropopause_continuity():
    with criterion(8, "one-sided limits agree at the tropopause"):
        delta = 1e-9
        for dt in (-20.0, 0.0, 20.0):
            for dp in (-5000.0, 0.0, 5000.0):
                offsets = Offsets(dt, dp)
                below_hp, above_hp = HP_TROP - delta, HP_TROP + delta
                pairs = (
                    (pressure_from_hp(below_hp), pressure_from_hp(above_hp)),
                    (
                        temperature_from_hp(below_hp, offsets),
                        temperature_from_hp(above_hp, offsets),
                    ),
                    (
                        geopotential_from_hp(below_hp, offsets),
                        geopotential_from_hp(above_hp, offsets),
                    ),
                    (
                        state_at_geopotential(
                            geopotential_from_hp(below_hp, offsets), offsets
                        ).rho,
                        state_at_geopotential(
                            geopotential_from_hp(above_hp, offsets), offsets
                        ).rho,
                    ),
                )
                for lo, hi in pairs:
                    assert abs(hi - lo) <= 1e-9 * max(abs(lo), abs(hi))


def test_criterion_09_quasi_static_rates():
    with criterion(9, "quasi-static pressure rate at a standard sea level climb"):
        model = QuasiStaticModel(field=ConstantField(ISA))
        msl = GeodeticPosition(lon=0.0, lat=0.0, h=0.0)
        rates = model.property_rates(0.0, msl, 1.0)
        assert abs(rates.dp_dt - (-RHO0_G0)) < 1e-3
        h_dot, step = 1.0, 1.0
        before = model.query(-step, GeodeticPosition(0.0, 0.0, -h_dot * step))
        after = model.query(step, GeodeticPosition(0.0, 0.0, h_dot * step))
        fd = (after.p - before.p) / (2 * step)
        assert rates.dp_dt == pytest.approx(fd, rel=1e-5)


def test_criterion_10_grid_interpolation():
    with criterion(10, "grid node exactness, constant field, longitude wrap"):
        two_pi = 2.0 * math.pi
        t_axis = (0.0, 1800.0, 3600.0)
        lon_axis = tuple(i * two_pi / 4 for i in range(4))
        lat_axis = tuple(math.radians(v) for v in (-45.0, 0.0, 45.0))
        rng = np.random.default_rng(105)
        shape = (3, 4, 3)
        grid = OffsetGrid3D(
            t_axis=t_axis,
            lon_axis=lon_axis,
            lat_axis=lat_axis,
            delta_T=rng.uniform(-20.0, 20.0, shape),
            delta_p=rng.uniform(-2500.0, 2500.0, shape),
        )
        field = GridField(grid)
        for it, t in enumerate(t_axis):
            for il, lon in enumerate(lon_axis):
                for ik, lat in enumerate(lat_axis):
                    got = field.evaluate(t, lon, lat)
                    assert got.delta_T == grid.delta_T[it, il, ik]
                    assert got.delta_p == grid.delta_p[it, il, ik]
        constant = GridField(
            OffsetGrid3D(
                t_axis=t_axis,
                lon_axis=lon_axis,
                lat_axis=lat_axis,
                delta_T=np.full(shape, 10.0),
                delta_p=np.full(shape, 2500.0),
            )
        )
        for _ in range(300):
            t = rng.uniform(0.0, 3600.0)
            lon = rng.uniform(0.0, two_pi)
            lat = rng.uniform(lat_axis[0], lat_axis[-1])
            assert constant.evaluate(t, lon, lat) == Offsets(10.0, 2500.0)
        for _ in range(300):
            t = rng.uniform(0.0, 3600.0)
            lon = rng.uniform(-two_pi, two_pi)
            lat = rng.uniform(lat_axis[0], lat_axis[-1])
            a = field.evaluate(t, lon, lat)
            b = field.evaluate(t, lon + two_pi, lat)
            assert abs(a.delta_T - b.delta_T) < 1e-12
            assert abs(a.delta_p - b.delta_p) < 1e-12


def test_criterion_11_cli_figure_determinism(tmp_path, runner):
    with criterion(11, "figure tables byte-identical and fast"):
        start = time.perf_counter()
        for figure_id in FIGURE_IDS:
            out1 = tmp_path / f"{figure_id}_1.txt"
            out2 = tmp_path / f"{figure_id}_2.txt"
            assert runner.invoke(cli_main, ["figure", figure_id, str(out1)]).exit_code == 0
            assert runner.invoke(cli_main, ["figure", figure_id, str(out2)]).exit_code == 0
            assert out1.read_bytes() == out2.read_bytes()
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0
