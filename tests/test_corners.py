"""Tests for repro.technology.corners."""

import pytest

from repro.errors import ConfigurationError
from repro.technology.corners import (
    Corner,
    OperatingPoint,
    all_corners,
    nominal_operating_point,
    pvt_grid,
)


class TestCorner:
    def test_ff_is_fast_both(self):
        assert Corner.FF.nmos_fast and Corner.FF.pmos_fast

    def test_fs_splits(self):
        assert Corner.FS.nmos_fast and not Corner.FS.pmos_fast

    def test_sf_splits(self):
        assert not Corner.SF.nmos_fast and Corner.SF.pmos_fast


class TestOperatingPoint:
    def test_nominal_supply(self, operating_point):
        assert operating_point.supply_voltage == pytest.approx(1.8)

    def test_temperature_kelvin(self, operating_point):
        assert operating_point.temperature_k == pytest.approx(300.15)

    def test_ff_corner_lowers_vth(self, technology):
        tt = nominal_operating_point(technology)
        ff = OperatingPoint(technology=technology, corner=Corner.FF)
        assert ff.nmos_vth() < tt.nmos_vth()
        assert ff.pmos_vth() < tt.pmos_vth()

    def test_ss_corner_raises_vth_and_lowers_kprime(self, technology):
        tt = nominal_operating_point(technology)
        ss = OperatingPoint(technology=technology, corner=Corner.SS)
        assert ss.nmos_vth() > tt.nmos_vth()
        assert ss.nmos_kprime() < tt.nmos_kprime()

    def test_hot_lowers_mobility_and_vth(self, technology):
        cold = OperatingPoint(technology=technology, temperature_c=-40)
        hot = OperatingPoint(technology=technology, temperature_c=125)
        assert hot.nmos_kprime() < cold.nmos_kprime()
        assert hot.nmos_vth() < cold.nmos_vth()

    def test_capacitance_scale_tracks_cap_scale(self, technology):
        point = OperatingPoint(technology=technology, cap_scale=1.2)
        assert point.capacitance_scale() == pytest.approx(1.2, rel=1e-3)

    def test_capacitance_nearly_temperature_flat(self, technology):
        hot = OperatingPoint(technology=technology, temperature_c=125)
        assert hot.capacitance_scale() == pytest.approx(1.0, abs=0.01)

    def test_supply_scale(self, technology):
        point = OperatingPoint(technology=technology, supply_scale=0.9)
        assert point.supply_voltage == pytest.approx(1.62)

    def test_rejects_extreme_temperature(self, technology):
        with pytest.raises(ConfigurationError):
            OperatingPoint(technology=technology, temperature_c=200.0)

    def test_rejects_nonpositive_scales(self, technology):
        with pytest.raises(ConfigurationError):
            OperatingPoint(technology=technology, supply_scale=0.0)
        with pytest.raises(ConfigurationError):
            OperatingPoint(technology=technology, cap_scale=-1.0)

    def test_all_corners_covers_five(self, technology):
        points = all_corners(technology)
        assert len(points) == 5
        assert {p.corner for p in points} == set(Corner)

    def test_pvt_grid_shape_and_order(self, technology):
        points = pvt_grid(
            technology=technology, temperatures_c=(-40.0, 27.0, 125.0)
        )
        assert len(points) == 15
        # Corner-major: the first three rows are TT at each temperature.
        assert [p.corner for p in points[:3]] == [Corner.TT] * 3
        assert [p.temperature_c for p in points[:3]] == [-40.0, 27.0, 125.0]
        assert points[3].corner == Corner.FF

    def test_pvt_grid_passes_supply_scale(self, technology):
        (point,) = pvt_grid(
            technology=technology,
            corners=(Corner.TT,),
            temperatures_c=(27.0,),
            supply_scale=0.9,
        )
        assert point.supply_scale == 0.9
