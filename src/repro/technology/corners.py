"""Process corners and operating points.

A :class:`Corner` shifts threshold voltages and mobilities the way foundry
corner models do; an :class:`OperatingPoint` bundles a corner with
temperature and supply so device models can be evaluated consistently
across PVT.  The paper's SC bias generator (its eq. (1)) is specifically
motivated by PVT robustness — V_BIAS comes from a bandgap and the current
tracks the actual on-chip capacitance — so the corner machinery is load-
bearing for the `abl-capspread` ablation.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.technology.process import Technology
from repro.units import celsius_to_kelvin


class Corner(enum.Enum):
    """Classic five-corner set: (NMOS speed, PMOS speed)."""

    TT = "tt"
    FF = "ff"
    SS = "ss"
    FS = "fs"
    SF = "sf"

    @property
    def nmos_fast(self) -> bool:
        return self in (Corner.FF, Corner.FS)

    @property
    def pmos_fast(self) -> bool:
        return self in (Corner.FF, Corner.SF)


#: Fractional k' (mobility) shift for a fast / slow device.
_KPRIME_FAST = +0.12
_KPRIME_SLOW = -0.12
#: Absolute Vth shift for a fast / slow device [V].
_VTH_FAST = -0.05
_VTH_SLOW = +0.05
#: Mobility temperature exponent: mu ~ T^-1.5.
_MOBILITY_TEMP_EXPONENT = -1.5
#: Threshold temperature coefficient [V/K].
_VTH_TEMPCO = -1.0e-3
#: Metal capacitor temperature coefficient [1/K] — tiny, metal caps are
#: nearly temperature-flat; kept nonzero so sweeps exercise the path.
_CAP_TEMPCO = 25e-6


@dataclass(frozen=True)
class OperatingPoint:
    """A (corner, temperature, supply) triple applied to a technology.

    Attributes:
        technology: typical-corner parameter set.
        corner: process corner.
        temperature_c: junction temperature [Celsius].
        supply_scale: supply multiplier (1.0 = nominal 1.8 V).
        cap_scale: multiplier on all absolute capacitances; 1.0 nominal.
            Die-to-die capacitor spread enters here (drawn by the Monte
            Carlo sampler from ``Technology.metal_cap_spread``).
    """

    technology: Technology = field(default_factory=Technology)
    corner: Corner = Corner.TT
    temperature_c: float = 27.0
    supply_scale: float = 1.0
    cap_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.supply_scale <= 0:
            raise ConfigurationError("supply_scale must be positive")
        if self.cap_scale <= 0:
            raise ConfigurationError("cap_scale must be positive")
        if not -55.0 <= self.temperature_c <= 150.0:
            raise ConfigurationError(
                "temperature outside the modeled -55..150C range: "
                f"{self.temperature_c}C"
            )

    # --- derived electrical quantities -------------------------------

    @property
    def temperature_k(self) -> float:
        """Junction temperature in kelvin."""
        return celsius_to_kelvin(self.temperature_c)

    @property
    def supply_voltage(self) -> float:
        """Actual supply voltage [V]."""
        return self.technology.supply_voltage * self.supply_scale

    def _temp_mobility_factor(self) -> float:
        reference = celsius_to_kelvin(27.0)
        return (self.temperature_k / reference) ** _MOBILITY_TEMP_EXPONENT

    def _temp_vth_shift(self) -> float:
        return _VTH_TEMPCO * (self.temperature_k - celsius_to_kelvin(27.0))

    def nmos_vth(self) -> float:
        """NMOS threshold at this operating point [V]."""
        shift = _VTH_FAST if self.corner.nmos_fast else 0.0
        if self.corner in (Corner.SS, Corner.SF):
            shift = _VTH_SLOW
        return self.technology.nmos_vth + shift + self._temp_vth_shift()

    def pmos_vth(self) -> float:
        """PMOS threshold magnitude at this operating point [V]."""
        shift = _VTH_FAST if self.corner.pmos_fast else 0.0
        if self.corner in (Corner.SS, Corner.FS):
            shift = _VTH_SLOW
        return self.technology.pmos_vth + shift + self._temp_vth_shift()

    def nmos_kprime(self) -> float:
        """NMOS process transconductance at this operating point [A/V^2]."""
        factor = 1.0
        if self.corner.nmos_fast:
            factor += _KPRIME_FAST
        elif self.corner in (Corner.SS, Corner.SF):
            factor += _KPRIME_SLOW
        return self.technology.nmos_kprime * factor * self._temp_mobility_factor()

    def pmos_kprime(self) -> float:
        """PMOS process transconductance at this operating point [A/V^2]."""
        factor = 1.0
        if self.corner.pmos_fast:
            factor += _KPRIME_FAST
        elif self.corner in (Corner.SS, Corner.FS):
            factor += _KPRIME_SLOW
        return self.technology.pmos_kprime * factor * self._temp_mobility_factor()

    def capacitance_scale(self) -> float:
        """Multiplier applied to every absolute on-chip capacitance."""
        temp_factor = 1.0 + _CAP_TEMPCO * (
            self.temperature_k - celsius_to_kelvin(27.0)
        )
        return self.cap_scale * temp_factor


def nominal_operating_point(technology: Technology | None = None) -> OperatingPoint:
    """The TT / 27C / nominal-supply operating point."""
    return OperatingPoint(technology=technology or Technology())


def all_corners(
    technology: Technology | None = None,
    temperature_c: float = 27.0,
    supply_scale: float = 1.0,
) -> list[OperatingPoint]:
    """Operating points for all five corners at one temperature/supply."""
    tech = technology or Technology()
    return [
        OperatingPoint(
            technology=tech,
            corner=corner,
            temperature_c=temperature_c,
            supply_scale=supply_scale,
        )
        for corner in Corner
    ]


def pvt_grid(
    technology: Technology | None = None,
    corners: Iterable[Corner] = tuple(Corner),
    temperatures_c: Iterable[float] = (27.0,),
    supply_scale: float = 1.0,
) -> list[OperatingPoint]:
    """The corners x temperatures sign-off grid, corner-major.

    The canonical operating-point enumeration of a PVT campaign: every
    requested corner at every requested temperature, corners outermost.
    Point ``p * len(temperatures_c) + t`` is ``corners[p]`` at
    ``temperatures_c[t]``.
    """
    tech = technology or Technology()
    corner_list = tuple(corners)
    temperature_list = tuple(temperatures_c)
    if not corner_list:
        raise ConfigurationError("pvt_grid needs at least one corner")
    if not temperature_list:
        raise ConfigurationError("pvt_grid needs at least one temperature")
    return [
        OperatingPoint(
            technology=tech,
            corner=corner,
            temperature_c=float(temperature),
            supply_scale=supply_scale,
        )
        for corner in corner_list
        for temperature in temperature_list
    ]
