"""Analog switch models: the distortion mechanism of paper Fig. 6.

The paper (section 3) spends a full column on switches because at a 1.8 V
supply they are the hard part:

- S1/S2 are **transmission gates with bulk switching of the PMOS**: when
  the switch is on, the PMOS N-well is tied to its source, removing the
  body effect and lowering |Vth| (lower on-resistance); when off, the
  well goes to VDD (higher off-resistance).
- S1B (the sampling switch at the opamp summing node) sits at the common
  mode, so it is **NMOS-only** — small, low parasitics.
- **Bootstrapping** (constant-Vgs NMOS) would linearize the input switch
  but was rejected "due to potential lifetime issues"; we model it anyway
  as the `abl-switch` ablation baseline.

Each model exposes the *signal-voltage-dependent* on-conductance and
parasitic capacitance of the switch.  Their product tau(V) = R_on(V) *
C(V) modulates the front-end tracking bandwidth with the signal, which is
exactly the nonlinearity the paper blames for SFDR falling off at high
input frequency ("both the channel resistance and the parasitic
capacitances are nonlinear").
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, ModelDomainError
from repro.technology.corners import OperatingPoint
from repro.technology.mosfet import Mosfet, MosPolarity

#: Fraction of oxide capacitance treated as junction/overlap parasitic at
#: the switch terminals.
_PARASITIC_FRACTION = 0.32
#: Junction capacitance voltage sensitivity (grading) used by the
#: nonlinear parasitic model: C(V) = C0 / (1 + V/phi)^m.
_JUNCTION_GRADING = 0.4
_JUNCTION_POTENTIAL = 0.8


class SwitchModel(abc.ABC):
    """Common interface for all switch styles.

    Node voltages are single-ended volts referred to ground, in
    [0, VDD].  Conversions from the library's differential signal
    convention happen in :mod:`repro.analog.sampling`.
    """

    operating_point: OperatingPoint

    @abc.abstractmethod
    def conductance(self, node_voltage: np.ndarray) -> np.ndarray:
        """On-state conductance vs the switched node voltage [S]."""

    def on_resistance(self, node_voltage: np.ndarray) -> np.ndarray:
        """On-resistance vs node voltage [ohm]; inf where non-conducting."""
        conductance = self.conductance(node_voltage)
        with np.errstate(divide="ignore"):
            return np.where(
                conductance > 0, 1.0 / np.maximum(conductance, 1e-30), np.inf
            )

    @abc.abstractmethod
    def parasitic_capacitance(self, node_voltage: np.ndarray) -> np.ndarray:
        """Voltage-dependent parasitic capacitance at the output node [F]."""

    @abc.abstractmethod
    def charge_injection(self, node_voltage: np.ndarray) -> np.ndarray:
        """Channel charge released at turn-off [C], signed, per node volt.

        Half of the channel charge is assumed to go to the sampling
        capacitor (the classic 50/50 split).  Signal dependence of the
        channel charge is the residual pedestal nonlinearity.
        """

    def time_constant(
        self, node_voltage: np.ndarray, load_capacitance: float
    ) -> np.ndarray:
        """Tracking time constant R_on(V) * (C_load + C_par(V)) [s]."""
        if load_capacitance <= 0:
            raise ConfigurationError("load capacitance must be positive")
        resistance = self.on_resistance(node_voltage)
        capacitance = load_capacitance + self.parasitic_capacitance(node_voltage)
        return resistance * capacitance


def _junction_capacitance(
    zero_bias_capacitance: float, node_voltage: np.ndarray
) -> np.ndarray:
    """Reverse-biased junction capacitance vs node voltage."""
    v = np.clip(np.asarray(node_voltage, dtype=float), 0.0, None)
    return zero_bias_capacitance / (1.0 + v / _JUNCTION_POTENTIAL) ** _JUNCTION_GRADING


@dataclass(frozen=True)
class _TransmissionGateBase(SwitchModel):
    """Shared machinery for the two transmission-gate variants.

    Attributes:
        nmos_width: NMOS width [m].
        pmos_width: PMOS width [m].
        length: channel length of both devices [m].
        operating_point: PVT context.
    """

    nmos_width: float
    pmos_width: float
    length: float
    operating_point: OperatingPoint

    #: Whether the PMOS bulk is switched to the source when on.
    _bulk_switched: bool = False

    def __post_init__(self) -> None:
        if min(self.nmos_width, self.pmos_width, self.length) <= 0:
            raise ConfigurationError("switch device dimensions must be positive")

    def _nmos(self) -> Mosfet:
        return Mosfet(
            polarity=MosPolarity.NMOS,
            width=self.nmos_width,
            length=self.length,
            operating_point=self.operating_point,
        )

    def _pmos(self) -> Mosfet:
        return Mosfet(
            polarity=MosPolarity.PMOS,
            width=self.pmos_width,
            length=self.length,
            operating_point=self.operating_point,
        )

    def conductance(self, node_voltage: np.ndarray) -> np.ndarray:
        v = np.asarray(node_voltage, dtype=float)
        vdd = self.operating_point.supply_voltage
        if np.any(v < -1e-9) or np.any(v > vdd + 1e-9):
            raise ModelDomainError(
                "switch node voltage outside the rails [0, VDD]"
            )
        v = np.clip(v, 0.0, vdd)
        # NMOS: gate at VDD, source tracks the signal, bulk at ground.
        g_n = self._nmos().triode_conductance(
            gate_source_voltage=vdd - v, source_bulk_voltage=v
        )
        # PMOS: gate at 0, source tracks the signal.  Bulk: N-well at VDD
        # (plain TG, body effect grows as the signal drops) or tied to the
        # source (paper's bulk switching, no body effect).
        pmos_vsb = 0.0 if self._bulk_switched else vdd - v
        g_p = self._pmos().triode_conductance(
            gate_source_voltage=v, source_bulk_voltage=pmos_vsb
        )
        return g_n + g_p

    def zero_bias_junction(self, width: float) -> float:
        """Zero-bias junction capacitance of a device of this width [F]."""
        tech = self.operating_point.technology
        return _PARASITIC_FRACTION * tech.oxide_capacitance * width * self.length

    def channel_capacitance(self, width: float) -> float:
        """Gate-channel capacitance Cox * W * L of a device of this width [F]."""
        tech = self.operating_point.technology
        return tech.oxide_capacitance * width * self.length

    def parasitic_capacitance(self, node_voltage: np.ndarray) -> np.ndarray:
        v = np.asarray(node_voltage, dtype=float)
        c0_n = self.zero_bias_junction(self.nmos_width)
        c0_p = self.zero_bias_junction(self.pmos_width)
        vdd = self.operating_point.supply_voltage
        # NMOS junction sees V to its grounded bulk; PMOS junction sees
        # (VDD - V) to the well — unless the well is bulk-switched, which
        # nulls the junction bias and hence most of the voltage dependence.
        c_n = _junction_capacitance(c0_n, v)
        pmos_bias = np.zeros_like(v) if self._bulk_switched else vdd - v
        c_p = _junction_capacitance(c0_p, pmos_bias)
        return c_n + c_p

    def charge_injection(self, node_voltage: np.ndarray) -> np.ndarray:
        v = np.asarray(node_voltage, dtype=float)
        vdd = self.operating_point.supply_voltage
        nmos = self._nmos()
        pmos = self._pmos()
        q_n = self.channel_capacitance(self.nmos_width) * np.maximum(
            vdd - v - nmos.threshold(v), 0.0
        )
        pmos_vsb = np.zeros_like(v) if self._bulk_switched else vdd - v
        q_p = self.channel_capacitance(self.pmos_width) * np.maximum(
            v - pmos.threshold(pmos_vsb), 0.0
        )
        # NMOS injects electrons (pulls the node down), PMOS injects holes
        # (pushes it up); with complementary devices they partially cancel.
        return 0.5 * (q_p - q_n)


@dataclass(frozen=True)
class TransmissionGate(_TransmissionGateBase):
    """Plain CMOS transmission gate (the conventional baseline)."""

    _bulk_switched: bool = False


@dataclass(frozen=True)
class BulkSwitchedTransmissionGate(_TransmissionGateBase):
    """The paper's S1/S2: transmission gate with PMOS bulk switching.

    When on, the N-well is tied to the source: the PMOS loses its body
    effect, so |Vth| drops and the on-resistance falls, especially at low
    node voltages where a plain TG's PMOS is weakest.  The paper uses
    this to keep switch sizes reasonable at 1.8 V without bootstrapping.
    """

    _bulk_switched: bool = True


@dataclass(frozen=True)
class NmosSwitch(SwitchModel):
    """NMOS-only switch — the paper's S1B sampling switch at V_CM.

    S1B sits at the opamp summing node, which stays at the common-mode
    voltage, so a single NMOS gives low on-resistance with minimal
    parasitics at the opamp inputs.

    Attributes:
        width: NMOS width [m].
        length: channel length [m].
        operating_point: PVT context.
    """

    width: float
    length: float
    operating_point: OperatingPoint

    def __post_init__(self) -> None:
        if min(self.width, self.length) <= 0:
            raise ConfigurationError("switch device dimensions must be positive")

    def _device(self) -> Mosfet:
        return Mosfet(
            polarity=MosPolarity.NMOS,
            width=self.width,
            length=self.length,
            operating_point=self.operating_point,
        )

    def conductance(self, node_voltage: np.ndarray) -> np.ndarray:
        v = np.asarray(node_voltage, dtype=float)
        vdd = self.operating_point.supply_voltage
        if np.any(v < -1e-9) or np.any(v > vdd + 1e-9):
            raise ModelDomainError("switch node voltage outside the rails")
        v = np.clip(v, 0.0, vdd)
        return self._device().triode_conductance(
            gate_source_voltage=vdd - v, source_bulk_voltage=v
        )

    def parasitic_capacitance(self, node_voltage: np.ndarray) -> np.ndarray:
        v = np.asarray(node_voltage, dtype=float)
        tech = self.operating_point.technology
        c0 = _PARASITIC_FRACTION * tech.oxide_capacitance * self.width * self.length
        return _junction_capacitance(c0, v)

    def charge_injection(self, node_voltage: np.ndarray) -> np.ndarray:
        v = np.asarray(node_voltage, dtype=float)
        tech = self.operating_point.technology
        vdd = self.operating_point.supply_voltage
        device = self._device()
        q = (
            tech.oxide_capacitance
            * self.width
            * self.length
            * np.maximum(vdd - v - device.threshold(v), 0.0)
        )
        return -0.5 * q


@dataclass(frozen=True)
class BootstrappedSwitch(SwitchModel):
    """Constant-Vgs bootstrapped NMOS switch (the rejected alternative).

    A bootstrap circuit holds Vgs = VDD regardless of the signal, so the
    overdrive — and hence Ron — is nearly signal-independent; only the
    body effect remains (the bulk stays grounded).  The paper avoids it
    because the boosted gate node stresses the oxide ("potential lifetime
    issues"); we keep it as the linearity upper bound for `abl-switch`.

    Attributes:
        width: NMOS width [m].
        length: channel length [m].
        operating_point: PVT context.
    """

    width: float
    length: float
    operating_point: OperatingPoint

    def __post_init__(self) -> None:
        if min(self.width, self.length) <= 0:
            raise ConfigurationError("switch device dimensions must be positive")

    def _device(self) -> Mosfet:
        return Mosfet(
            polarity=MosPolarity.NMOS,
            width=self.width,
            length=self.length,
            operating_point=self.operating_point,
        )

    def conductance(self, node_voltage: np.ndarray) -> np.ndarray:
        v = np.asarray(node_voltage, dtype=float)
        vdd = self.operating_point.supply_voltage
        if np.any(v < -1e-9) or np.any(v > vdd + 1e-9):
            raise ModelDomainError("switch node voltage outside the rails")
        v = np.clip(v, 0.0, vdd)
        # Gate rides at V + VDD: overdrive is constant apart from the
        # signal-dependent threshold (body effect only).
        return self._device().triode_conductance(
            gate_source_voltage=np.full_like(v, vdd), source_bulk_voltage=v
        )

    def parasitic_capacitance(self, node_voltage: np.ndarray) -> np.ndarray:
        v = np.asarray(node_voltage, dtype=float)
        tech = self.operating_point.technology
        # The bootstrap capacitor and its switches add fixed parasitics
        # (~the device's own again).
        c0 = (
            2.0
            * _PARASITIC_FRACTION
            * tech.oxide_capacitance
            * self.width
            * self.length
        )
        return _junction_capacitance(c0, v)

    def charge_injection(self, node_voltage: np.ndarray) -> np.ndarray:
        v = np.asarray(node_voltage, dtype=float)
        tech = self.operating_point.technology
        vdd = self.operating_point.supply_voltage
        device = self._device()
        # Constant overdrive -> constant channel charge: pedestal without
        # signal dependence (body effect gives a small residual).
        q = (
            tech.oxide_capacitance
            * self.width
            * self.length
            * np.maximum(vdd - device.threshold(v), 0.0)
        )
        return -0.5 * q
