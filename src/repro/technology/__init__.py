"""0.18um digital CMOS technology substrate.

This subpackage models the *process* the paper's ADC is fabricated in: a
pure digital 0.18 um CMOS with 1.8 V nominal supply and no analog options
(no MiM capacitors, no deep N-well) — capacitors are lateral metal
parasitics and matching is what digital metallization gives you.

Exports the pieces the device and circuit layers build on:

- :class:`~repro.technology.process.Technology` — the parameter set.
- :class:`~repro.technology.mosfet.Mosfet` — square-law transistor model.
- :class:`~repro.technology.capacitor.MetalCapacitor` — lateral metal cap.
- :class:`~repro.technology.corners.Corner` /
  :class:`~repro.technology.corners.OperatingPoint` — PVT handling.
- :class:`~repro.technology.montecarlo.MonteCarloSampler` — PVT/mismatch
  sampling for yield studies.
"""

from repro.technology.capacitor import CapacitorMismatchModel, MetalCapacitor
from repro.technology.corners import Corner, OperatingPoint, pvt_grid
from repro.technology.montecarlo import MonteCarloSampler, ProcessSample
from repro.technology.mosfet import Mosfet, MosPolarity
from repro.technology.process import Technology

__all__ = [
    "CapacitorMismatchModel",
    "Corner",
    "MetalCapacitor",
    "MonteCarloSampler",
    "Mosfet",
    "MosPolarity",
    "OperatingPoint",
    "ProcessSample",
    "Technology",
    "pvt_grid",
]
