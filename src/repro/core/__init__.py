"""The pipeline ADC itself — the paper's primary contribution.

Composition (paper Fig. 1): ten 1.5-bit stages, a 2-bit flash backend,
and delay + error-correction logic, fed by the reference/CM/bias
infrastructure of :mod:`repro.analog`.

Public entry points:

- :class:`~repro.core.config.AdcConfig` — full converter configuration
  with :meth:`~repro.core.config.AdcConfig.paper_default` reproducing the
  published part.
- :class:`~repro.core.adc.PipelineAdc` — the converter; call
  :meth:`~repro.core.adc.PipelineAdc.convert`.
- :class:`~repro.core.adc_array.AdcArray` — a die population converted
  die by die into (dies, samples) results, bit-exact per die with the
  above.
- :class:`~repro.core.power.PowerModel` — the Fig. 4 power budget.
- :class:`~repro.core.floorplan.Floorplan` — the Fig. 7 area budget.
"""

from repro.core.adc import ConversionResult, PipelineAdc
from repro.core.adc_array import AdcArray, ArrayConversionResult
from repro.core.behavioral import IdealAdc, ideal_transfer_codes
from repro.core.calibration import GainCalibration, GainCalibrationArray
from repro.core.config import AdcConfig, ScalingPlan, StageConfig, SwitchStyle
from repro.core.correction import DigitalCorrection
from repro.core.flash import FlashBackend
from repro.core.floorplan import BlockArea, Floorplan
from repro.core.mdac import Mdac
from repro.core.power import PowerBreakdown, PowerModel
from repro.core.stage import PipelineStage
from repro.core.subadc import SubAdc

__all__ = [
    "AdcArray",
    "AdcConfig",
    "ArrayConversionResult",
    "BlockArea",
    "ConversionResult",
    "DigitalCorrection",
    "FlashBackend",
    "Floorplan",
    "GainCalibration",
    "GainCalibrationArray",
    "IdealAdc",
    "Mdac",
    "PipelineAdc",
    "PipelineStage",
    "PowerBreakdown",
    "PowerModel",
    "ScalingPlan",
    "StageConfig",
    "SubAdc",
    "SwitchStyle",
    "ideal_transfer_codes",
]
