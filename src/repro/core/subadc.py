"""1.5-bit Analog-to-Digital Sub-Converter (ADSC).

Each pipeline stage quantizes its input to three levels with two
comparators at +-Vref/4 (paper Fig. 2: "VINP-VINN is also sampled by the
ADSC ... ADSC resolves the input sample and pass its digital value to
the Decoder and Switching Block").  The half-bit of redundancy means any
threshold error below Vref/4 — comparator offset, noise, metastable
flips — is absorbed by the digital correction, which is why the
comparators can be tiny dynamic latches.
"""

from __future__ import annotations

import numpy as np

from repro.devices.comparator import (
    ComparatorParameters,
    DynamicComparator,
    build_comparator_bank,
)
from repro.errors import ConfigurationError


class SubAdc:
    """The two-comparator 1.5-bit sub-converter of one stage.

    Args:
        vref: differential reference [V]; thresholds sit at +-vref/4.
        parameters: comparator statistics (offsets drawn here, once).
        rng: generator for the frozen offset draws.

    The decision output is the signed code d in {-1, 0, +1}.
    """

    #: Nominal thresholds in units of vref.
    THRESHOLD_FRACTIONS = (-0.25, +0.25)

    def __init__(
        self,
        vref: float,
        parameters: ComparatorParameters,
        rng: np.random.Generator,
    ):
        if vref <= 0:
            raise ConfigurationError("vref must be positive")
        self.vref = vref
        thresholds = [f * vref for f in self.THRESHOLD_FRACTIONS]
        self.comparators: list[DynamicComparator] = build_comparator_bank(
            thresholds, parameters, rng
        )

    @property
    def offsets(self) -> tuple[float, ...]:
        """Frozen comparator offsets [V] (diagnostics / tests)."""
        return tuple(c.offset for c in self.comparators)

    def redundancy_margin(self) -> float:
        """Worst-case threshold error still corrected digitally [V].

        The 1.5-bit stage tolerates +-vref/4 of decision-threshold error
        before the residue leaves the +-vref correction range.
        """
        return self.vref / 4.0

    def decide(
        self, inputs: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Resolve the stage decision for every sample.

        Args:
            inputs: differential stage inputs [V].
            rng: generator for per-decision comparator noise.

        Returns:
            Integer array of codes in {-1, 0, +1}.
        """
        v = np.asarray(inputs, dtype=float)
        low, high = self.comparators
        above_low = low.compare(v, rng)
        above_high = high.compare(v, rng)
        # A metastable flip can produce (below low, above high); resolve
        # it as the middle code, which the redundancy then absorbs.
        codes = np.add(above_low, above_high, dtype=int)
        codes -= 1
        return codes
