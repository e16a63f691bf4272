"""2-bit flash backend.

The pipeline chain ends in "a 2bit flash" (paper Fig. 1): three
comparators at -Vref/2, 0 and +Vref/2 resolve the final residue to a
code in {0, 1, 2, 3} that fills the two least-significant bits after
correction.  Flash errors are worth 1 output LSB at most, so its
comparators can be as sloppy as the ADSC's.
"""

from __future__ import annotations

import numpy as np

from repro.devices.comparator import (
    ComparatorParameters,
    bank_parameters,
    build_comparator_bank,
)
from repro.errors import ConfigurationError
from repro.native import chain as native_chain


class FlashBackend:
    """The terminating flash quantizer.

    Args:
        vref: differential reference [V].
        bits: flash resolution; the paper uses 2.
        parameters: comparator statistics.
        rng: generator for the frozen offset draws.
    """

    def __init__(
        self,
        vref: float,
        bits: int,
        parameters: ComparatorParameters,
        rng: np.random.Generator,
    ):
        if vref <= 0:
            raise ConfigurationError("vref must be positive")
        if bits < 1:
            raise ConfigurationError("flash must resolve >= 1 bit")
        self.vref = vref
        self.bits = bits
        levels = 1 << bits
        # Thresholds split [-vref, +vref] into 2^bits equal bins.
        fractions = [
            -1.0 + 2.0 * k / levels for k in range(1, levels)
        ]
        self.comparators = build_comparator_bank(
            [f * vref for f in fractions], parameters, rng
        )
        #: The bank as the compiled chain reads it, built once.
        self._bank = bank_parameters(self.comparators)

    @property
    def n_levels(self) -> int:
        """Number of flash output codes."""
        return 1 << self.bits

    @property
    def offsets(self) -> tuple[float, ...]:
        """Frozen comparator offsets [V] (diagnostics / tests)."""
        return tuple(c.offset for c in self.comparators)

    def decide(
        self, inputs: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Thermometer-decode the final residue.

        A 1-D record with a ``PCG64`` generator runs on the compiled
        chain (:mod:`repro.native.chain`) when it is loaded, with the
        same codes and draws as the comparators' own path.

        Args:
            inputs: final residue voltages [V].
            rng: generator for per-decision noise.

        Returns:
            Integer codes in [0, 2^bits - 1].
        """
        v = np.asarray(inputs, dtype=float)
        functions = native_chain.serves(rng, v)
        if functions is not None and self._bank is not None:
            return native_chain.bank(
                functions, rng, v, self._bank, len(self.comparators), 0
            )
        code = np.zeros(v.shape, dtype=int)
        for comparator in self.comparators:
            code += comparator.compare(v, rng).astype(int)
        # Bubble errors (non-monotone thermometer) are impossible here
        # because each comparator output is 0/1 summed — the sum is the
        # count of thresholds crossed, inherently monotone in expectation.
        return code
