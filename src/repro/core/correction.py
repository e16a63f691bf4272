"""Digital delay and error correction.

Paper Fig. 1: "The digital output of each stage is passed to a digital
circuit, which perform delay and error correction before the digital
value appears at the output DOUT.  The error correction utilizes the
half bit of redundancy in each pipeline stage and corrects for errors in
the Analog to Digital Sub-Converter."

With signed stage decisions d_i in {-1, 0, +1} and the flash code
c in [0, 2^B - 1], the reconstructed output for an N-stage, R-bit
converter is the overlapped (redundant signed digit) sum

    D = (2^(R-1) - 2) + sum_i d_i * 2^(R-1-i) + c

clipped to [0, 2^R - 1].  Each stage's decision carries one effective
bit; the half-bit overlap means a wrong-by-one ADSC decision is exactly
cancelled by the doubled residue of the following stage — the property
tests drive comparator offsets to the +-Vref/4 redundancy bound and
verify the output stays put.

The physical block is a chain of shift registers (stage 1's decision
must wait for nine more half-clocks before its sample's LSBs exist);
:attr:`DigitalCorrection.latency_cycles` accounts for that pipeline
delay, and :meth:`align` applies it to streaming decisions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.native import chain as native_chain


#: combine's range errors, by the compiled chain's status code.
_RANGE_ERRORS = {
    1: "stage codes must be in {-1, 0, +1}",
    2: "flash codes out of range",
}


@dataclass(frozen=True)
class DigitalCorrection:
    """RSD correction logic for an N x 1.5-bit + B-bit-flash pipeline.

    Attributes:
        n_stages: number of 1.5-bit stages.
        flash_bits: backend flash resolution.
    """

    n_stages: int
    flash_bits: int

    def __post_init__(self) -> None:
        if self.n_stages < 1:
            raise ConfigurationError("need at least one stage")
        if self.flash_bits < 1:
            raise ConfigurationError("flash must resolve >= 1 bit")

    @property
    def resolution(self) -> int:
        """Output word width [bits]."""
        return self.n_stages + self.flash_bits

    @property
    def n_codes(self) -> int:
        return 1 << self.resolution

    @property
    def latency_cycles(self) -> int:
        """Conversion latency in clock cycles.

        Each stage hands its residue on half a clock later; the full
        word for one sample exists n_stages/2 + 1 cycles after its
        acquisition (rounded up), plus one cycle of output registering.
        """
        return (self.n_stages + 1) // 2 + 1

    def combine(
        self, stage_codes: np.ndarray, flash_codes: np.ndarray
    ) -> np.ndarray:
        """Reconstruct output words from aligned decisions.

        Args:
            stage_codes: integer array, shape (..., n_samples, n_stages),
                values in {-1, 0, +1}.  Leading axes (e.g. a die axis)
                are carried through unchanged.
            flash_codes: integer array, shape (..., n_samples), values in
                [0, 2^flash_bits - 1].

        Returns:
            Output codes in [0, 2^resolution - 1], dtype int, shape
            (..., n_samples).

        One record of stage-major int64 codes is combined by the
        compiled chain (:mod:`repro.native.chain`) when it is loaded;
        integer sums are exact, so the words are the same.
        """
        codes = np.asarray(stage_codes)
        flash = np.asarray(flash_codes)
        if codes.ndim < 2 or codes.shape[-1] != self.n_stages:
            raise ConfigurationError(
                f"stage_codes must be (..., n, {self.n_stages}), "
                f"got {codes.shape}"
            )
        if flash.shape != codes.shape[:-1]:
            raise ConfigurationError(
                "flash_codes shape must match stage_codes without the "
                "stage axis"
            )
        weights = 2 ** np.arange(self.resolution - 2, self.flash_bits - 2, -1)
        assert weights.shape == (self.n_stages,)
        base = (1 << (self.resolution - 1)) - (1 << (self.flash_bits - 1))
        words = self._combine_native(codes, flash, weights, base)
        if words is not None:
            return words
        # One stage at a time, checking and weighting each decision row
        # while it is in cache: converters hand over stage-major
        # decisions, whose rows are contiguous.  Leading batch axes (die
        # populations) ride along, and integer sums are exact in any
        # order.
        raw = np.full(flash.shape, base, dtype=np.result_type(codes, weights, flash))
        for weight, row in zip(weights, np.moveaxis(codes, -1, 0)):
            if row.min(initial=0) < -1 or row.max(initial=0) > 1:
                raise ConfigurationError(_RANGE_ERRORS[1])
            raw += weight * row
        if flash.min(initial=0) < 0 or flash.max(initial=0) >= (1 << self.flash_bits):
            raise ConfigurationError(_RANGE_ERRORS[2])
        raw += flash
        return np.clip(raw, 0, self.n_codes - 1, out=raw).astype(int, copy=False)

    def _combine_native(self, codes, flash, weights, base) -> np.ndarray | None:
        """:meth:`combine` of one stage-major int64 record, compiled.

        None when the compiled chain is not loaded or cannot read the
        layout; then numpy combines.
        """
        if codes.ndim != 2 or not flash.size or not codes.dtype == flash.dtype == np.int64:
            return None
        functions = native_chain.kernel()
        served = functions and native_chain.combine(
            functions, codes, flash, weights, base,
            1 << self.flash_bits, self.n_codes - 1,
        )
        if not served:
            return None
        words, status = served
        if status:
            raise ConfigurationError(_RANGE_ERRORS[status])
        return words

    def align(
        self, stage_code_stream: np.ndarray, flash_code_stream: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Model the shift-register alignment on streaming decisions.

        In silicon, stage i's decision for sample n is produced at time
        n + i/2 cycles; the correction block delays earlier stages so all
        decisions for one sample meet.  In the vectorized simulation the
        decisions are already indexed by sample, so alignment reduces to
        discarding the first ``latency_cycles`` output words, which are
        garbage while the physical pipeline fills.

        Args:
            stage_code_stream: (..., n_samples, n_stages) decisions;
                leading axes (a die axis) are carried through.
            flash_code_stream: (..., n_samples) flash codes.

        Returns:
            The (stage_codes, flash_codes) with the fill-in period
            removed.
        """
        skip = self.latency_cycles
        codes = np.asarray(stage_code_stream)
        flash = np.asarray(flash_code_stream)
        if codes.ndim < 2:
            raise ConfigurationError(
                "stage codes must be (..., n_samples, n_stages)"
            )
        if codes.shape[-2] <= skip:
            raise ConfigurationError(
                f"need more than {skip} samples to cover pipeline latency"
            )
        return codes[..., skip:, :], flash[..., skip:]

    def decode_to_voltage(self, output_codes: np.ndarray, vref: float) -> np.ndarray:
        """Map output codes back to differential input voltages [V].

        Mid-rise convention: code k represents the center of its bin,
        ``(k + 0.5) * LSB - vref``.
        """
        if vref <= 0:
            raise ConfigurationError("vref must be positive")
        lsb = 2.0 * vref / self.n_codes
        return (np.asarray(output_codes, dtype=float) + 0.5) * lsb - vref
