"""One 1.5-bit pipeline stage: ADSC decision + MDAC residue.

Composition of :class:`~repro.core.subadc.SubAdc` and
:class:`~repro.core.mdac.Mdac` exactly as in paper Fig. 2: the held
input is resolved by the ADSC while the MDAC reconfigures; the DSB then
routes V_REFP / V_CM / V_REFN onto C1 according to the decision and the
opamp settles toward the residue, which the next stage samples at the
end of the amplification phase.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.mdac import Mdac
from repro.core.subadc import SubAdc
from repro.devices.comparator import bank_parameters
from repro.native import chain as native_chain
from repro.profiling import record
from repro.technology.corners import OperatingPoint


@dataclass(frozen=True)
class StageOutput:
    """What one stage hands on.

    Attributes:
        codes: ADSC decisions in {-1, 0, +1}, one per sample.
        residues: amplified residues delivered to the next stage [V].
    """

    codes: np.ndarray
    residues: np.ndarray


class PipelineStage:
    """A complete 1.5-bit stage.

    Args:
        index: position in the chain (0-based; stage 1 of the paper is
            index 0).
        subadc: the stage's 1.5-bit sub-converter.
        mdac: the stage's residue amplifier.
    """

    def __init__(self, index: int, subadc: SubAdc, mdac: Mdac):
        self.index = index
        self.subadc = subadc
        self.mdac = mdac

    def process(
        self,
        inputs: np.ndarray,
        references: np.ndarray,
        operating_point: OperatingPoint,
        rng: np.random.Generator,
        codes_out: np.ndarray | None = None,
        residues_out: np.ndarray | None = None,
    ) -> StageOutput:
        """Run the stage over a sample array.

        A 1-D record with a ``PCG64`` generator runs on the compiled
        chain (:mod:`repro.native.chain`) when it is loaded; everything
        else, and every record when it is not, on numpy.  The two give
        the same codes and residue bytes and leave the generator in the
        same state.

        Args:
            inputs: held differential stage inputs [V].
            references: per-sample delivered reference voltages [V].
            operating_point: PVT context.
            rng: generator for decision noise / MDAC noise.
            codes_out: optional int buffer of the inputs' shape; the
                returned codes are this buffer, filled.
            residues_out: optional float64 buffer of the inputs' shape
                that does not overlap them.  The compiled chain writes
                the residues into it; numpy returns a new array.

        Returns:
            The decisions and the residues for the next stage.
        """
        functions = native_chain.serves(rng, inputs)
        if functions is not None:
            served = self._process_native(
                functions, inputs, references, operating_point, rng,
                codes_out, residues_out,
            )
            if served is not None:
                return served
        with record("subadc", "decide"):
            codes = self.subadc.decide(inputs, rng)
        with record("mdac", "amplify"):
            residues = self.mdac.amplify(
                inputs, codes, references, operating_point, rng
            )
        if codes_out is not None:
            codes_out[...] = codes
            codes = codes_out
        return StageOutput(codes=codes, residues=residues)

    def _process_native(
        self, functions, inputs, references, operating_point, rng,
        codes_out, residues_out,
    ) -> StageOutput | None:
        """:meth:`process` on the compiled chain; None where it cannot serve."""
        n = inputs.size
        if not (
            type(references) is np.ndarray
            and references.shape == inputs.shape
            and references.dtype == np.float64
            and references.flags.c_contiguous
        ):
            return None
        bank = bank_parameters(self.subadc.comparators)
        mdac = self.mdac._constants(operating_point).chain
        if bank is None or bank.size != 5:
            return None
        if codes_out is None:
            codes_out = np.empty(n, dtype=np.int64)
        elif not _writable_record(codes_out, n, np.int64):
            return None
        if (
            not _writable_record(residues_out, n, np.float64)
            or np.may_share_memory(residues_out, inputs)
            or np.may_share_memory(residues_out, references)
        ):
            residues_out = np.empty(n)
        native_chain.stage(
            functions, rng, inputs, references, bank, *mdac, codes_out, residues_out
        )
        return StageOutput(codes=codes_out, residues=residues_out)

    def describe(self) -> dict:
        """Small diagnostic summary used by reports and tests."""
        return {
            "index": self.index,
            "feedback_factor": self.mdac.feedback_factor,
            "ideal_gain": self.mdac.ideal_gain,
            "static_gain_error": self.mdac.static_gain_error(),
            "settling_error_bound": self.mdac.settling_error_bound(),
            "comparator_offsets": self.subadc.offsets,
        }


def _writable_record(buffer, n: int, dtype) -> bool:
    """Whether ``buffer`` is a writable, C-contiguous ``dtype`` record of n."""
    return (
        type(buffer) is np.ndarray
        and buffer.shape == (n,)
        and buffer.dtype == dtype
        and buffer.flags.c_contiguous
        and buffer.flags.writeable
    )
