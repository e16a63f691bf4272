"""One 1.5-bit pipeline stage: ADSC decision + MDAC residue.

Composition of :class:`~repro.core.subadc.SubAdc` and
:class:`~repro.core.mdac.Mdac` exactly as in paper Fig. 2: the held
input is resolved by the ADSC while the MDAC reconfigures; the DSB then
routes V_REFP / V_CM / V_REFN onto C1 according to the decision and the
opamp settles toward the residue, which the next stage samples at the
end of the amplification phase.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.mdac import Mdac, chain_parameters
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
    ) -> StageOutput:
        """Run the stage over a sample array on numpy.

        The reference for the compiled chain: :func:`run_stages` serves
        one die's 1-D record through :func:`repro.native.chain.run`,
        which gives the same codes and residue bytes and leaves the
        generator in the same state.

        Args:
            inputs: held differential stage inputs [V].
            references: per-sample delivered reference voltages [V].
            operating_point: PVT context.
            rng: generator for decision noise / MDAC noise.
            codes_out: optional int buffer of the inputs' shape; the
                returned codes are this buffer, filled.

        Returns:
            The decisions and the residues for the next stage.
        """
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


def chain_block(
    stages: Sequence[PipelineStage], operating_point: OperatingPoint
) -> native_chain.ChainBlock | None:
    """The stages as the compiled chain reads them, computed once per die.

    Each stage's comparator bank, the MDAC constants of every stage from
    one :func:`~repro.core.mdac.chain_parameters` call, and the flags.
    None where numpy must serve every record: a bank whose comparators
    differ in parameters.
    """
    banks = [bank_parameters(stage.subadc.comparators) for stage in stages]
    if any(bank is None for bank in banks):
        return None
    parameters, flags = chain_parameters(
        [stage.mdac for stage in stages], operating_point
    )
    banks = np.array(banks)
    banks.flags.writeable = parameters.flags.writeable = False
    return native_chain.ChainBlock(
        banks=banks, mdac=parameters, flags=tuple(flags.tolist())
    )


def run_stages(
    stages: Sequence[PipelineStage],
    block: native_chain.ChainBlock | None,
    held: np.ndarray,
    references: Sequence[np.ndarray],
    operating_point: OperatingPoint,
    rng: np.random.Generator,
    codes: np.ndarray,
    residues: np.ndarray,
) -> np.ndarray:
    """Every stage over one record; returns the last stage's residues.

    Stage ``k`` decides into ``codes[k]`` and writes its residues into
    row ``k % len(residues)`` of ``residues`` (two rows or more).  A 1-D
    record with a ``PCG64`` generator runs on the compiled chain
    (:func:`repro.native.chain.run`) when it is loaded and ``block`` is
    the stages' :func:`chain_block`; everything else, and every record
    when it is not, stage by stage through :meth:`PipelineStage.process`.
    Both give the same codes and residue bytes and leave the generator
    in the same state.

    ``references`` holds one float64 record per stage, ``codes`` is an
    int64 and ``residues`` a float64 buffer, both C-contiguous, of the
    record's length, and overlapping neither input.
    """
    functions = None if block is None else native_chain.serves(rng, held)
    if functions is not None:
        return native_chain.run(
            functions, rng, held, references, block, codes, residues
        )
    residue = held
    for k, (stage, stage_references) in enumerate(zip(stages, references)):
        output = stage.process(
            residue, stage_references, operating_point, rng, codes_out=codes[k]
        )
        residue = residues[k % len(residues)]
        residue[...] = output.residues
    return residue
