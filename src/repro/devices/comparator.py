"""Dynamic latch comparator model for the sub-ADCs and the flash.

Pipeline converters with 1.5-bit stages deliberately use sloppy, tiny,
zero-static-power dynamic comparators: the half-bit redundancy corrects
any ADSC decision whose threshold error stays within +-Vref/4 (paper
section 2, "error correction ... corrects for errors in the Analog to
Digital Sub-Converter").  The model therefore includes generous offset,
input noise, hysteresis and a metastability window — and the property
tests verify the pipeline digests all of it.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.profiling import record

#: Inputs farther than this many noise sigmas from the effective
#: threshold never draw decision noise: the flip probability out there
#: is below 1e-15, so the draw cannot change the outcome and is skipped.
#: The metastability window is added on top so the lazy band always
#: covers every sample the metastability check could touch.
_NOISE_CUT_SIGMA = 8.0


@dataclass(frozen=True)
class ComparatorParameters:
    """Statistical and dynamic parameters of a latch comparator.

    Attributes:
        offset_sigma: 1-sigma input-referred offset [V]; one offset is
            drawn per physical comparator and then frozen.
        noise_rms: per-decision input-referred noise [V].
        hysteresis: decision-history-dependent threshold shift [V];
            positive values resist changing the previous decision.
        metastability_window: half-width of the input band around the
            threshold inside which the latch may fail to resolve in time
            and outputs a random decision [V].
    """

    offset_sigma: float = 8e-3
    noise_rms: float = 0.4e-3
    hysteresis: float = 0.2e-3
    metastability_window: float = 2e-6

    def __post_init__(self) -> None:
        for name in ("offset_sigma", "noise_rms", "hysteresis", "metastability_window"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be non-negative")


class DynamicComparator:
    """One physical comparator with a frozen random offset.

    Args:
        threshold: nominal decision threshold [V] (differential).
        parameters: statistical parameter bundle.
        rng: generator used once to draw this instance's offset.
    """

    def __init__(
        self,
        threshold: float,
        parameters: ComparatorParameters,
        rng: np.random.Generator,
    ):
        self.threshold = threshold
        self.parameters = parameters
        self.offset = float(rng.normal(0.0, parameters.offset_sigma))

    @property
    def effective_threshold(self) -> float:
        """Nominal threshold plus the frozen offset [V]."""
        return self.threshold + self.offset

    def compare(
        self,
        inputs: np.ndarray,
        rng: np.random.Generator,
        previous: np.ndarray | None = None,
    ) -> np.ndarray:
        """Decide ``inputs > threshold`` per sample, with impairments.

        Noise and metastability draws are made only for samples inside
        the near-threshold band (``_NOISE_CUT_SIGMA`` sigmas plus the
        metastability window): outside it the decision is already
        certain, so skipping the draw changes nothing while removing
        most of the random-number cost of a conversion.  The draw
        pattern is a deterministic function of the inputs, so a seeded
        run still replays exactly.

        Args:
            inputs: differential input voltages [V].
            rng: generator for per-decision noise and metastability.
            previous: previous decisions (booleans) for hysteresis; None
                disables the history term.

        Returns:
            Boolean array of decisions.
        """
        v = np.asarray(inputs, dtype=float)
        p = self.parameters
        threshold = self.effective_threshold
        if previous is not None:
            history = np.asarray(previous, dtype=bool)
            if history.shape != v.shape:
                raise ConfigurationError(
                    "previous-decision array must match the input shape"
                )
        if previous is not None and p.hysteresis > 0:
            # A previous "high" decision lowers the effective threshold a
            # touch (easier to stay high), and vice versa.
            shift = np.where(history, -p.hysteresis, p.hysteresis)
            margin = v - (threshold + shift)
        else:
            margin = v - threshold
        if p.noise_rms == 0 and p.metastability_window == 0:
            return margin > 0
        # The near band as flat indices, found once: noise lands only
        # there, and only there can a sample end inside the
        # metastability window (outside it |margin| already exceeds the
        # cut, which is >= the window).
        flat = margin.reshape(-1)
        cut = _NOISE_CUT_SIGMA * p.noise_rms + p.metastability_window
        near = np.flatnonzero(np.abs(flat) < cut)
        near_margin = flat[near]
        if p.noise_rms:
            with record("noise-draw", "comparator"):
                near_margin += rng.normal(0.0, p.noise_rms, size=near.size)
            flat[near] = near_margin
        decisions = flat > 0
        if p.metastability_window > 0:
            metastable = near[np.abs(near_margin) < p.metastability_window]
            with record("noise-draw", "comparator"):
                coin = rng.random(size=metastable.size)
            decisions[metastable] = coin < 0.5
        return decisions.reshape(margin.shape)


def bank_parameters(comparators: Sequence[DynamicComparator]) -> np.ndarray | None:
    """A comparator bank as the compiled stage chain reads it.

    ``[noise_rms, metastability_window, near-band cut, threshold...]``
    with one effective threshold per comparator, in bank order; None
    when the chain cannot serve the bank (comparators with differing
    parameters).
    """
    p = comparators[0].parameters
    values = [
        p.noise_rms,
        p.metastability_window,
        _NOISE_CUT_SIGMA * p.noise_rms + p.metastability_window,
    ]
    for comparator in comparators:
        if comparator.parameters is not p and comparator.parameters != p:
            return None
        values.append(comparator.effective_threshold)
    return np.array(values, dtype=float)


def build_comparator_bank(
    thresholds: list[float] | np.ndarray,
    parameters: ComparatorParameters,
    rng: np.random.Generator,
) -> list[DynamicComparator]:
    """Build one comparator per threshold with independent offsets.

    Args:
        thresholds: nominal thresholds in ascending order [V].
        parameters: shared statistical parameters.
        rng: generator for the offset draws.

    Returns:
        Comparators in the same order as the thresholds.
    """
    values = [float(t) for t in thresholds]
    if values != sorted(values):
        raise ConfigurationError("comparator thresholds must be ascending")
    return [DynamicComparator(t, parameters, rng) for t in values]
