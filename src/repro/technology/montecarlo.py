"""Monte Carlo sampling of process, voltage, temperature and mismatch.

Yield studies (the `abl-capspread` ablation and the
``examples/montecarlo_yield.py`` scenario) need many self-consistent die
realizations: one absolute capacitor scale per die, one corner, one
temperature, plus per-stage local mismatch that the ADC constructor
consumes.  :class:`MonteCarloSampler` produces those as
:class:`ProcessSample` records from an explicit RNG.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.technology.capacitor import CapacitorMismatchModel
from repro.technology.corners import Corner, OperatingPoint
from repro.technology.process import Technology


@dataclass(frozen=True)
class ProcessSample:
    """One die realization.

    Attributes:
        operating_point: corner/temperature/supply/cap-scale for the die.
        seed: per-die seed for local mismatch draws inside the ADC
            constructor (comparator offsets, C1/C2 deltas, opamp offsets).
        index: position in the Monte Carlo batch.
    """

    operating_point: OperatingPoint
    seed: int
    index: int

    def rng(self) -> np.random.Generator:
        """Fresh generator for this die's local-mismatch draws."""
        return np.random.default_rng(self.seed)


@dataclass(frozen=True)
class MonteCarloSampler:
    """Samples die realizations for yield analysis.

    Attributes:
        technology: process statistics source.
        corners: corner set to draw from (uniform) — default all five,
            which is pessimistic relative to a centered Gaussian but is
            the usual sign-off convention.
        temperature_range_c: (min, max) junction temperature, drawn
            uniformly.
        supply_tolerance: +-fraction of supply drawn uniformly.
        vary_absolute_capacitance: include die-level metal-cap spread;
            switch off to isolate other PVT effects.
    """

    technology: Technology = field(default_factory=Technology)
    corners: tuple[Corner, ...] = tuple(Corner)
    temperature_range_c: tuple[float, float] = (-40.0, 125.0)
    supply_tolerance: float = 0.05
    vary_absolute_capacitance: bool = True

    def __post_init__(self) -> None:
        if not self.corners:
            raise ConfigurationError("corner set must not be empty")
        low, high = self.temperature_range_c
        if low > high:
            raise ConfigurationError(
                f"temperature range reversed: ({low}, {high})"
            )
        if not 0 <= self.supply_tolerance < 0.5:
            raise ConfigurationError("supply_tolerance must be in [0, 0.5)")

    def sample(self, count: int, rng: np.random.Generator) -> list[ProcessSample]:
        """Draw ``count`` die realizations.

        Args:
            count: number of dies.
            rng: master generator; per-die seeds are spawned from it so
                dies are independent yet the whole batch replays from one
                seed.
        """
        if count <= 0:
            raise ConfigurationError(f"count must be positive, got {count}")
        return [self._sample_one(index, rng) for index in range(count)]

    def sample_spawned(self, count: int, root_seed: int) -> list[ProcessSample]:
        """Draw ``count`` dies with partition-invariant seed derivation.

        Unlike :meth:`sample`, which consumes one sequential stream (die
        *i*'s draws depend on every die before it), each die here gets
        its own ``SeedSequence.spawn`` child keyed by ``(root_seed,
        index)``.  Die *i* is therefore identical whether it is drawn in
        a batch of 8 or of 8000 — the property streaming/sharded batch
        generation needs.
        """
        if count <= 0:
            raise ConfigurationError(f"count must be positive, got {count}")
        children = np.random.SeedSequence(root_seed).spawn(count)
        return [
            self._sample_one(index, np.random.default_rng(child))
            for index, child in enumerate(children)
        ]

    def _sample_one(self, index: int, rng: np.random.Generator) -> ProcessSample:
        """One die from ``rng``; draw order is part of the replay contract."""
        mismatch = CapacitorMismatchModel(technology=self.technology)
        low_t, high_t = self.temperature_range_c
        corner = self.corners[int(rng.integers(len(self.corners)))]
        temperature = float(rng.uniform(low_t, high_t))
        supply_scale = 1.0 + float(
            rng.uniform(-self.supply_tolerance, self.supply_tolerance)
        )
        cap_scale = 1.0
        if self.vary_absolute_capacitance:
            cap_scale = mismatch.sample_absolute_scale(rng)
        point = OperatingPoint(
            technology=self.technology,
            corner=corner,
            temperature_c=temperature,
            supply_scale=supply_scale,
            cap_scale=cap_scale,
        )
        seed = int(rng.integers(0, 2**63 - 1))
        return ProcessSample(operating_point=point, seed=seed, index=index)

    def nominal_sample(self, seed: int = 0) -> ProcessSample:
        """The deterministic typical die (TT, 27C, nominal V, nominal C)."""
        return ProcessSample(
            operating_point=OperatingPoint(technology=self.technology),
            seed=seed,
            index=-1,
        )
