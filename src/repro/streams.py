"""Per-die random streams for die-batched simulation.

The die-batched engine (:class:`repro.core.adc_array.AdcArray`) promises
bit-exactness with the per-die :class:`repro.core.adc.PipelineAdc` path:
die *d* of a batch must consume the identical random numbers, in the
identical order, as the same die simulated alone.  Two pieces make that
hold:

* :func:`noise_generator` — the single definition of how a die's
  conversion-noise generator is derived from its die seed.  Both the
  per-die and the batched paths call it, so "matched seeds" means
  matched noise streams.  Derivation uses ``SeedSequence.spawn``
  children, the same partition-invariant convention as
  :mod:`repro.runtime.seeding` uses for batch task seeds.
* :class:`DieStreams` — a bundle of one generator per die that exposes
  the small slice of the ``numpy.random.Generator`` API the conversion
  chain draws from.  Every draw of a ``(dies, samples)`` block is made
  row by row from the owning die's generator, so the numbers are the
  ones the per-die path would have drawn.

The helpers :func:`normal` / :func:`normal_pair` are the shared entry
points for *dense* Gaussian draws (a whole record), and
:func:`normal_at` / :func:`random_at` those for *sparse* draws (values
only at selected flat positions, in flat index order).  They dispatch
between a plain generator and a :class:`DieStreams` so device models
can stay agnostic of which path is running them.

Every dense draw goes through :func:`fill_normal`, which hands it to
the compiled PCG64 fill of :mod:`repro.native.normal` when that can
serve and makes numpy's own call otherwise.  The two give the same
values and leave the generator in the same state, so which one served
a run never shows in its results.  Sparse draws stay on numpy: they
are too short to repay the compiled call's fixed cost.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.native import normal as native_normal

#: Spawn-key index of the noise stream consumed by ``convert`` (signal
#: acquisition through the front end).
CONVERT_NOISE_STREAM = 0
#: Spawn-key index of the noise stream consumed by ``convert_samples``
#: (pre-acquired held voltages).
SAMPLES_NOISE_STREAM = 1
#: Spawn-key index of the noise stream consumed by foreground
#: calibration captures (:mod:`repro.core.calibration`).  Keeping the
#: calibration ramp on its own reserved stream means a calibration
#: neither collides with nor correlates against the conversion noise of
#: the measurements it is later applied to.
CALIBRATION_NOISE_STREAM = 2
#: Number of reserved per-die noise streams.  Children are keyed by
#: their spawn index, so growing this count never changes the streams
#: that already exist.
_N_NOISE_STREAMS = 3


def noise_generator(die_seed: int, stream: int) -> np.random.Generator:
    """The per-die noise generator for one conversion entry point.

    Child ``stream`` of ``SeedSequence(die_seed)``; children are keyed
    by their spawn index, so the generator for one stream never depends
    on how many other streams exist.  Repeated calls with the same
    arguments return generators in the identical state — a conversion
    replays from the die seed alone.
    """
    if not 0 <= stream < _N_NOISE_STREAMS:
        raise ConfigurationError(
            f"noise stream must be in [0, {_N_NOISE_STREAMS}), got {stream}"
        )
    children = np.random.SeedSequence(die_seed).spawn(_N_NOISE_STREAMS)
    return np.random.default_rng(children[stream])


def mismatch_generator(die_seed: int) -> np.random.Generator:
    """The die's construction-time mismatch generator.

    Every mismatch draw of a die (bias, stage capacitors, comparator
    offsets, flash ladder) comes from this one generator, consumed in
    construction order, so a die's static personality is a function of
    its seed alone.  It is deliberately the *raw* ``default_rng(seed)``
    stream — distinct by construction from the reserved
    ``SeedSequence``-spawned noise streams of :func:`noise_generator`,
    and frozen: changing the derivation would silently re-draw every
    die ever recorded in a ledger.
    """
    return np.random.default_rng(die_seed)


def seeded_generator(seed: int) -> np.random.Generator:
    """A generator from one explicit raw seed.

    The sanctioned escape hatch for call sites that accept a caller-
    supplied seed instead of deriving one (explicit ``noise_seed``
    overrides, population sampling roots).  Centralizing the
    construction keeps ``repro lint``'s stream-discipline guarantee
    meaningful: every generator in the tree is minted by a named,
    documented root.
    """
    return np.random.default_rng(seed)


def any_true(condition) -> bool:
    """``np.any`` that stays cheap for scalar comparisons.

    Validation predicates in the device models run on plain floats in
    the per-die path and on (dies, 1) columns in the stacked path; the
    scalar case is on every die-construction hot path, so it short-
    circuits before touching NumPy.
    """
    if condition is True:
        return True
    if condition is False:
        return False
    return bool(np.any(condition))


def shared_value(values: Iterable, name: str):
    """The common value of a parameter that must agree across dies.

    Stacking helpers use this for everything that is configuration
    rather than a per-die draw (capacitor sizes, timing, impairment
    flags): dies of one batch share a configuration by construction,
    and a mismatch means the caller stacked incompatible objects.
    """
    iterator = iter(values)
    try:
        first = next(iterator)
    except StopIteration:
        raise ConfigurationError(f"cannot stack zero values for '{name}'") from None
    for value in iterator:
        if value != first:
            raise ConfigurationError(
                f"cannot stack dies with differing '{name}': "
                f"{value!r} != {first!r}"
            )
    return first


#: Dense draws shorter than this go straight to numpy: the compiled
#: fill's fixed cost per call (about 4 us, mostly the ctypes call,
#: against numpy's 1.4 us) is repaid from about 256 values on.
NATIVE_MIN_VALUES = 256


def fill_normal(generator, out: np.ndarray, scale=1.0, loc=None) -> np.ndarray:
    """Fill ``out`` with Gaussians from ``generator``, exactly as numpy.

    With ``loc`` None, ``out`` holds ``scale * z`` for the next
    ``out.size`` standard normals ``z`` (``standard_normal(out=out)``
    then ``out *= scale``); with ``loc``, ``loc + scale * z`` (numpy's
    ``generator.normal(loc, scale, out.shape)``).  The compiled fill
    serves the draw when it can; the values, and the generator state
    left behind, are the same either way.
    """
    if out.size >= NATIVE_MIN_VALUES and native_normal.fill(
        generator, out, scale, loc
    ):
        return out
    if loc is None:
        generator.standard_normal(out=out)
        out *= scale
    else:
        out[...] = generator.normal(loc, scale, size=out.shape)
    return out


class DieStreams:
    """One random stream per die of a batch.

    Draw methods return ``(n_dies, n_samples)`` blocks whose row *d*
    comes from die *d*'s own generator — the exact numbers the per-die
    simulation path would draw at the same point of its sequence.

    Args:
        generators: per-die generators, in die order.
    """

    def __init__(self, generators: Sequence[np.random.Generator]):
        self.generators = list(generators)
        if not self.generators:
            raise ConfigurationError("DieStreams needs at least one die")

    @classmethod
    def for_noise(cls, die_seeds: Iterable[int], stream: int) -> "DieStreams":
        """Streams for one conversion entry point of a die batch."""
        return cls([noise_generator(seed, stream) for seed in die_seeds])

    @property
    def n_dies(self) -> int:
        return len(self.generators)

    def generator(self, die: int) -> np.random.Generator:
        """Die *d*'s own generator (per-die code paths draw directly)."""
        return self.generators[die]

    # --- draw helpers ----------------------------------------------------

    def _row_count(self, size) -> int:
        if isinstance(size, tuple):
            if len(size) != 2 or size[0] != self.n_dies:
                raise ConfigurationError(
                    f"batched draw shape must be ({self.n_dies}, n), got {size}"
                )
            return int(size[1])
        return int(size)

    def _per_die_scale(self, scale, die: int) -> float:
        arr = np.asarray(scale, dtype=float)
        if arr.ndim == 0:
            return float(arr)
        flat = arr.reshape(-1)
        if flat.size != self.n_dies:
            raise ConfigurationError(
                f"per-die scale must have one entry per die "
                f"({self.n_dies}), got shape {arr.shape}"
            )
        return float(flat[die])

    def normal(self, loc: float = 0.0, scale=1.0, size=None) -> np.ndarray:
        """Gaussian block (n_dies, n); ``scale`` may be per-die.

        Row *d* is die *d*'s ``normal(loc, scale_d, n)``, generated
        straight into the output block by :func:`fill_normal` — the
        values the per-die path draws.
        """
        count = self._row_count(size)
        out = np.empty((self.n_dies, count))
        for die, generator in enumerate(self.generators):
            fill_normal(generator, out[die], self._per_die_scale(scale, die), loc)
        return out

    def normal_pair(
        self, scale_a, scale_b, count: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Two consecutive Gaussian blocks per die.

        Equivalent to ``normal(0, scale_a, (dies, n))`` followed by
        ``normal(0, scale_b, (dies, n))``, drawn as ``scale * z``: both
        blocks are views of one ``(dies, 2, n)`` buffer whose halves
        each die fills in turn.  The MDAC uses this for its consecutive
        sampling-noise and opamp-noise draws.
        """
        block = np.empty((self.n_dies, 2, count))
        for die, generator in enumerate(self.generators):
            fill_normal(generator, block[die, 0], self._per_die_scale(scale_a, die))
            fill_normal(generator, block[die, 1], self._per_die_scale(scale_b, die))
        return block[:, 0], block[:, 1]

    def random(self, size=None) -> np.ndarray:
        """Uniform [0, 1) block of shape (n_dies, n)."""
        count = self._row_count(size)
        out = np.empty((self.n_dies, count))
        for die, generator in enumerate(self.generators):
            generator.random(out=out[die])
        return out

    def _row_parts(self, index: np.ndarray, shape, out: np.ndarray) -> list:
        """``out`` split into the per-die runs of the flat ``index``.

        ``index`` holds ascending flat positions into a ``(dies, n)``
        block, so row *d*'s positions are one contiguous run of it.
        """
        count = self._row_count(shape)
        bounds = np.searchsorted(index, np.arange(1, self.n_dies) * count)
        return np.split(out, bounds)

    def normal_at(self, index: np.ndarray, shape, scale: float) -> np.ndarray:
        """Gaussians for the flat positions ``index`` of a ``shape`` block.

        Row *d*'s positions draw from die *d*'s generator, in flat index
        order — the same consumption pattern as the per-die path running
        :func:`normal_at` on one row.
        """
        out = np.empty(index.size)
        for generator, part in zip(self.generators, self._row_parts(index, shape, out)):
            if part.size:
                part[...] = generator.normal(0.0, scale, size=part.size)
        return out

    def random_at(self, index: np.ndarray, shape) -> np.ndarray:
        """Uniforms for the flat positions ``index`` of a ``shape`` block."""
        out = np.empty(index.size)
        for generator, part in zip(self.generators, self._row_parts(index, shape, out)):
            if part.size:
                part[...] = generator.random(size=part.size)
        return out


def normal(rng, loc: float, scale, size) -> np.ndarray:
    """A dense Gaussian block: ``rng.normal(loc, scale, size)`` exactly.

    Dispatches to :meth:`DieStreams.normal` for batched runs; a plain
    generator draws through :func:`fill_normal`.
    """
    if isinstance(rng, DieStreams):
        return rng.normal(loc, scale, size)
    return fill_normal(rng, np.empty(size), scale, loc)


def normal_pair(rng, scale_a, scale_b, shape) -> tuple[np.ndarray, np.ndarray]:
    """Two consecutive Gaussian blocks, ``scale_a * z`` then ``scale_b * z``.

    Equivalent to ``rng.normal(0, scale_a, shape)`` followed by
    ``rng.normal(0, scale_b, shape)``: ``Generator.normal`` is ``0 +
    scale * standard_normal()`` value for value, and two consecutive
    draws of ``n`` standard normals are one draw of ``2n``.  Both blocks
    are halves of one buffer.  Dispatches to
    :meth:`DieStreams.normal_pair` for batched runs.
    """
    if isinstance(rng, DieStreams):
        return rng.normal_pair(scale_a, scale_b, rng._row_count(shape))
    block = np.empty((2,) + tuple(shape))
    fill_normal(rng, block[0], scale_a)
    fill_normal(rng, block[1], scale_b)
    return block[0], block[1]


def normal_at(rng, index: np.ndarray, shape, scale: float) -> np.ndarray:
    """Gaussians for the flat positions ``index`` of a ``shape`` block.

    ``index`` holds ascending flat (C-order) positions, as
    ``np.flatnonzero`` returns them; the result holds one value per
    position, in that order.  Dispatches to :meth:`DieStreams.normal_at`
    for batched runs; a plain generator draws ``index.size`` values.
    Drawing only the needed values keeps the stream consumption
    deterministic (it depends on the positions, which are themselves a
    deterministic function of the inputs) while skipping the — usually
    overwhelming — majority of positions whose outcome the draw cannot
    change.
    """
    if isinstance(rng, DieStreams):
        return rng.normal_at(index, shape, scale)
    return rng.normal(0.0, scale, size=index.size)


def random_at(rng, index: np.ndarray, shape) -> np.ndarray:
    """Uniforms for the flat positions ``index`` of a ``shape`` block."""
    if isinstance(rng, DieStreams):
        return rng.random_at(index, shape)
    return rng.random(size=index.size)
