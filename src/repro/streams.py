"""Per-die random streams.

Every die draws its conversion noise from its own generators, derived
from the die seed alone, so a die converts to the same codes whether it
is simulated alone, in a die batch, in any worker, or in any chunk of a
campaign:

* :func:`noise_generator` — the single definition of how a die's
  conversion-noise generator is derived from its die seed.  Every
  conversion entry point calls it, so "matched seeds" means matched
  noise streams.  Derivation uses ``SeedSequence.spawn`` children, the
  same partition-invariant convention as :mod:`repro.runtime.seeding`
  uses for batch task seeds.
* :func:`mismatch_generator` / :func:`seeded_generator` — the die's
  construction-time draws and explicit raw seeds.

The helpers :func:`normal` / :func:`normal_pair` are the shared entry
points for *dense* Gaussian draws (a whole record).  Every dense draw
goes through :func:`fill_normal`, which hands it to the compiled PCG64
fill of :mod:`repro.native.chain` when that can serve and makes
numpy's own call otherwise.  The two give the same values and leave the
generator in the same state, so which one served a run never shows in
its results.  Sparse draws (values only at a few selected positions)
stay on numpy: they are too short to repay the compiled call's fixed
cost.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.native import chain as native_chain

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
    on how many other streams exist.  Only that child is built: a
    ``SeedSequence`` with ``spawn_key=(stream,)`` is the child
    ``SeedSequence(die_seed).spawn(...)[stream]`` returns.  Repeated
    calls with the same arguments return generators in the identical
    state — a conversion replays from the die seed alone.
    """
    if not 0 <= stream < _N_NOISE_STREAMS:
        raise ConfigurationError(
            f"noise stream must be in [0, {_N_NOISE_STREAMS}), got {stream}"
        )
    return np.random.default_rng(
        np.random.SeedSequence(die_seed, spawn_key=(stream,))
    )


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
    if out.size >= NATIVE_MIN_VALUES and native_chain.fill(
        generator, out, scale, loc
    ):
        return out
    if loc is None:
        generator.standard_normal(out=out)
        out *= scale
    else:
        out[...] = generator.normal(loc, scale, size=out.shape)
    return out


def normal(rng, loc: float, scale, size) -> np.ndarray:
    """A dense Gaussian block: ``rng.normal(loc, scale, size)`` exactly.

    The draw goes through :func:`fill_normal`.
    """
    return fill_normal(rng, np.empty(size), scale, loc)


def normal_pair(rng, scale_a, scale_b, shape) -> tuple[np.ndarray, np.ndarray]:
    """Two consecutive Gaussian blocks, ``scale_a * z`` then ``scale_b * z``.

    Equivalent to ``rng.normal(0, scale_a, shape)`` followed by
    ``rng.normal(0, scale_b, shape)``: ``Generator.normal`` is ``0 +
    scale * standard_normal()`` value for value, and two consecutive
    draws of ``n`` standard normals are one draw of ``2n``.  Both blocks
    are halves of one buffer.
    """
    block = np.empty((2,) + tuple(shape))
    fill_normal(rng, block[0], scale_a)
    fill_normal(rng, block[1], scale_b)
    return block[0], block[1]
