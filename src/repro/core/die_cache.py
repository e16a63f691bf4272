"""Content-addressed cache of constructed dies and their templates.

A die is a pure function of four values: the electrical configuration,
the conversion rate, the PVT operating point and the die seed.  Only
the mismatch draws read the seed; everything else — the bias
generator, ten opamp designers, the front end — is a
:class:`~repro.core.adc.DieTemplate`, a pure function of the first
three.  Building a die from scratch cost 1.42 ms in a traced
``signoff-grid`` benchmark job (60 builds, 25% of the job) before the
split, of which the per-seed work was about 0.24 ms; a PVT sign-off
builds several dies per operating point, so the cache keeps both:

* **dies**, keyed by all four values.  Identical keys construct
  identical dies (the draws replay from the seed alone), and a
  constructed :class:`~repro.core.adc.PipelineAdc` is immutable for its
  lifetime — conversions derive their noise streams fresh from the die
  seed on every call and hold no cross-call state — so reusing one is
  observable only as saved wall time, never in a single output bit.
* **templates**, keyed without the seed.  A die built on a cached
  template is the die a fresh construction gives, to the bit.

:func:`build_die` is the factory every engine path goes through
(:class:`~repro.core.adc_array.AdcArray`, the serial testbench, the
Monte Carlo die tasks).  Hits and misses are counted per process and,
when profiling is active, die lookups are folded into the profile
report as zero-duration ``build/die-cache-*`` entries so `repro
profile` shows the hit rate next to the ``build/die`` and
``build/die-template`` costs it saved.

Both caches are per process (worker processes each grow their own — the
runtime dispatches whole cells, so a worker reuses dies and templates
across the cells of its own task stream) and bounded LRU; benchmarks
clear them between jobs (:func:`clear`) so every timed run starts cold.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.core.adc import DieTemplate, PipelineAdc
from repro.core.config import AdcConfig
from repro.profiling import active
from repro.technology.corners import OperatingPoint

#: Upper bound on cached dies per process.  A die is a few kilobytes of
#: floats, so the bound is about predictability, not memory pressure:
#: one campaign chunk touches at most (corners x temperatures x dies)
#: distinct keys and typical grids stay well under this.
MAX_CACHED_DIES = 256

#: Upper bound on cached die templates per process: one per
#: (config, rate, operating point), so a full 5-corner x 3-temperature
#: grid holds 15.
MAX_CACHED_TEMPLATES = 64

_cache: OrderedDict[tuple, PipelineAdc] = OrderedDict()
_templates: OrderedDict[tuple, DieTemplate] = OrderedDict()
_hits = 0
_misses = 0
_template_hits = 0
_template_misses = 0


@dataclass(frozen=True)
class CacheStats:
    """Hit/miss counters of the process-local die and template caches."""

    hits: int
    misses: int
    size: int
    template_hits: int
    template_misses: int
    templates: int

    @property
    def lookups(self) -> int:
        return self.hits + self.misses


def build_die(
    config: AdcConfig,
    conversion_rate: float,
    operating_point: OperatingPoint | None = None,
    seed: int = 0,
) -> PipelineAdc:
    """A die for the given key — cached when one was built before.

    Drop-in for the :class:`~repro.core.adc.PipelineAdc` constructor;
    the returned instance is bit-identical to a fresh construction
    (same config -> same electrical parameters, same seed -> same
    frozen mismatch draws), so callers may share it freely.  A die
    that misses is built on the key's cached template.
    """
    resolved = operating_point or OperatingPoint(technology=config.technology)
    rate = float(conversion_rate)
    key = (config, rate, resolved, int(seed))
    global _hits, _misses
    die = _cache.get(key)
    recorder = active()
    if die is not None:
        _hits += 1
        _cache.move_to_end(key)
        if recorder is not None:
            recorder.add("build", "die-cache-hit", 0.0)
        return die
    _misses += 1
    if recorder is not None:
        recorder.add("build", "die-cache-miss", 0.0)
    die = PipelineAdc(
        config, rate, resolved, seed, template=_template(config, rate, resolved)
    )
    _cache[key] = die
    if len(_cache) > MAX_CACHED_DIES:
        _cache.popitem(last=False)
    return die


def _template(
    config: AdcConfig, conversion_rate: float, operating_point: OperatingPoint
) -> DieTemplate:
    """The cached template of one (config, rate, operating point)."""
    global _template_hits, _template_misses
    key = (config, conversion_rate, operating_point)
    template = _templates.get(key)
    if template is not None:
        _template_hits += 1
        _templates.move_to_end(key)
        return template
    _template_misses += 1
    template = DieTemplate(config, conversion_rate, operating_point)
    _templates[key] = template
    if len(_templates) > MAX_CACHED_TEMPLATES:
        _templates.popitem(last=False)
    return template


def clear() -> None:
    """Drop every cached die and template and zero the counters.

    Benchmarks call this before each job so no timed run starts with a
    cache an earlier run warmed.
    """
    global _hits, _misses, _template_hits, _template_misses
    _cache.clear()
    _templates.clear()
    _hits = 0
    _misses = 0
    _template_hits = 0
    _template_misses = 0


def stats() -> CacheStats:
    """Current process-local counters."""
    return CacheStats(
        hits=_hits,
        misses=_misses,
        size=len(_cache),
        template_hits=_template_hits,
        template_misses=_template_misses,
        templates=len(_templates),
    )
