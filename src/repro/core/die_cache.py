"""Process-local cache of die templates.

A die is a pure function of four values: the electrical configuration,
the conversion rate, the PVT operating point and the die seed.  Only
the mismatch draws read the seed; everything else — the bias
generator, ten opamp designers, the front end — is a
:class:`~repro.core.adc.DieTemplate`, a pure function of the first
three.  Building a die from scratch cost 1.42 ms in a traced
``signoff-grid`` benchmark job (60 builds, 25% of the job) before the
split, of which the per-seed work was about 0.24 ms; a PVT sign-off
builds several dies per operating point, so the cache keeps the
templates, keyed without the seed, and every die is built fresh on
its point's template.  A die built on a cached template is the die a
fresh construction gives, to the bit.  Dies themselves are not cached:
no workload asks for one (config, rate, point, seed) twice often
enough for a memo to pay for the dies it keeps alive.

:func:`build_die` is the factory every engine path goes through
(:class:`~repro.core.adc_array.AdcArray`, the serial testbench, the
Monte Carlo die tasks).  The profile times template builds as
``build/die-template`` and each die's seed step as ``build/die``.

The cache is per process (worker processes each grow their own, and a
worker reuses templates across the cells of its own task stream) and a
bounded LRU; benchmarks clear it between jobs (:func:`clear`) so every
timed run starts cold.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.core.adc import DieTemplate, PipelineAdc
from repro.core.config import AdcConfig
from repro.technology.corners import OperatingPoint

#: Upper bound on cached die templates per process: one per
#: (config, rate, operating point), so a full 5-corner x 3-temperature
#: grid holds 15.
MAX_CACHED_TEMPLATES = 64

_templates: OrderedDict[tuple, DieTemplate] = OrderedDict()


def build_die(
    config: AdcConfig,
    conversion_rate: float,
    operating_point: OperatingPoint | None = None,
    seed: int = 0,
) -> PipelineAdc:
    """A new die for the given key, built on its cached template.

    Drop-in for the :class:`~repro.core.adc.PipelineAdc` constructor;
    the returned instance is bit-identical to a fresh construction
    (same config -> same electrical parameters, same seed -> same
    frozen mismatch draws).
    """
    resolved = operating_point or OperatingPoint(technology=config.technology)
    rate = float(conversion_rate)
    key = (config, rate, resolved)
    template = _templates.get(key)
    if template is None:
        template = DieTemplate(config, rate, resolved)
        _templates[key] = template
        if len(_templates) > MAX_CACHED_TEMPLATES:
            _templates.popitem(last=False)
    else:
        _templates.move_to_end(key)
    return PipelineAdc(config, rate, resolved, seed, template=template)


def clear() -> None:
    """Drop every cached template.

    Benchmarks call this before each job so no timed run starts with a
    cache an earlier run warmed.
    """
    _templates.clear()
