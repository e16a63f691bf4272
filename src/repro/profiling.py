"""Opt-in per-stage wall-time instrumentation (the timing primitive).

The benchmark (``perfbench/``) times whole jobs but cannot see *where*
time goes inside a conversion.  This module is the instrument: a :class:`ProfileRecorder` that hot paths feed through
near-zero-cost :func:`record` context managers and the
:func:`profile_step` decorator.

Design constraints, in order:

1. **Disabled is free and bit-exact.**  Profiling never touches a
   random stream, so enabling it cannot change a single output code;
   when no recorder is active, :func:`record` returns one shared no-op
   context manager — a dict lookup and two empty method calls per
   instrumented block, a few dozen of which exist per *conversion*
   (never per sample).
2. **Nested timers partition, they never double-count.**  Each recorder
   keeps a timer stack; a frame's *self* time is its duration minus the
   durations of its direct children.  Summing ``self_s`` over every
   entry under a root reproduces the root's inclusive time exactly, so
   per-stage shares are a true partition of the run
   (``tests/test_profiling.py`` asserts the identity).
3. **Leaf import.**  Device models (``repro.devices``, ``repro.analog``,
   ``repro.core``) import this module directly; it depends on nothing
   inside the package, so the instrumentation cannot introduce import
   cycles.  The public workload-facing surface — ``repro profile``
   workloads, reports — lives in :mod:`repro.runtime.profiling`.

Activation is explicit: :func:`enable` or the :func:`profiled` context
manager.  Forked pool workers inherit the active recorder, but theirs
are never collected; :class:`~repro.runtime.batch.BatchRunner` folds
each task's worker-measured wall time into the dispatching process's
recorder as a ``dispatch/*`` entry instead.

Stage taxonomy (the names the engines emit — documented in
``docs/performance.md`` and rendered by ``repro profile``):

======================  ================================================
stage / phase           what it times
======================  ================================================
``run/<workload>``      the profiled run's root (``repro profile``)
``build/die``           one die's seed step (frozen mismatch draws,
                        opamp designs from the drawn currents, the
                        die's compiled-chain block of stage constants)
``build/die-template``  one die template's construction (timing, bias
                        generator, opamp designer constants, front end);
                        never nested in ``build/die``
``sample/stimulus``     signal evaluation at the (jittered) instants
``sample/acquire``      front-end acquisition (includes children)
``frontend/*``          the compiled front end: ``native`` (its two C
                        passes) and ``logaddexp-power`` (numpy's
                        ``logaddexp`` and ``power`` between them)
``references/window``   delivered-reference record + per-stage windows
``chain/native``        one record through every stage on the compiled
                        chain (all its C calls, one entry per record)
``chain/exp``           numpy's ``exp`` over one stage's slewing
                        samples, inside ``chain/native``
``subadc/decide``       1.5-bit ADSC decisions (both comparators);
                        numpy's stage path only
``mdac/amplify``        the full residue transfer (includes children);
                        numpy's stage path only
``mdac/settle``         opamp settling + compression inside amplify
``flash/decide``        terminating 2-bit flash
``correction/*``        ``align-combine``: digital alignment and
                        recombination
``analyze/spectrum``    windowed FFT + single-tone metric bookkeeping
``analyze/linearity``   code-density histogram INL/DNL extraction
``noise-draw/*``        every per-sample random draw: ``jitter``,
                        ``sample-ktc``, ``reference``, ``comparator``,
                        ``mdac-pair`` (the fused per-stage
                        sampling+opamp draw), plus ``mdac-sampling`` /
                        ``mdac-opamp``
                        when only one of the two MDAC draws is enabled
                        (the compiled chain's draws are in
                        ``chain/native``)
``campaign/*``          ``cell-store-hit`` / ``cell-store-miss`` counts
                        (no time)
``dispatch/*``          BatchRunner task wall times (worker-side,
                        aggregated by the dispatching process; overlaps
                        the stages above, so it is reported separately
                        and excluded from share-of-run accounting).
                        The gap-driven campaign dispatcher adds
                        ``dispatch/shard-wait`` (wall time waiting on a
                        wave of forked shards) under the same overlay
                        rule
``task/*``              one whole measurement task (die, die chunk,
                        campaign cell, cell chunk)
======================  ================================================
"""

from __future__ import annotations

import functools
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Any

#: Stages whose entries overlap other stages' wall time (an outer view
#: of the same work) and are therefore excluded from share-of-run and
#: attribution arithmetic.
OVERLAY_STAGES = frozenset({"dispatch", "task"})


@dataclass(frozen=True)
class StageStat:
    """Aggregated timings of one ``(stage, phase)`` key.

    Attributes:
        stage: coarse stage name (see the module taxonomy table).
        phase: sub-label within the stage (None for unphased entries).
        count: completed timer entries (or :meth:`ProfileRecorder.add`
            contributions).
        total_s: inclusive wall time — children included.
        self_s: exclusive wall time — children subtracted.  Self times
            of all entries under a root sum to the root's ``total_s``.
    """

    stage: str
    phase: str | None
    count: int
    total_s: float
    self_s: float

    def to_dict(self) -> dict[str, Any]:
        return {
            "stage": self.stage,
            "phase": self.phase,
            "count": self.count,
            "total_s": self.total_s,
            "self_s": self.self_s,
        }


class _Timer:
    """One live timer frame; created per ``with record(...)`` entry."""

    __slots__ = ("recorder", "key", "start", "child_s")

    def __init__(self, recorder: "ProfileRecorder", key: tuple[str, str | None]):
        self.recorder = recorder
        self.key = key
        self.child_s = 0.0

    def __enter__(self) -> "_Timer":
        self.recorder._stack.append(self)
        self.start = perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        duration = perf_counter() - self.start
        stack = self.recorder._stack
        stack.pop()
        entry = self.recorder._entries.setdefault(self.key, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - self.child_s
        if stack:
            stack[-1].child_s += duration
        return False


class _NullTimer:
    """Shared do-nothing context manager for the disabled path."""

    __slots__ = ()

    def __enter__(self) -> "_NullTimer":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NULL_TIMER = _NullTimer()


class ProfileRecorder:
    """Accumulates per-stage wall-time statistics for one profiled run.

    Entries are keyed by ``(stage, phase)``.  Timers nest: a frame's
    exclusive (*self*) time excludes its children, so entries partition
    the profiled wall time (see the module docstring).  Recorders are
    cheap; ``repro profile`` uses a fresh one per engine configuration
    so the columns never mix.

    Not thread-safe — one recorder belongs to one thread of one
    process.  Cross-process aggregation happens via
    :meth:`ProfileRecorder.add` (the dispatcher feeds worker task wall
    times back in).
    """

    def __init__(self) -> None:
        # key -> [count, total_s, self_s]; lists keep the hot exit path
        # allocation-free.
        self._entries: dict[tuple[str, str | None], list] = {}
        self._stack: list[_Timer] = []

    # --- recording -------------------------------------------------------

    def record(self, stage: str, phase: str | None = None) -> _Timer:
        """A context manager timing one ``(stage, phase)`` block."""
        return _Timer(self, (stage, phase))

    def add(
        self,
        stage: str,
        phase: str | None,
        seconds: float,
        count: int = 1,
    ) -> None:
        """Fold an externally measured duration in (no stack involvement).

        Used for timings measured elsewhere — worker task wall times the
        dispatcher aggregates — which therefore never subtract from an
        open frame's self time.
        """
        entry = self._entries.setdefault((stage, phase), [0, 0.0, 0.0])
        entry[0] += count
        entry[1] += seconds
        entry[2] += seconds

    # --- reading ---------------------------------------------------------

    def stats(self) -> list[StageStat]:
        """Finished entries, largest exclusive time first."""
        rows = [
            StageStat(stage, phase, count, total_s, self_s)
            for (stage, phase), (count, total_s, self_s) in self._entries.items()
        ]
        rows.sort(key=lambda stat: stat.self_s, reverse=True)
        return rows

    def total_s(self, stage: str, phase: str | None = None) -> float:
        """Inclusive seconds of one key (0.0 when never recorded)."""
        entry = self._entries.get((stage, phase))
        return entry[1] if entry else 0.0


# --- process-global activation -------------------------------------------

_ACTIVE: ProfileRecorder | None = None


def active() -> ProfileRecorder | None:
    """The process-global recorder, or None when profiling is disabled."""
    return _ACTIVE


def enable(recorder: ProfileRecorder | None = None) -> ProfileRecorder:
    """Install (and return) the process-global recorder."""
    global _ACTIVE
    _ACTIVE = recorder if recorder is not None else ProfileRecorder()
    return _ACTIVE


@contextmanager
def profiled(
    recorder: ProfileRecorder | None = None,
) -> Iterator[ProfileRecorder]:
    """Scope with profiling enabled; restores the previous state after.

    >>> with profiled() as recorder:
    ...     adc.convert(tone, 4096)
    >>> recorder.stats()
    """
    global _ACTIVE
    previous = _ACTIVE
    installed = enable(recorder)
    try:
        yield installed
    finally:
        _ACTIVE = previous


def record(stage: str, phase: str | None = None):
    """Context manager timing a block against the active recorder.

    The instrumentation entry point hot paths use::

        with record("noise-draw", "mdac-opamp"):
            residue = residue + rng.normal(0.0, noise, size=residue.shape)

    With no active recorder this returns a shared no-op context
    manager — the disabled cost is one module-global read.
    """
    recorder = _ACTIVE
    if recorder is None:
        return _NULL_TIMER
    return _Timer(recorder, (stage, phase))


def profile_step(
    stage: str, phase: str | None = None
) -> Callable[[Callable], Callable]:
    """Decorator timing every call of a function as one profile entry.

    The coarse-grained sibling of :func:`record` (the ``profile_step``
    idiom): measurement tasks wear it so whole-task wall time shows up
    under the ``task`` stage alongside the fine-grained engine stages::

        @profile_step("task", "measure-die")
        def measure_die(task): ...
    """

    def wrap(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            recorder = _ACTIVE
            if recorder is None:
                return fn(*args, **kwargs)
            with _Timer(recorder, (stage, phase)):
                return fn(*args, **kwargs)

        return inner

    return wrap
