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
   workloads, reports — lives in :mod:`repro.runtime.profiling`, which
   re-exports everything here.

Activation is explicit (:func:`enable` / the :func:`profiled` context
manager) or environment-gated: setting ``REPRO_PROFILE`` to a non-empty
value other than ``0`` installs a process-global recorder at import
time, which is how worker processes inherit profiling from a dispatching
parent.

Stage taxonomy (the names the engines emit — documented in
``docs/performance.md`` and rendered by ``repro profile``):

======================  ================================================
stage / phase           what it times
======================  ================================================
``build/die``           one die's construction (bias solve, opamp
                        design, frozen mismatch draws)
``build/stack``         stacking dies into an ``AdcArray``
``sample/stimulus``     signal evaluation at the (jittered) instants
``sample/acquire``      front-end tracking, pedestal, droop
``references/window``   delivered-reference record + per-stage windows
``subadc/decide``       1.5-bit ADSC decisions (both comparators)
``mdac/amplify``        the full residue transfer (includes children)
``mdac/settle``         opamp settling + compression inside amplify
``flash/decide``        terminating 2-bit flash
``correction/align``    digital alignment + recombination
``analyze/spectrum``    windowed FFT + single-tone metric bookkeeping
``analyze/linearity``   code-density histogram INL/DNL extraction
``noise-draw/*``        every per-sample random draw: ``jitter``,
                        ``sample-ktc``, ``reference``, ``comparator``,
                        ``mdac-pair`` (the fused per-stage
                        sampling+opamp draw), ``mdac-fused`` (the single
                        output-referred draw of the fast precision
                        tier), plus ``mdac-sampling`` / ``mdac-opamp``
                        when only one of the two MDAC draws is enabled
``dispatch/*``          BatchRunner task wall times (worker-side,
                        aggregated by the dispatching process; overlaps
                        the stages above, so it is reported separately
                        and excluded from share-of-run accounting).
                        The gap-driven campaign dispatcher adds
                        ``dispatch/shard-wait`` (wall time waiting on a
                        wave of shard subprocesses) and
                        ``dispatch/backoff`` (retry-round backoff
                        sleeps) under the same overlay rule
``task/*``              one whole measurement task (die, die chunk,
                        campaign cell, cell chunk)
======================  ================================================
"""

from __future__ import annotations

import functools
import os
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Any

from repro.schemas import PROFILE_SCHEMA

#: Environment variable that enables profiling at import time.
PROFILE_ENV = "REPRO_PROFILE"

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
    times back in) or :meth:`merge`.
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

    def merge(self, other: "ProfileRecorder") -> None:
        """Fold another recorder's finished entries into this one."""
        for key, (count, total_s, self_s) in other._entries.items():
            entry = self._entries.setdefault(key, [0, 0.0, 0.0])
            entry[0] += count
            entry[1] += total_s
            entry[2] += self_s

    def clear(self) -> None:
        self._entries.clear()
        self._stack.clear()

    # --- reading ---------------------------------------------------------

    def stats(self) -> list[StageStat]:
        """Finished entries, largest exclusive time first."""
        rows = [
            StageStat(stage, phase, count, total_s, self_s)
            for (stage, phase), (count, total_s, self_s) in self._entries.items()
        ]
        rows.sort(key=lambda stat: stat.self_s, reverse=True)
        return rows

    def stage_totals(self) -> dict[str, float]:
        """Exclusive seconds summed per stage (phases folded)."""
        totals: dict[str, float] = {}
        for (stage, _phase), (_count, _total_s, self_s) in self._entries.items():
            totals[stage] = totals.get(stage, 0.0) + self_s
        return totals

    def total_s(self, stage: str, phase: str | None = None) -> float:
        """Inclusive seconds of one key (0.0 when never recorded)."""
        entry = self._entries.get((stage, phase))
        return entry[1] if entry else 0.0

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready document (schema ``repro.profile/v1``)."""
        return {
            "schema": PROFILE_SCHEMA,
            "entries": [stat.to_dict() for stat in self.stats()],
        }


# --- process-global activation -------------------------------------------

_ACTIVE: ProfileRecorder | None = None


def active() -> ProfileRecorder | None:
    """The process-global recorder, or None when profiling is disabled."""
    return _ACTIVE


def enabled() -> bool:
    """Whether a recorder is currently installed."""
    return _ACTIVE is not None


def enable(recorder: ProfileRecorder | None = None) -> ProfileRecorder:
    """Install (and return) the process-global recorder."""
    global _ACTIVE
    _ACTIVE = recorder if recorder is not None else ProfileRecorder()
    return _ACTIVE


def disable() -> None:
    """Remove the process-global recorder (instrumentation goes no-op)."""
    global _ACTIVE
    _ACTIVE = None


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


def env_enabled(environ=os.environ) -> bool:
    """Whether ``REPRO_PROFILE`` requests profiling (unset/"0"/"" = no)."""
    value = environ.get(PROFILE_ENV, "")
    return value not in ("", "0", "false", "off")


if env_enabled():  # pragma: no cover — exercised via subprocess in tests
    enable()
