"""Profile workloads and reporting — the instrumentation's public face.

The timing primitive (:class:`~repro.profiling.ProfileRecorder`, the
:func:`~repro.profiling.record` context manager, the
:func:`~repro.profiling.profile_step` decorator) lives in the leaf
module :mod:`repro.profiling` so device-model hot paths can import it
without touching this package's init.  This module re-exports all of it
and adds the workload layer ``repro profile`` runs:

* :func:`profile_workload` — run a named workload (``dynamic-screen``,
  ``yield-screen``, ``pvt-campaign``) once per engine with a fresh
  recorder, producing a :class:`ProfileReport`.
* :class:`ProfileReport` — the serial-vs-vectorized side-by-side
  per-stage cost breakdown (counts, total/mean wall time, % of run)
  with a stable JSON document (schema ``repro.profile-report/v1``).

Reading the numbers: *total* is inclusive wall time (children
included); *% of run* is the stage's **exclusive** share — exclusive
times partition the run, so the column sums to 100% over all non-overlay
entries.  ``dispatch``/``task`` entries are outer views of the same work
(:data:`~repro.profiling.OVERLAY_STAGES`) and are listed below the
partition instead of inside it.  ``docs/performance.md`` walks through a
full example.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro import native
from repro.core import die_cache
from repro.core.config import AdcConfig
from repro.errors import ConfigurationError
from repro.evaluation.reporting import format_table
from repro.native import chain as native_chain
from repro.native import normal as native_normal
from repro.profiling import (  # noqa: F401 — re-exported public surface
    OVERLAY_STAGES,
    PROFILE_ENV,
    PROFILE_SCHEMA,
    ProfileRecorder,
    StageStat,
    active,
    disable,
    enable,
    enabled,
    env_enabled,
    profile_step,
    profiled,
    record,
)
from repro.runtime.campaign import (
    CampaignSpec,
    CellChunkTask,
    measure_cell_chunk,
    run_campaign,
)
from repro.runtime.montecarlo import run_yield_analysis
from repro.schemas import PROFILE_REPORT_SCHEMA
from repro.technology.corners import Corner

#: The workloads ``repro profile`` can run.
WORKLOADS = ("dynamic-screen", "yield-screen", "pvt-campaign")

#: The engine columns of a profile report, both in one process on the
#: one measure path: ``serial`` measures one item per task
#: (``engine="pool"``), ``vectorized`` the automatic chunk.
ENGINES = ("serial", "vectorized")

#: The root stage every profiled engine run is wrapped in.
RUN_STAGE = "run"


@dataclass(frozen=True)
class EngineProfile:
    """One engine's profiled run of one workload.

    Attributes:
        engine: ``"serial"`` or ``"vectorized"``.
        wall_s: inclusive wall time of the whole run (the
            ``run/<engine>`` root entry).
        n_items: cells (or dies) the workload measured.
        stats: the recorder's per-``(stage, phase)`` entries.
    """

    engine: str
    wall_s: float
    n_items: int
    stats: tuple[StageStat, ...]

    def stat(self, stage: str, phase: str | None = None) -> StageStat | None:
        for entry in self.stats:
            if entry.stage == stage and entry.phase == phase:
                return entry
        return None

    def stage_totals(self) -> dict[str, float]:
        """Exclusive seconds summed per stage (phases folded)."""
        totals: dict[str, float] = {}
        for entry in self.stats:
            totals[entry.stage] = totals.get(entry.stage, 0.0) + entry.self_s
        return totals

    def attributed_fraction(self) -> float:
        """Fraction of the run's wall time inside named engine stages.

        Exclusive times of every non-overlay, non-root entry over the
        root's inclusive time.  The remainder is the root's own self
        time (orchestration between instrumented blocks: FFTs,
        histograms, report assembly) plus ``task`` decorator overhead.
        """
        if self.wall_s <= 0:
            return 0.0
        named = sum(
            entry.self_s
            for entry in self.stats
            if entry.stage not in OVERLAY_STAGES and entry.stage != RUN_STAGE
        )
        return named / self.wall_s

    def stage_share(self, stage: str) -> float:
        """One stage's exclusive share of the run's wall time."""
        if self.wall_s <= 0:
            return 0.0
        return self.stage_totals().get(stage, 0.0) / self.wall_s

    def to_dict(self) -> dict:
        return {
            "engine": self.engine,
            "wall_s": self.wall_s,
            "n_items": self.n_items,
            "item_wall_s": self.wall_s / self.n_items if self.n_items else 0.0,
            "attributed_fraction": self.attributed_fraction(),
            "stage_shares": {
                stage: self.stage_share(stage)
                for stage in sorted(self.stage_totals())
                if stage not in OVERLAY_STAGES and stage != RUN_STAGE
            },
            "entries": [entry.to_dict() for entry in self.stats],
        }


@dataclass(frozen=True)
class ProfileReport:
    """Per-stage cost breakdown of one workload across engines.

    Attributes:
        workload: the workload name (one of :data:`WORKLOADS`).
        n_items: cells (or dies) each engine measured.
        fft_points: record length per cell.
        engines: one :class:`EngineProfile` per profiled engine.
        normal_fill: what served the dense Gaussian draws: ``native``
            (the compiled fill) or ``numpy: <reason>``.
        stage_chain: what ran the exact stage chain of 1-D records:
            ``native`` (the compiled chain) or ``numpy: <reason>``.
    """

    workload: str
    n_items: int
    fft_points: int
    engines: tuple[EngineProfile, ...]
    normal_fill: str
    stage_chain: str

    def engine(self, name: str) -> EngineProfile:
        for profile in self.engines:
            if profile.engine == name:
                return profile
        raise ConfigurationError(
            f"no '{name}' engine in this report "
            f"(have {[p.engine for p in self.engines]})"
        )

    def _row_keys(self) -> list[tuple[str, str | None]]:
        """Union of (stage, phase) keys, first engine's self-time order."""
        keys: list[tuple[str, str | None]] = []
        for profile in self.engines:
            for entry in profile.stats:
                key = (entry.stage, entry.phase)
                if key not in keys:
                    keys.append(key)
        return keys

    def render(self) -> str:
        """The side-by-side textual breakdown."""
        headers: list[str] = ["stage", "phase"]
        for profile in self.engines:
            name = profile.engine
            headers += [
                f"{name} n",
                f"{name} total [ms]",
                f"{name} mean [us]",
                f"{name} %run",
            ]
        partition_rows = []
        overlay_rows = []
        for stage, phase in self._row_keys():
            row: list[str] = [stage, phase or "-"]
            for profile in self.engines:
                entry = profile.stat(stage, phase)
                if entry is None or entry.count == 0:
                    row += ["-", "-", "-", "-"]
                    continue
                share = (
                    entry.self_s / profile.wall_s if profile.wall_s else 0.0
                )
                row += [
                    str(entry.count),
                    f"{entry.total_s * 1e3:.2f}",
                    f"{entry.total_s / entry.count * 1e6:.1f}",
                    f"{share * 100:.1f}"
                    if stage not in OVERLAY_STAGES
                    else "-",
                ]
            if stage in OVERLAY_STAGES:
                overlay_rows.append(tuple(row))
            else:
                partition_rows.append(tuple(row))
        lines = [
            format_table(
                tuple(headers),
                partition_rows + overlay_rows,
                title=(
                    f"--- repro profile: {self.workload} "
                    f"({self.n_items} cells x {self.fft_points} samples, "
                    "%run columns sum to 100 over the partition; "
                    "dispatch/task overlay the stages above) ---"
                ),
            ),
            "",
        ]
        for profile in self.engines:
            noise = profile.stage_share("noise-draw")
            lines.append(
                f"{profile.engine}: {profile.wall_s:.3f} s wall "
                f"({profile.wall_s / profile.n_items * 1e3:.1f} ms/cell), "
                f"{profile.attributed_fraction() * 100:.0f}% attributed "
                f"to named stages, noise-draw share "
                f"{noise * 100:.0f}%"
            )
        lines.append(f"normal fill: {self.normal_fill}")
        lines.append(f"stage chain: {self.stage_chain}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "schema": PROFILE_REPORT_SCHEMA,
            "workload": self.workload,
            "n_items": self.n_items,
            "fft_points": self.fft_points,
            "engines": [profile.to_dict() for profile in self.engines],
            "normal_fill": self.normal_fill,
            "stage_chain": self.stage_chain,
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def _dynamic_screen_spec(dies: int, fft_points: int) -> CampaignSpec:
    """One nominal-point campaign spec: TT/27C, ``dies`` dies."""
    return CampaignSpec(
        corners=(Corner.TT,),
        temperatures_c=(27.0,),
        n_dies=dies,
        n_samples=fft_points,
    )


def _run_dynamic_screen(
    engine: str, dies: int, fft_points: int, config: AdcConfig
) -> int:
    """The dynamic-screen workload: tone + FFT per cell, one PVT point.

    The exact campaign cell path,
    :func:`~repro.runtime.campaign.measure_cell_chunk`: serial runs one
    task per cell, vectorized one task for all cells.
    """
    spec = _dynamic_screen_spec(dies, fft_points)
    cells = tuple(spec.cells())
    chunks = [(cell,) for cell in cells] if engine == "serial" else [cells]
    for chunk in chunks:
        measure_cell_chunk(CellChunkTask(cells=chunk, config=config, spec=spec))
    return len(cells)


def _run_yield_screen(
    engine: str, dies: int, fft_points: int, config: AdcConfig
) -> int:
    """The ``repro mc`` workload: dynamic + static screen per die."""
    run_yield_analysis(
        n_dies=dies,
        config=config,
        n_fft=fft_points,
        engine="pool" if engine == "serial" else "vectorized",
        workers=1,
    )
    return dies


def _run_pvt_campaign(
    engine: str, dies: int, fft_points: int, config: AdcConfig
) -> int:
    """The sign-off grid workload: all corners x temperatures x dies."""
    spec = CampaignSpec(n_dies=dies, n_samples=fft_points)
    run_campaign(
        spec,
        config=config,
        engine="pool" if engine == "serial" else "vectorized",
        workers=1,
    )
    return spec.n_cells


_WORKLOAD_RUNNERS = {
    "dynamic-screen": _run_dynamic_screen,
    "yield-screen": _run_yield_screen,
    "pvt-campaign": _run_pvt_campaign,
}


def profile_workload(
    workload: str,
    dies: int = 8,
    fft_points: int = 4096,
    engines: tuple[str, ...] = ENGINES,
    config: AdcConfig | None = None,
) -> ProfileReport:
    """Profile one named workload, once per engine.

    Each engine runs with a fresh recorder under a ``run/<engine>``
    root, with one worker, so every stage timer stays in-process and
    the exclusive times partition the run exactly.  Profiling never
    touches a random stream, so the codes each engine produces here are
    bit-exact with an unprofiled run.

    Args:
        workload: one of :data:`WORKLOADS`.
        dies: dies (cells) per operating point.
        fft_points: record length per cell.
        engines: which engine columns to run (subset of
            :data:`ENGINES`).
        config: converter configuration (paper default when omitted).

    Returns:
        The side-by-side :class:`ProfileReport`.
    """
    if workload not in _WORKLOAD_RUNNERS:
        raise ConfigurationError(
            f"unknown profile workload '{workload}' "
            f"(choose from {', '.join(WORKLOADS)})"
        )
    for engine in engines:
        if engine not in ENGINES:
            raise ConfigurationError(
                f"unknown profile engine '{engine}' "
                f"(choose from {', '.join(ENGINES)})"
            )
    if dies < 1:
        raise ConfigurationError(f"dies must be >= 1, got {dies}")
    config = config or AdcConfig.paper_default()
    runner = _WORKLOAD_RUNNERS[workload]
    # Load and self-check the compiled kernels before any timer runs, so
    # their one-off checks stay out of the first engine's column.
    native.preload()
    profiles = []
    n_items = 0
    for engine in engines:
        # Every engine column starts cold: a warm die cache from the
        # previous engine would erase its build/die column and skew the
        # comparison.
        die_cache.clear()
        recorder = ProfileRecorder()
        with profiled(recorder):
            with recorder.record(RUN_STAGE, engine):
                n_items = runner(engine, dies, fft_points, config)
        profiles.append(
            EngineProfile(
                engine=engine,
                wall_s=recorder.total_s(RUN_STAGE, engine),
                n_items=n_items,
                stats=tuple(recorder.stats()),
            )
        )
    return ProfileReport(
        workload=workload,
        n_items=n_items,
        fft_points=fft_points,
        engines=tuple(profiles),
        normal_fill=native_normal.status(),
        stage_chain=native_chain.status(),
    )
