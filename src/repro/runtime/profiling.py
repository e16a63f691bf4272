"""Profile workloads and reporting — the instrumentation's public face.

The timing primitive (:class:`~repro.profiling.ProfileRecorder`, the
:func:`~repro.profiling.record` context manager, the
:func:`~repro.profiling.profile_step` decorator) lives in the leaf
module :mod:`repro.profiling` so device-model hot paths can import it
without touching this package's init.  This module adds the workload
layer ``repro profile`` runs:

* :func:`profile_workload` — run a named workload (``dynamic-screen``,
  ``yield-screen``, ``pvt-campaign``) once, through the entry point and
  default engine of its user command, with a fresh recorder.
* :class:`ProfileReport` — that run's per-stage cost breakdown (counts,
  total/mean wall time, % of run) with a stable JSON document (schema
  ``repro.profile-report/v3``).

Reading the numbers: *total* is inclusive wall time (children
included); *% of run* is the stage's **exclusive** share — exclusive
times partition the run, so the column sums to 100% over all non-overlay
entries.  ``dispatch``/``task`` entries are outer views of the same work
(:data:`~repro.profiling.OVERLAY_STAGES`) and are listed below the
partition instead of inside it.  ``docs/performance.md`` walks through a
full example.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from repro import native
from repro.core import die_cache
from repro.core.config import AdcConfig
from repro.errors import ConfigurationError
from repro.evaluation.reporting import format_table
from repro.native import chain as native_chain
from repro.profiling import OVERLAY_STAGES, ProfileRecorder, StageStat, profiled
from repro.runtime.campaign import CampaignSpec, run_campaign
from repro.runtime.montecarlo import run_yield_analysis
from repro.schemas import PROFILE_REPORT_SCHEMA
from repro.technology.corners import Corner

#: The workloads ``repro profile`` can run.
WORKLOADS = ("dynamic-screen", "yield-screen", "pvt-campaign")

#: The grid of each campaign workload beyond dies and record length:
#: ``dynamic-screen`` is the nominal TT/27C point alone.
_CAMPAIGN_GRIDS = {
    "dynamic-screen": {"corners": (Corner.TT,), "temperatures_c": (27.0,)},
    "pvt-campaign": {},
}

#: The root stage the profiled run is wrapped in.
RUN_STAGE = "run"


@dataclass(frozen=True)
class ProfileReport:
    """Per-stage cost breakdown of one profiled workload run.

    Attributes:
        workload: the workload name (one of :data:`WORKLOADS`).
        n_items: cells (or dies) the workload measured.
        fft_points: record length per cell.
        wall_s: inclusive wall time of the whole run (the
            ``run/<workload>`` root entry).
        stats: the recorder's per-``(stage, phase)`` entries.
        stage_chain: what served the compiled library's three kernels
            (the stage chain of 1-D records, the stage-1 front end and
            the dense Gaussian draws): ``native`` or ``numpy: <reason>``.
    """

    workload: str
    n_items: int
    fft_points: int
    wall_s: float
    stats: tuple[StageStat, ...]
    stage_chain: str

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

    def render(self) -> str:
        """The textual breakdown, partition rows above overlay rows."""
        partition_rows = []
        overlay_rows = []
        for entry in self.stats:
            overlay = entry.stage in OVERLAY_STAGES
            row = (
                entry.stage,
                entry.phase or "-",
                str(entry.count),
                f"{entry.total_s * 1e3:.2f}",
                f"{entry.total_s / entry.count * 1e6:.1f}",
                "-" if overlay else f"{entry.self_s / self.wall_s * 100:.1f}",
            )
            (overlay_rows if overlay else partition_rows).append(row)
        noise = self.stage_share("noise-draw")
        return "\n".join(
            [
                format_table(
                    ("stage", "phase", "n", "total [ms]", "mean [us]", "%run"),
                    partition_rows + overlay_rows,
                    title=(
                        f"--- repro profile: {self.workload} "
                        f"({self.n_items} cells x {self.fft_points} samples, "
                        "%run sums to 100 over the partition; "
                        "dispatch/task overlay the stages above) ---"
                    ),
                ),
                "",
                f"run: {self.wall_s:.3f} s wall "
                f"({self.wall_s / self.n_items * 1e3:.1f} ms/cell), "
                f"{self.attributed_fraction() * 100:.0f}% attributed "
                f"to named stages, noise-draw share {noise * 100:.0f}%",
                f"stage chain: {self.stage_chain}",
            ]
        )

    def to_dict(self) -> dict:
        return {
            "schema": PROFILE_REPORT_SCHEMA,
            "workload": self.workload,
            "n_items": self.n_items,
            "fft_points": self.fft_points,
            "wall_s": self.wall_s,
            "item_wall_s": self.wall_s / self.n_items,
            "attributed_fraction": self.attributed_fraction(),
            "stage_shares": {
                stage: self.stage_share(stage)
                for stage in sorted(self.stage_totals())
                if stage not in OVERLAY_STAGES and stage != RUN_STAGE
            },
            "entries": [entry.to_dict() for entry in self.stats],
            "stage_chain": self.stage_chain,
        }


def profile_workload(
    workload: str,
    dies: int = 8,
    fft_points: int = 4096,
    config: AdcConfig | None = None,
) -> ProfileReport:
    """Profile one named workload.

    The workload runs once, through its user command's entry point and
    default engine — :func:`~repro.runtime.montecarlo.run_yield_analysis`
    on the ``pool`` engine for ``yield-screen`` (``repro mc``),
    :func:`~repro.runtime.campaign.run_campaign` on the ``vectorized``
    engine for the campaign workloads (``repro campaign``) — with one
    worker, a cold die cache and a fresh recorder under a
    ``run/<workload>`` root, so every stage timer stays in-process and
    the exclusive times partition the run exactly.  Profiling never
    touches a random stream, so the codes produced here are bit-exact
    with an unprofiled run.

    Args:
        workload: one of :data:`WORKLOADS`.
        dies: dies (cells) per operating point.
        fft_points: record length per cell.
        config: converter configuration (paper default when omitted).
    """
    if workload not in WORKLOADS:
        raise ConfigurationError(
            f"unknown profile workload '{workload}' "
            f"(choose from {', '.join(WORKLOADS)})"
        )
    if dies < 1:
        raise ConfigurationError(f"dies must be >= 1, got {dies}")
    config = config or AdcConfig.paper_default()
    if workload == "yield-screen":
        n_items = dies
        run = partial(
            run_yield_analysis,
            n_dies=dies,
            config=config,
            n_fft=fft_points,
            workers=1,
        )
    else:
        spec = CampaignSpec(
            n_dies=dies, n_samples=fft_points, **_CAMPAIGN_GRIDS[workload]
        )
        n_items = spec.n_cells
        run = partial(run_campaign, spec, config=config, workers=1)
    # Load and self-check the compiled library before the timer runs, so
    # its one-off check stays out of the profile, and start with a
    # cold die cache so the build/die rows count every die.
    native.preload()
    die_cache.clear()
    recorder = ProfileRecorder()
    with profiled(recorder):
        with recorder.record(RUN_STAGE, workload):
            run()
    return ProfileReport(
        workload=workload,
        n_items=n_items,
        fft_points=fft_points,
        wall_s=recorder.total_s(RUN_STAGE, workload),
        stats=tuple(recorder.stats()),
        stage_chain=native_chain.status(),
    )
