"""PVT sign-off campaigns with resumable run ledgers.

An IP-block sign-off is a grid: every process corner x every
temperature extreme x a die population, each cell a full dynamic
characterization.  The serial shape (the legacy ``ext-corners`` loop)
pays one :class:`~repro.evaluation.testbench.DynamicTestbench` — and
all its per-die Python dispatch — per cell.  This module makes the grid
a first-class batch workload:

* **Planning** — :class:`CampaignSpec` enumerates the (points x dies)
  grid via :func:`repro.technology.corners.pvt_grid`; each
  :class:`CampaignCell` is one (corner, temperature, die) triple with a
  ``SeedSequence``-derived die seed.
* **Execution** — cells dispatch through
  :class:`~repro.runtime.batch.EngineDispatch` (composable with
  ``workers``) in chunks of cells (one cell on the ``pool`` engine),
  mixing corners and temperatures freely inside one chunk.
  :func:`measure_cell_chunk` measures each cell of a chunk on its own:
  build the die, convert the tone, analyze the record.  Each cell's
  noise streams derive from its die seed alone
  (:func:`repro.streams.noise_generator`), so a cell's record is
  bit-identical with the serial :class:`DynamicTestbench` on the same
  (point, seed) — regardless of engine or worker count.
* **Checkpointing** — completed cells append to a JSONL run ledger as
  they finish; an interrupted campaign resumes from the ledger and
  recomputes nothing, and the resumed report is identical to a
  straight-through run.
* **Aggregation** — the grid collapses to a min/typ/max sign-off
  datasheet via :func:`repro.evaluation.datasheet.signoff_datasheet`.
"""

from __future__ import annotations

import dataclasses
import json
import os
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # import cycle: cell_store builds on this module
    from repro.runtime.cell_store import CellStore

from repro.core.config import FINGERPRINT_EXCLUDED, AdcConfig
from repro.core.die_cache import build_die
from repro.errors import ConfigurationError
from repro.evaluation.datasheet import Datasheet, signoff_datasheet
from repro.evaluation.reporting import format_table
from repro.evaluation.testbench import (
    NEAR_FULL_SCALE,
    DynamicTestbench,
    code_analyzer,
    coherent_tone,
)
from repro.profiling import profile_step
from repro.runtime.batch import (
    BatchResult,
    EngineDispatch,
    ProgressCallback,
    TaskOutcome,
    json_safe,
)
from repro.runtime.seeding import derive_seeds
from repro.schemas import CAMPAIGN_LEDGER_SCHEMA
from repro.technology.corners import Corner, OperatingPoint, pvt_grid
from repro.technology.montecarlo import ProcessSample

#: The industrial sign-off temperature set.
SIGNOFF_TEMPERATURES_C = (-40.0, 27.0, 125.0)


@dataclass(frozen=True)
class CampaignSpec:
    """The (corners x temperatures x dies) grid and its bench settings.

    A spec fully determines the campaign's cells (:meth:`cells`, in the
    shared :func:`~repro.technology.corners.pvt_grid` order) and its
    resume identity (:meth:`fingerprint` — what a ledger must match to
    be reused).  Execution choices — engine and workers — live
    outside the spec because they cannot change any cell's metrics.
    Under ``repro profile`` a task of cells appears as a
    ``task/measure-cell-chunk`` entry.

    Attributes:
        corners: process corners, grid-outermost.
        temperatures_c: junction temperatures [Celsius].
        n_dies: dies measured at every operating point.
        seed: root seed the per-die seeds derive from
            (``SeedSequence.spawn`` via :mod:`repro.runtime.seeding`,
            so die *d* is independent of the grid shape).
        die_seeds: explicit per-die seeds; overrides ``seed`` (the
            legacy single-die corner table pins ``(1,)``).
        supply_scale: shared supply multiplier for every point.
        conversion_rate: f_CR every cell is clocked at [Hz].
        input_frequency: test-tone target frequency [Hz].
        n_samples: coherent FFT record length per cell.
        amplitude_fraction: stimulus amplitude relative to full scale.
    """

    corners: tuple[Corner, ...] = tuple(Corner)
    temperatures_c: tuple[float, ...] = SIGNOFF_TEMPERATURES_C
    n_dies: int = 1
    seed: int = 2026
    die_seeds: tuple[int, ...] | None = None
    supply_scale: float = 1.0
    conversion_rate: float = 110e6
    input_frequency: float = 10e6
    n_samples: int = 4096
    amplitude_fraction: float = NEAR_FULL_SCALE

    def __post_init__(self) -> None:
        if not self.corners:
            raise ConfigurationError("campaign needs at least one corner")
        if not self.temperatures_c:
            raise ConfigurationError(
                "campaign needs at least one temperature"
            )
        if self.n_dies < 1:
            raise ConfigurationError("campaign needs at least one die")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")
        if self.die_seeds is not None:
            if len(self.die_seeds) != self.n_dies:
                raise ConfigurationError(
                    f"die_seeds must have one entry per die ({self.n_dies}), "
                    f"got {len(self.die_seeds)}"
                )
            if min(self.die_seeds) < 0:
                raise ConfigurationError(
                    f"die seeds must be >= 0, got {min(self.die_seeds)}"
                )
        if self.conversion_rate <= 0 or self.input_frequency <= 0:
            raise ConfigurationError("rate and frequency must be positive")
        if self.n_samples < 256:
            raise ConfigurationError("campaign needs >= 256 samples per cell")
        if not 0 < self.amplitude_fraction <= 1:
            raise ConfigurationError("amplitude fraction must be in (0, 1]")

    @property
    def n_points(self) -> int:
        return len(self.corners) * len(self.temperatures_c)

    @property
    def n_cells(self) -> int:
        return self.n_points * self.n_dies

    def resolved_die_seeds(self) -> tuple[int, ...]:
        """The per-die seeds (explicit, or spawned from the root)."""
        if self.die_seeds is not None:
            return self.die_seeds
        return tuple(derive_seeds(self.seed, self.n_dies))

    def points(self, technology=None) -> list[OperatingPoint]:
        """The corner-major operating-point enumeration of the grid."""
        return pvt_grid(
            technology=technology,
            corners=self.corners,
            temperatures_c=self.temperatures_c,
            supply_scale=self.supply_scale,
        )

    def cells(self) -> list[CampaignCell]:
        """The flattened grid, point-major then die-major.

        Cell order derives from :meth:`points` — the
        :func:`~repro.technology.corners.pvt_grid` enumeration — so
        every grid consumer shares one order authority.
        """
        seeds = self.resolved_die_seeds()
        return [
            CampaignCell(
                index=point_index * self.n_dies + die_index,
                corner=point.corner,
                temperature_c=point.temperature_c,
                die_index=die_index,
                die_seed=die_seed,
                supply_scale=self.supply_scale,
            )
            for point_index, point in enumerate(self.points())
            for die_index, die_seed in enumerate(seeds)
        ]

    def fingerprint(self, config: AdcConfig) -> dict:
        """Everything that determines a cell's metrics, JSON-ready.

        The ledger stores this so a resume against a different grid,
        bench setting or converter configuration is rejected instead of
        silently mixing incompatible cells.  Engine and worker count
        are deliberately absent — they do not change the
        results, so a campaign may resume on a different execution
        configuration.
        """
        spec = dataclasses.asdict(self)
        spec["die_seeds"] = list(self.resolved_die_seeds())
        del spec["seed"]
        config_dict = dataclasses.asdict(config)
        # FINGERPRINT_EXCLUDED is the single authority on which config
        # fields are execution heuristics rather than physics; each
        # entry carries its justification next to the dataclass.
        for excluded in FINGERPRINT_EXCLUDED:
            config_dict.pop(excluded, None)
        return {
            "spec": json_safe(spec),
            "config": json_safe(config_dict),
        }

    @classmethod
    def from_fingerprint(cls, fingerprint: dict) -> CampaignSpec:
        """Rebuild the spec a :meth:`fingerprint` was taken from.

        The rebuild round-trips: its fingerprint's spec part equals the
        input's.  The root ``seed`` is not recoverable (fingerprints
        store the resolved per-die seeds), so the rebuilt spec pins
        ``die_seeds`` explicitly.

        Raises:
            ConfigurationError: when the fingerprint lacks a readable
                campaign spec.
        """
        try:
            spec = dict(fingerprint["spec"])
            spec["corners"] = tuple(map(Corner, spec["corners"]))
            spec["temperatures_c"] = tuple(map(float, spec["temperatures_c"]))
            spec["die_seeds"] = tuple(map(int, spec["die_seeds"]))
            return cls(**spec)
        except (KeyError, TypeError, ValueError):
            raise ConfigurationError(
                "fingerprint does not carry a readable campaign spec; "
                "cannot reconstruct the campaign"
            ) from None

    def shard(self, index: int, count: int) -> tuple[int, int]:
        """Shard ``index`` of ``count``: its ``[start, stop)`` cell range.

        The grid splits into ``count`` contiguous, disjoint, covering
        cell ranges (balanced to within one cell, earlier shards take
        the extras).  A shard runs as ``run_campaign(spec,
        cell_range=...)`` on this same spec — and so with the same
        per-cell seeds — so running all shards and merging their
        ledgers (:func:`repro.runtime.shards.merge_campaign_ledgers`)
        reproduces the single-process campaign bit for bit.
        """
        if count < 1:
            raise ConfigurationError(
                f"shard count must be >= 1, got {count}"
            )
        if not 0 <= index < count:
            raise ConfigurationError(
                f"shard index must be in [0, {count}), got {index}"
            )
        if count > self.n_cells:
            raise ConfigurationError(
                f"cannot split {self.n_cells} cell(s) into {count} "
                "shards (each shard needs at least one cell)"
            )
        base, extra = divmod(self.n_cells, count)
        start = index * base + min(index, extra)
        stop = start + base + (1 if index < extra else 0)
        return (start, stop)

    def shards(self, count: int) -> tuple[tuple[int, int], ...]:
        """All ``count`` shard cell ranges of the grid, in cell order."""
        return tuple(self.shard(index, count) for index in range(count))


@dataclass(frozen=True)
class CampaignCell:
    """One (corner, temperature, die) grid cell.

    Attributes:
        index: position in the flattened grid (point-major).
        corner: the cell's process corner.
        temperature_c: the cell's junction temperature [Celsius].
        die_index: die position within the cell's operating point.
        die_seed: the die's mismatch/noise seed (replays the cell).
        supply_scale: supply multiplier of the cell's point.
    """

    index: int
    corner: Corner
    temperature_c: float
    die_index: int
    die_seed: int
    supply_scale: float = 1.0

    @property
    def cell_id(self) -> str:
        return (
            f"{self.corner.value}/{self.temperature_c:g}C/"
            f"die{self.die_index}"
        )

    def operating_point(self, technology) -> OperatingPoint:
        return OperatingPoint(
            technology=technology,
            corner=self.corner,
            temperature_c=self.temperature_c,
            supply_scale=self.supply_scale,
        )

    def process_sample(self, technology) -> ProcessSample:
        """The cell as a die realization."""
        return ProcessSample(
            operating_point=self.operating_point(technology),
            seed=self.die_seed,
            index=self.index,
        )


@dataclass(frozen=True)
class CellMetrics:
    """Measured dynamic metrics of one campaign cell.

    Engine-independent by the per-die stream contract: the same cell
    yields the same record from the serial testbench and from any
    chunk it lands in.
    """

    index: int
    corner: str
    temperature_c: float
    die_index: int
    seed: int
    snr_db: float
    sndr_db: float
    sfdr_db: float
    enob_bits: float

    @property
    def cell_id(self) -> str:
        return f"{self.corner}/{self.temperature_c:g}C/die{self.die_index}"

    def to_metrics(self) -> dict[str, float]:
        """Numeric summary fields (feeds ``BatchResult.summary``)."""
        return {
            "snr_db": self.snr_db,
            "sndr_db": self.sndr_db,
            "sfdr_db": self.sfdr_db,
            "enob_bits": self.enob_bits,
        }

    def to_record(self) -> dict:
        """JSON-ready ledger record."""
        return json_safe(dataclasses.asdict(self))

    @classmethod
    def from_record(cls, record: dict) -> "CellMetrics":
        return cls(
            index=int(record["index"]),
            corner=str(record["corner"]),
            temperature_c=float(record["temperature_c"]),
            die_index=int(record["die_index"]),
            seed=int(record["seed"]),
            snr_db=float(record["snr_db"]),
            sndr_db=float(record["sndr_db"]),
            sfdr_db=float(record["sfdr_db"]),
            enob_bits=float(record["enob_bits"]),
        )


@dataclass(frozen=True)
class CellTask:
    """A single cell through the serial testbench (the reference)."""

    cell: CampaignCell
    config: AdcConfig
    spec: CampaignSpec


@dataclass(frozen=True)
class CellChunkTask:
    """One worker's task: a chunk of cells, measured one by one."""

    cells: tuple[CampaignCell, ...]
    config: AdcConfig
    spec: CampaignSpec

    def __post_init__(self) -> None:
        if not self.cells:
            raise ConfigurationError("cell chunk must not be empty")


def _cell_metrics(cell: CampaignCell, metrics) -> CellMetrics:
    return CellMetrics(
        index=cell.index,
        corner=cell.corner.value,
        temperature_c=cell.temperature_c,
        die_index=cell.die_index,
        seed=cell.die_seed,
        snr_db=metrics.snr_db,
        sndr_db=metrics.sndr_db,
        sfdr_db=metrics.sfdr_db,
        enob_bits=metrics.enob_bits,
    )


@profile_step("task", "measure-cell")
def measure_cell(task: CellTask) -> CellMetrics:
    """Measure one cell with the serial :class:`DynamicTestbench`.

    The reference for :func:`measure_cell_chunk`, which must give the
    same record, cell for cell.
    """
    spec = task.spec
    bench = DynamicTestbench(
        task.config,
        n_samples=spec.n_samples,
        amplitude_fraction=spec.amplitude_fraction,
        die_seed=task.cell.die_seed,
        operating_point=task.cell.operating_point(task.config.technology),
    )
    metrics = bench.measure(spec.conversion_rate, spec.input_frequency)
    return _cell_metrics(task.cell, metrics)


@profile_step("task", "measure-cell-chunk")
def measure_cell_chunk(task: CellChunkTask) -> tuple[CellMetrics, ...]:
    """Measure a chunk of cells, one record per cell.

    The chunk's cells — mixed corners, temperatures and dies — each
    convert the tone on their own die and analyze the record alone; the
    tone and analyzer are built once per chunk and are the ones
    :meth:`DynamicTestbench.measure` uses.  All the chunk's dies are
    built before the first conversion: a die shares nothing with
    another, so the records are the same in either order, and the
    builds run back to back instead of each after a conversion has
    evicted their code and data from the CPU caches (about 2% of a
    ``signoff-grid`` benchmark job on a 2-CPU x86-64 container).
    Module-level and dependent only on ``task``, so it can run in any
    worker of any partition.
    """
    spec = task.spec
    config = task.config
    rate = spec.conversion_rate
    tone = coherent_tone(
        config,
        rate,
        spec.input_frequency,
        spec.n_samples,
        spec.amplitude_fraction,
    )
    analyzer = code_analyzer(config)
    dies = [
        build_die(
            config,
            rate,
            operating_point=cell.operating_point(config.technology),
            seed=cell.die_seed,
        )
        for cell in task.cells
    ]
    records = []
    for cell, adc in zip(task.cells, dies):
        capture = adc.convert(tone, spec.n_samples)
        records.append(_cell_metrics(cell, analyzer.analyze(capture.codes, rate)))
    return tuple(records)


@dataclass(frozen=True)
class LedgerContents:
    """One parsed, validated ledger: header fields plus the records.

    Attributes:
        fingerprint: the campaign fingerprint from the header.
        cell_range: the shard's ``[start, stop)`` cell range, or None
            for an unsharded (whole-grid) ledger.
        records: completed cells by grid index.
        torn_at: byte offset just past the last intact line's content
            when the file does not end there with a newline (a torn
            tail, or an unterminated last line); None for a clean file.
    """

    fingerprint: dict
    cell_range: tuple[int, int] | None
    records: dict[int, CellMetrics]
    torn_at: int | None


def json_object(raw: bytes) -> dict:
    """The JSON object in one durable record's bytes (a ledger line, a
    cell-store entry): strict UTF-8, then JSON, then an object, or a
    ``ValueError`` saying which failed."""
    try:
        text = raw.decode()
    except UnicodeDecodeError:
        raise ValueError("bytes that are not UTF-8") from None
    try:
        value = json.loads(text)
    except json.JSONDecodeError:
        raise ValueError("not valid JSON (truncated or corrupt)") from None
    if not isinstance(value, dict):
        raise ValueError("not a JSON object")
    return value


def _format_range(cell_range: tuple[int, int] | None) -> str:
    if cell_range is None:
        return "the whole grid"
    return f"cells [{cell_range[0]}, {cell_range[1]})"


class CampaignLedger:
    """JSONL checkpoint file of completed campaign cells.

    Line 1 is a header carrying the schema tag, the campaign
    fingerprint and — for sharded runs — the shard's cell range; every
    further line is one completed cell's record.  Appends are flushed
    *and fsynced* per batch, so a killed campaign loses at most the
    append batch in flight — and a truncated trailing line is tolerated
    on load (the cell simply re-runs).

    Loading validates every record: cell indices outside the campaign's
    range and duplicate indices raise
    :class:`~repro.errors.ConfigurationError` with the offending line
    number instead of silently corrupting the merged report.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)

    def start(
        self,
        fingerprint: dict,
        cell_range: tuple[int, int] | None = None,
    ) -> None:
        """Begin a fresh ledger (truncates any previous run).

        Args:
            fingerprint: the campaign fingerprint
                (:meth:`CampaignSpec.fingerprint`) — for a shard, the
                *parent* campaign's fingerprint, shared by every shard
                of the grid.
            cell_range: the shard's ``[start, stop)`` cell range; None
                for a whole-grid ledger.
        """
        header: dict = {
            "schema": CAMPAIGN_LEDGER_SCHEMA,
            "fingerprint": fingerprint,
        }
        if cell_range is not None:
            header["shard"] = {
                "start": int(cell_range[0]),
                "stop": int(cell_range[1]),
            }
        self._write("w", [json.dumps(header) + "\n"])

    def _write(self, mode: str, lines: Iterable[str]) -> None:
        """Write ``lines`` in ``mode``, flushed and fsynced; an
        ``OSError`` is re-raised naming the ledger."""
        try:
            with self.path.open(mode) as handle:
                handle.writelines(lines)
                handle.flush()
                os.fsync(handle.fileno())
        except OSError as error:
            raise OSError(error.errno, error.strerror, str(self.path)) from None

    def read(self) -> LedgerContents:
        """Parse and validate the ledger without a fingerprint to match.

        The merge path uses this directly (each shard carries its own
        copy of the parent fingerprint); :meth:`load` adds the
        fingerprint and shard-range checks a resume needs.

        The header and every record pass :func:`json_object`; a line
        that fails it (bytes that are not UTF-8 included) is a torn tail
        when it is the last line holding anything but ASCII whitespace,
        and corruption anywhere else.

        Raises:
            ConfigurationError: a file that cannot be read or is empty,
                an unreadable header, a foreign schema, an invalid shard
                range, a cell index outside the valid range, a duplicate
                cell index, or corruption that is not a torn tail.
        """
        try:
            data = self.path.read_bytes()
        except OSError as error:
            raise ConfigurationError(
                f"ledger {self.path} cannot be read: {error.strerror}"
            ) from None
        if not data:
            raise ConfigurationError(f"ledger {self.path} is empty")
        # Lines end at b"\n" alone, as the writer and the torn-tail cut
        # below count them.
        lines = data.removesuffix(b"\n").split(b"\n")
        try:
            header = json_object(lines[0])
        except ValueError as error:
            raise ConfigurationError(
                f"ledger {self.path} has an unreadable header: {error}"
            ) from None
        if header.get("schema") != CAMPAIGN_LEDGER_SCHEMA:
            raise ConfigurationError(
                f"ledger {self.path} has schema "
                f"{header.get('schema')!r}, expected "
                f"{CAMPAIGN_LEDGER_SCHEMA!r}"
            )
        fingerprint = header.get("fingerprint")
        if not isinstance(fingerprint, dict):
            raise ConfigurationError(
                f"ledger {self.path} header carries no fingerprint"
            )
        try:
            n_cells = CampaignSpec.from_fingerprint(fingerprint).n_cells
        except ConfigurationError as error:
            raise ConfigurationError(f"ledger {self.path}: {error}") from None
        cell_range = None
        shard = header.get("shard")
        if shard is not None:
            try:
                cell_range = (int(shard["start"]), int(shard["stop"]))
            except (KeyError, TypeError, ValueError):
                raise ConfigurationError(
                    f"ledger {self.path} has an unreadable shard header: "
                    f"{shard!r}"
                ) from None
            low, high = cell_range
            if not 0 <= low < high <= n_cells:
                raise ConfigurationError(
                    f"ledger {self.path} declares shard cells "
                    f"[{low}, {high}) outside the campaign grid "
                    f"[0, {n_cells})"
                )
        low, high = cell_range if cell_range is not None else (0, n_cells)
        # Index (0-based) of the last line holding anything but ASCII
        # whitespace: only that line — the possible remains of an
        # interrupted append — is torn-tail tolerated.
        last_content = max(
            (i for i, line in enumerate(lines) if line.strip()), default=0
        )
        records: dict[int, CellMetrics] = {}
        torn = False
        for position, line in enumerate(lines[1:], start=2):
            if not line.strip():
                continue
            try:
                metrics = CellMetrics.from_record(json_object(line))
            except (KeyError, TypeError, ValueError):
                if position - 1 == last_content:
                    # Interrupted mid-append: drop the torn tail (and
                    # any trailing blank lines after it), the cell
                    # re-runs on resume.
                    torn = True
                    continue
                raise ConfigurationError(
                    f"ledger {self.path} line {position} is corrupt"
                ) from None
            if not low <= metrics.index < high:
                raise ConfigurationError(
                    f"ledger {self.path} line {position}: cell index "
                    f"{metrics.index} outside [{low}, {high})"
                )
            if metrics.index in records:
                raise ConfigurationError(
                    f"ledger {self.path} line {position}: duplicate "
                    f"cell index {metrics.index}"
                )
            records[metrics.index] = metrics
        # The header and records end where the torn line (if any) and
        # trailing blanks begin; a resuming writer cuts the rest.
        intact = data.rstrip()
        if torn:
            intact = intact[: intact.rfind(b"\n")].rstrip()
        return LedgerContents(
            fingerprint=fingerprint,
            cell_range=cell_range,
            records=records,
            torn_at=None if data == intact + b"\n" else len(intact),
        )

    def load(
        self,
        fingerprint: dict,
        cell_range: tuple[int, int] | None = None,
    ) -> dict[int, CellMetrics]:
        """Completed cells of a previous run, readied for appending.

        The resume path: after the checks, a torn tail is cut and the
        last intact line terminated, so the resumed run's appends start
        on a line of their own (appending after a torn fragment would
        corrupt the next read).  :meth:`read` never writes.

        Args:
            fingerprint: the expected campaign fingerprint.
            cell_range: the expected shard cell range (None for a
                whole-grid run); a ledger covering a different range is
                rejected.

        Raises:
            ConfigurationError: when the ledger belongs to a different
                campaign (schema or fingerprint mismatch), covers a
                different cell range, holds invalid records, or the
                header is unreadable.
        """
        contents = self.read()
        if contents.fingerprint != fingerprint:
            raise ConfigurationError(
                f"ledger {self.path} was written by a different campaign "
                "(grid, bench settings or converter configuration "
                "differ); refusing to resume"
            )
        if contents.cell_range != cell_range:
            raise ConfigurationError(
                f"ledger {self.path} covers "
                f"{_format_range(contents.cell_range)}, expected "
                f"{_format_range(cell_range)}; refusing to resume"
            )
        if contents.torn_at is not None:
            os.truncate(self.path, contents.torn_at)
            self._write("a", ["\n"])
        return contents.records

    def record(self, cells: Iterable[CellMetrics]) -> None:
        """Append completed cells (one JSON line each, flushed+fsynced).

        The batch is forced to stable storage before returning, so a
        killed campaign loses at most the batch being written.
        """
        self._write("a", (json.dumps(cell.to_record()) + "\n" for cell in cells))

    def write(self, fingerprint: dict, records: dict[int, CellMetrics]) -> None:
        """Write ``records`` as a fresh, resumable whole-grid ledger."""
        self.start(fingerprint)
        self.record(records[index] for index in sorted(records))


@dataclass(frozen=True)
class CampaignReport:
    """A sign-off campaign run: per-cell metrics plus the rollup.

    Attributes:
        spec: the grid and bench settings.
        cells: completed cells, in grid order (ledger-resumed cells
            merged with freshly measured ones).
        batch: the underlying batch result of the *fresh* cells.
        engine: execution engine ("pool", "vectorized" or "merged");
            per-cell metrics are engine-independent.
        resumed_cells: how many cells came from the ledger.
        cell_range: the shard's ``[start, stop)`` cell range; None for
            a whole-grid run.  Completeness is judged against this
            range, so a shard report can be complete without covering
            the grid.
        cached_cells: how many cells came from the content-addressed
            cell store (a subset of neither ``resumed_cells`` nor the
            fresh batch).
    """

    spec: CampaignSpec
    cells: tuple[CellMetrics, ...]
    batch: BatchResult
    engine: str = "vectorized"
    resumed_cells: int = 0
    cell_range: tuple[int, int] | None = None
    cached_cells: int = 0

    @classmethod
    def from_records(
        cls, spec: CampaignSpec, records: dict[int, CellMetrics]
    ) -> CampaignReport:
        """A ``"merged"`` report assembled from already-measured cells.

        The shared exit of every path that reunites cells measured
        elsewhere — ledger merging (:func:`repro.runtime.shards.
        merge_campaign_ledgers`) and the gap-driven dispatcher
        (:class:`repro.runtime.dispatcher.CampaignDispatcher`).  The
        batch is empty (nothing ran here) and every cell counts as
        resumed; completeness is judged against the whole grid.
        """
        cells = tuple(records[index] for index in sorted(records))
        return cls(
            spec=spec,
            cells=cells,
            batch=BatchResult(
                outcomes=(), workers=1, chunk_size=1, elapsed_s=0.0
            ),
            engine="merged",
            resumed_cells=len(cells),
        )

    @property
    def n_cells(self) -> int:
        """Cells this report is responsible for (shard-aware)."""
        if self.cell_range is not None:
            return self.cell_range[1] - self.cell_range[0]
        return self.spec.n_cells

    @property
    def expected_indices(self) -> range:
        """The grid indices this report must cover to be complete."""
        if self.cell_range is not None:
            return range(self.cell_range[0], self.cell_range[1])
        return range(self.spec.n_cells)

    def missing_cell_indices(self) -> tuple[int, ...]:
        """Expected grid indices with no completed cell, sorted."""
        present = {cell.index for cell in self.cells}
        return tuple(
            index for index in self.expected_indices
            if index not in present
        )

    @property
    def complete(self) -> bool:
        return not self.missing_cell_indices() and not self.batch.failures

    @property
    def failures(self) -> tuple[TaskOutcome, ...]:
        return self.batch.failures

    def worst_cell(self) -> CellMetrics:
        """The grid's worst cell by SNDR — the sign-off limiter."""
        if not self.cells:
            raise ConfigurationError("campaign measured no cells")
        return min(self.cells, key=lambda cell: cell.sndr_db)

    def signoff(self) -> Datasheet:
        """Min/typ/max electrical characteristics over the whole grid."""
        if not self.cells:
            raise ConfigurationError("campaign measured no cells")
        fin_mhz = self.spec.input_frequency / 1e6
        conditions = (
            f"{len(self.spec.corners)} corners x "
            f"{len(self.spec.temperatures_c)} temperatures x "
            f"{self.spec.n_dies} dies, f_in = {fin_mhz:.0f} MHz"
        )
        return signoff_datasheet(
            {
                f"SNR (f_in={fin_mhz:.0f}MHz)": (
                    "dB",
                    [c.snr_db for c in self.cells],
                ),
                f"SNDR (f_in={fin_mhz:.0f}MHz)": (
                    "dB",
                    [c.sndr_db for c in self.cells],
                ),
                f"SFDR (f_in={fin_mhz:.0f}MHz)": (
                    "dB",
                    [c.sfdr_db for c in self.cells],
                ),
                "ENOB": ("bit", [c.enob_bits for c in self.cells]),
            },
            n_population=len(self.cells),
            conversion_rate=self.spec.conversion_rate,
            conditions=conditions,
            population="cells",
        )

    def corner_rows(self) -> list[tuple]:
        """Per-point rollup rows: worst die at every (corner, T)."""
        rows = []
        for corner in self.spec.corners:
            for temperature in self.spec.temperatures_c:
                group = [
                    cell
                    for cell in self.cells
                    if cell.corner == corner.value
                    and cell.temperature_c == float(temperature)
                ]
                if not group:
                    continue
                worst = min(group, key=lambda cell: cell.sndr_db)
                rows.append(
                    (
                        corner.value.upper(),
                        f"{temperature:g}",
                        f"{min(c.snr_db for c in group):.1f}",
                        f"{worst.sndr_db:.1f}",
                        f"{min(c.enob_bits for c in group):.2f}",
                    )
                )
        return rows

    def render(self) -> str:
        """Full textual sign-off report."""
        lines = [
            format_table(
                ("corner", "T [C]", "SNR [dB]", "SNDR [dB]", "ENOB"),
                self.corner_rows(),
                title=(
                    f"--- PVT campaign: {len(self.cells)}/{self.n_cells} "
                    f"cells at "
                    f"{self.spec.conversion_rate / 1e6:.0f} MS/s "
                    f"(worst die per point) ---"
                ),
            ),
            "",
            self.signoff().render(),
            "",
        ]
        worst = self.worst_cell()
        lines.append(
            f"worst cell: {worst.cell_id} at {worst.sndr_db:.1f} dB SNDR "
            f"({worst.enob_bits:.2f} ENOB)"
        )
        for failure in self.batch.failures:
            lines.append(
                f"cell {failure.index} CRASHED: "
                f"{failure.error_type}: {failure.error}"
            )
        missing = self.missing_cell_indices()
        if missing:
            listed = ", ".join(str(index) for index in missing)
            lines.append(
                f"INCOMPLETE: {len(missing)} cell(s) missing "
                f"(indices {listed})"
            )
        resumed = (
            f" {self.resumed_cells} cell(s) resumed from ledger,"
            if self.resumed_cells
            else ""
        )
        cached = (
            f" {self.cached_cells} cell(s) from cell store,"
            if self.cached_cells
            else ""
        )
        shard = (
            f" cells [{self.cell_range[0]}, {self.cell_range[1]}) of "
            f"{self.spec.n_cells},"
            if self.cell_range is not None
            else ""
        )
        lines.append(
            f"campaign: {self.engine} engine,{shard}{resumed}"
            f"{cached} {self.batch.workers} worker(s), "
            f"{self.batch.elapsed_s:.2f} s"
        )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "schema": CAMPAIGN_LEDGER_SCHEMA,
            "engine": self.engine,
            "spec": json_safe(dataclasses.asdict(self.spec)),
            "n_cells": self.n_cells,
            "n_complete": len(self.cells),
            "cell_range": (
                list(self.cell_range)
                if self.cell_range is not None
                else None
            ),
            "missing_cells": list(self.missing_cell_indices()),
            "resumed_cells": self.resumed_cells,
            "cached_cells": self.cached_cells,
            "n_failures": len(self.batch.failures),
            "elapsed_s": self.batch.elapsed_s,
            "workers": self.batch.workers,
            "cells": [cell.to_record() for cell in self.cells],
            "signoff": {
                line.parameter: {
                    "unit": line.unit,
                    "min": line.minimum,
                    "typ": line.typical,
                    "max": line.maximum,
                }
                for line in self.signoff().lines
            }
            if self.cells
            else {},
        }


def run_campaign(
    spec: CampaignSpec | None = None,
    config: AdcConfig | None = None,
    engine: str = "vectorized",
    ledger_path: str | Path | None = None,
    resume: bool = False,
    workers: int | None = 1,
    progress: ProgressCallback | None = None,
    cell_range: tuple[int, int] | None = None,
    cell_store: "CellStore | str | Path | None" = None,
) -> CampaignReport:
    """Run (or resume) a PVT sign-off campaign.

    Args:
        spec: the grid and bench settings (default sign-off grid).
        config: converter configuration (paper default when omitted).
        engine: ``"pool"`` measures one cell per task;
            ``"vectorized"`` splits the cells evenly across the workers,
            at most :data:`~repro.runtime.batch.DEFAULT_CHUNK` per
            task.  The ledger appends and fsyncs once per task.  Both
            run :func:`measure_cell_chunk`, so per-cell records are
            bit-identical across engines and worker counts.
        ledger_path: JSONL checkpoint file.  Completed cells append as
            they finish; with ``resume`` an existing ledger's cells are
            reused instead of recomputed.  Omitted: no checkpointing.
        resume: reuse a matching existing ledger at ``ledger_path``
            (fingerprint-checked) instead of starting fresh.
        workers: worker processes (1 = serial, None = all CPUs).
        progress: progress callback, once per task.
        cell_range: run only grid cells ``[start, stop)`` — a shard of
            the campaign (usually planned by
            :meth:`CampaignSpec.shard`).  The ledger header records
            the range, and the report's completeness is judged against
            it.
        cell_store: content-addressed cell-result store (a
            :class:`~repro.runtime.cell_store.CellStore` or its root
            directory).  Cells whose physics identity — config
            fingerprint, PVT point, die seed, bench settings — already
            has an entry are served from the store with zero
            recomputation; fresh results are written back.

    Returns:
        The :class:`CampaignReport`; crashed cells land in
        ``report.failures`` (and are absent from the ledger, so a
        resume retries them).
    """
    spec = spec or CampaignSpec()
    config = config or AdcConfig.paper_default()
    dispatch = EngineDispatch(engine=engine, workers=workers)
    cells = spec.cells()
    if cell_range is not None:
        start, stop = cell_range
        if not 0 <= start < stop <= spec.n_cells:
            raise ConfigurationError(
                f"cell_range [{start}, {stop}) is not a non-empty "
                f"subrange of the campaign grid [0, {spec.n_cells})"
            )
        cell_range = (int(start), int(stop))
        cells = cells[start:stop]
    fingerprint = spec.fingerprint(config)
    ledger: CampaignLedger | None = None
    completed: dict[int, CellMetrics] = {}
    if ledger_path is not None:
        ledger = CampaignLedger(ledger_path)
        if resume and ledger.path.exists():
            completed = ledger.load(fingerprint, cell_range)
        else:
            ledger.start(fingerprint, cell_range)
    store = None
    cached: dict[int, CellMetrics] = {}
    if cell_store is not None:
        from repro.runtime.cell_store import CellStore

        store = (
            cell_store
            if isinstance(cell_store, CellStore)
            else CellStore(cell_store)
        ).bind(spec, config)
        for cell in cells:
            metrics = completed.get(cell.index)
            if metrics is not None:
                # Ledger-resumed cells back-fill the store so later
                # campaigns sharing them hit it even without this ledger.
                store.put(cell, metrics)
                continue
            metrics = store.get(cell)
            if metrics is not None:
                cached[cell.index] = metrics
        if ledger is not None and cached:
            ledger.record(
                cached[index] for index in sorted(cached)
            )
    pending = [
        cell
        for cell in cells
        if cell.index not in completed and cell.index not in cached
    ]

    def checkpoint(update) -> None:
        outcome = update.latest
        if outcome is not None and outcome.ok:
            fresh = outcome.value
            if ledger is not None:
                ledger.record(fresh)
            if store is not None:
                for metrics in fresh:
                    store.put(cell_by_index[metrics.index], metrics)
        if progress is not None:
            progress(update)

    cell_by_index = {cell.index: cell for cell in cells}

    batch = dispatch.run(
        pending,
        measure_cell_chunk,
        lambda chunk: CellChunkTask(cells=chunk, config=config, spec=spec),
        index_of=lambda cell: cell.index,
        seed_of=lambda cell: cell.die_seed,
        progress=checkpoint,
    )
    merged = dict(completed)
    merged.update(cached)
    for outcome in batch.outcomes:
        if outcome.ok:
            merged[outcome.index] = outcome.value
    return CampaignReport(
        spec=spec,
        cells=tuple(merged[index] for index in sorted(merged)),
        batch=batch,
        engine=engine,
        resumed_cells=len(completed),
        cell_range=cell_range,
        cached_cells=len(cached),
    )
