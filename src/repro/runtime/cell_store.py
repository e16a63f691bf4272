"""Content-addressed, on-disk store of completed campaign cells.

A campaign cell's metrics are a pure function of its physics identity:
the converter configuration (minus execution heuristics), the PVT
point, the die seed, and the bench settings — the exact values
:meth:`~repro.runtime.campaign.CampaignSpec.fingerprint` already
collects for the ledger.  The store keys each completed cell by the
SHA-256 of that identity, so any later campaign that shares a cell —
a re-run, a different shard split, a spec iterating on one corner —
resumes it with zero recomputation, across processes and grid shapes.

This is the persistent, cross-campaign complement of the process-local
:mod:`repro.core.die_cache`: the template cache skips the bias solve
and opamp designer setup of a PVT point within one process, the cell
store skips building, converting and analyzing the cell at all.  Grid
position (cell index, die position) is deliberately *not* part of the
key — the same (point, seed) cell at a different index in a different
grid is still the same physics — so ``get`` rebuilds the record under
the requesting campaign's indices.

Entries are one JSON file each under ``root/<key[:2]>/<key>.json``,
written atomically (temp file + ``os.replace``).  ``get``, ``put`` and
every sweep read an entry through :func:`read_entry`, the one rule for
a healthy entry; any other entry is a miss (the cell simply re-runs and
the entry is rewritten), a problem to ``verify``, unreadable to
``stats``, and never matched by a prune by campaign base.

Long-lived stores accumulate — every campaign iteration, every retired
converter configuration leaves its cells behind — so the store also
carries the hygiene surface ``repro cell-store`` exposes:
:meth:`CellStore.stats` (entry counts and bytes per campaign base),
:meth:`CellStore.verify` (integrity sweep; ``fix`` quarantines bad
entries under ``root/quarantine/`` instead of deleting evidence) and
:meth:`CellStore.prune` (drop entries by age or by campaign-base
digest).  Each entry records the SHA-256 of its campaign base (config
fingerprint + bench settings) as ``"base"`` so prune can target one
retired configuration; pre-hygiene entries without the field still hit.

Every sweep, and every ``get``/``put``, tolerates files vanishing
underneath it: a concurrent ``prune`` (or another process's verify
``--fix``) deleting an entry between listing and read degrades to a
cache miss / a skipped row, never a ``FileNotFoundError``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
from dataclasses import dataclass
from hashlib import sha256
from math import isfinite
from pathlib import Path

from repro.core.config import AdcConfig
from repro.errors import ConfigurationError
from repro.profiling import active
from repro.runtime.campaign import CampaignCell, CampaignSpec, CellMetrics, json_object
from repro.schemas import CELL_STORE_REPORT_SCHEMA, CELL_STORE_SCHEMA

#: Spec fields that shape a single cell's measurement (the bench
#: settings).  Grid-shape fields (corners, temperatures_c, n_dies,
#: die_seeds) are deliberately absent: the cell's own point and seed
#: enter the key per cell, so cells are shareable across grids.
_BENCH_FIELDS = (
    "conversion_rate",
    "input_frequency",
    "n_samples",
    "amplitude_fraction",
)


#: Subdirectory :meth:`CellStore.verify` moves damaged entries into.
QUARANTINE_DIR = "quarantine"

#: Metric fields every store entry must carry, each a finite float.
_METRIC_FIELDS = ("snr_db", "sndr_db", "sfdr_db", "enob_bits")


def _digest(payload: dict) -> str:
    return sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _around_cell(base: dict) -> tuple[bytes, bytes]:
    """What ``json.dumps({**base, "cell": c}, sort_keys=True)`` holds
    before and after the encoding of ``c``."""
    items = {
        key: f"{json.dumps(key)}: {json.dumps(value, sort_keys=True)}"
        for key, value in sorted(base.items())
        if key != "cell"
    }
    before = "".join(f"{item}, " for key, item in items.items() if key < "cell")
    after = "".join(f", {item}" for key, item in items.items() if key > "cell")
    return f'{{{before}"cell": '.encode(), f"{after}}}".encode()


def read_entry(path: Path) -> tuple[dict, int]:
    """The healthy entry at ``path`` and its size in bytes.

    Healthy: the bytes pass :func:`~repro.runtime.campaign.json_object`,
    and the object carries the store schema tag, the key its path
    demands and a finite number for every metric.

    Raises:
        OSError: the file cannot be read (a concurrent prune removed it).
        ValueError: saying why the entry is damaged.
    """
    raw = path.read_bytes()
    entry = json_object(raw)
    if entry.get("schema") != CELL_STORE_SCHEMA:
        raise ValueError(f"foreign schema {entry.get('schema')!r}")
    key = entry.get("key")
    if key != path.stem:
        raise ValueError(f"key {key!r} does not match the entry path")
    if path.parent.name != path.stem[:2]:
        raise ValueError("entry filed under the wrong prefix directory")
    metrics = entry.get("metrics")
    if not isinstance(metrics, dict):
        raise ValueError("entry carries no metrics object")
    for field in _METRIC_FIELDS:
        value = metrics.get(field)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ValueError(f"metric {field!r} missing or non-numeric")
        if not isfinite(value):
            raise ValueError(f"metric {field!r} is not finite")
    return entry, len(raw)


@dataclass(frozen=True)
class CellStoreStats:
    """One :meth:`CellStore.stats` sweep.

    Attributes:
        root: the store root directory.
        n_entries: healthy entries (:func:`read_entry`) in the store.
        total_bytes: bytes those entries occupy.
        campaigns: entry count per campaign-base digest; entries
            predating the ``base`` field group under ``"unknown"``.
        n_unreadable: entries :func:`read_entry` rejects, the ones
            :meth:`CellStore.verify` reports.
        n_quarantined: entries sitting in ``root/quarantine/``.
    """

    root: str
    n_entries: int
    total_bytes: int
    campaigns: dict[str, int]
    n_unreadable: int
    n_quarantined: int

    def to_dict(self) -> dict:
        return {
            "schema": CELL_STORE_REPORT_SCHEMA,
            "action": "stats",
            **dataclasses.asdict(self),
        }

    def render(self) -> str:
        lines = [
            f"cell store {self.root}: {self.n_entries} entr"
            f"{'y' if self.n_entries == 1 else 'ies'}, "
            f"{self.total_bytes} bytes"
        ]
        for base, count in sorted(self.campaigns.items()):
            lines.append(f"  campaign base {base}: {count} cell(s)")
        if self.n_unreadable:
            lines.append(
                f"  {self.n_unreadable} unreadable entr"
                f"{'y' if self.n_unreadable == 1 else 'ies'} "
                "(run 'repro cell-store verify')"
            )
        if self.n_quarantined:
            lines.append(f"  {self.n_quarantined} quarantined entr"
                         f"{'y' if self.n_quarantined == 1 else 'ies'}")
        return "\n".join(lines)


@dataclass(frozen=True)
class CellStoreProblem:
    """One damaged entry a :meth:`CellStore.verify` sweep found."""

    path: str
    reason: str
    quarantined: bool = False


@dataclass(frozen=True)
class CellStoreVerifyReport:
    """One :meth:`CellStore.verify` sweep: per-entry integrity verdicts."""

    root: str
    n_entries: int
    n_ok: int
    problems: tuple[CellStoreProblem, ...]
    fixed: bool

    @property
    def clean(self) -> bool:
        return not self.problems

    def to_dict(self) -> dict:
        return {
            "schema": CELL_STORE_REPORT_SCHEMA,
            "action": "verify",
            "root": self.root,
            "n_entries": self.n_entries,
            "n_ok": self.n_ok,
            "fixed": self.fixed,
            "problems": [
                dataclasses.asdict(problem) for problem in self.problems
            ],
        }

    def render(self) -> str:
        lines = [
            f"cell store {self.root}: {self.n_ok}/{self.n_entries} "
            "entries verified"
        ]
        for problem in self.problems:
            state = " [quarantined]" if problem.quarantined else ""
            lines.append(f"  BAD {problem.path}: {problem.reason}{state}")
        if self.clean:
            lines.append("store is clean")
        return "\n".join(lines)


@dataclass(frozen=True)
class CellStorePruneReport:
    """One :meth:`CellStore.prune` sweep: what was (or would be) removed."""

    root: str
    n_examined: int
    removed: tuple[str, ...]
    n_kept: int
    dry_run: bool
    max_age_s: float | None
    fingerprint: str | None

    def to_dict(self) -> dict:
        return {
            "schema": CELL_STORE_REPORT_SCHEMA,
            "action": "prune",
            "root": self.root,
            "n_examined": self.n_examined,
            "n_removed": len(self.removed),
            "removed": list(self.removed),
            "n_kept": self.n_kept,
            "dry_run": self.dry_run,
            "max_age_s": self.max_age_s,
            "fingerprint": self.fingerprint,
        }

    def render(self) -> str:
        verb = "would remove" if self.dry_run else "removed"
        return (
            f"cell store {self.root}: {verb} {len(self.removed)} of "
            f"{self.n_examined} entr"
            f"{'y' if self.n_examined == 1 else 'ies'} "
            f"({self.n_kept} kept)"
        )


class CellStore:
    """A store root directory; :meth:`bind` ties it to one campaign.

    The unbound store also carries the hygiene sweeps (:meth:`stats`,
    :meth:`verify`, :meth:`prune`) — they operate on whatever entries
    are on disk, across every campaign that ever wrote to the root.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)

    def bind(self, spec: CampaignSpec, config: AdcConfig) -> BoundCellStore:
        """The store scoped to one campaign's config and bench settings.

        Binding precomputes the key payload shared by every cell of the
        campaign from the same fingerprint the ledger uses, so per-cell
        lookups hash only the cell-varying part on top.
        """
        fingerprint = spec.fingerprint(config)
        base = {
            "config": fingerprint["config"],
            "bench": {
                field: fingerprint["spec"][field] for field in _BENCH_FIELDS
            },
        }
        return BoundCellStore(root=self.root, base=base)

    def entry_paths(self) -> list[Path]:
        """Entry files currently in the store, sorted for stable sweeps.

        A snapshot: files may vanish (concurrent prune) or appear
        (another campaign writing) before a sweep reaches them; every
        consumer tolerates both.
        """
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("[0-9a-f][0-9a-f]/*.json"))

    def stats(self) -> CellStoreStats:
        """Sweep the store: entry counts and bytes per campaign base."""
        n_entries = 0
        total_bytes = 0
        n_unreadable = 0
        campaigns: dict[str, int] = {}
        for path in self.entry_paths():
            try:
                entry, size = read_entry(path)
            except OSError:
                continue  # vanished mid-sweep: concurrent prune
            except ValueError:
                n_unreadable += 1
                continue
            n_entries += 1
            total_bytes += size
            base = str(entry.get("base", "unknown"))
            campaigns[base] = campaigns.get(base, 0) + 1
        quarantine = self.root / QUARANTINE_DIR
        n_quarantined = (
            sum(1 for _ in quarantine.glob("*.json"))
            if quarantine.is_dir()
            else 0
        )
        return CellStoreStats(
            root=str(self.root),
            n_entries=n_entries,
            total_bytes=total_bytes,
            campaigns=campaigns,
            n_unreadable=n_unreadable,
            n_quarantined=n_quarantined,
        )

    def verify(self, fix: bool = False) -> CellStoreVerifyReport:
        """Integrity-sweep every entry; ``fix`` quarantines bad ones.

        Checks each entry against :func:`read_entry`'s rule.  A bad
        entry is reported (never silently skipped); with ``fix`` it
        is moved to ``root/quarantine/`` — out of the lookup path, but
        preserved for diagnosis rather than deleted.  Entries another
        process deletes mid-sweep are skipped, not errors.
        """
        n_entries = 0
        problems: list[CellStoreProblem] = []
        for path in self.entry_paths():
            try:
                read_entry(path)
            except OSError:
                continue  # vanished mid-sweep: concurrent prune
            except ValueError as error:
                problems.append(
                    CellStoreProblem(
                        path=str(path),
                        reason=str(error),
                        quarantined=fix and self._quarantine(path),
                    )
                )
            n_entries += 1
        return CellStoreVerifyReport(
            root=str(self.root),
            n_entries=n_entries,
            n_ok=n_entries - len(problems),
            problems=tuple(problems),
            fixed=fix,
        )

    def prune(
        self,
        max_age_s: float | None = None,
        fingerprint: str | None = None,
        now: float | None = None,
        dry_run: bool = False,
    ) -> CellStorePruneReport:
        """Remove entries by age and/or by campaign-base digest.

        Args:
            max_age_s: remove entries whose file mtime is older than
                this many seconds before ``now``.
            fingerprint: remove healthy entries whose ``base`` digest
                equals this (a retired configuration's cells); entries
                predating the field, and damaged ones, never match.
            now: the reference timestamp for the age criterion (the CLI
                passes the wall clock; tests pin it).  Required with
                ``max_age_s``.
            dry_run: report what would be removed without touching disk.

        Raises:
            ConfigurationError: no criterion given, a negative
                ``max_age_s``, or ``max_age_s`` without ``now``.
        """
        if max_age_s is None and fingerprint is None:
            raise ConfigurationError(
                "prune needs a criterion: max_age_s and/or fingerprint"
            )
        if max_age_s is not None and max_age_s < 0:
            raise ConfigurationError(f"max_age_s must be >= 0, got {max_age_s}")
        if max_age_s is not None and now is None:
            raise ConfigurationError("prune by age needs 'now'")
        n_examined = 0
        removed: list[str] = []
        n_kept = 0
        for path in self.entry_paths():
            try:
                mtime = path.stat().st_mtime
            except OSError:
                continue  # vanished mid-sweep: concurrent prune
            n_examined += 1
            drop = False
            if max_age_s is not None:
                assert now is not None
                drop = now - mtime > max_age_s
            if not drop and fingerprint is not None:
                try:
                    drop = read_entry(path)[0].get("base") == fingerprint
                except (OSError, ValueError):
                    pass  # damaged or vanished: verify's business
            if not drop:
                n_kept += 1
                continue
            if not dry_run:
                try:
                    path.unlink()
                except FileNotFoundError:
                    pass  # another pruner won the race; same outcome
            removed.append(str(path))
        if not dry_run:
            self._drop_empty_prefix_dirs()
        return CellStorePruneReport(
            root=str(self.root),
            n_examined=n_examined,
            removed=tuple(removed),
            n_kept=n_kept,
            dry_run=dry_run,
            max_age_s=max_age_s,
            fingerprint=fingerprint,
        )

    def _quarantine(self, path: Path) -> bool:
        """Move one damaged entry out of the lookup path; True on success."""
        quarantine = self.root / QUARANTINE_DIR
        try:
            quarantine.mkdir(parents=True, exist_ok=True)
            os.replace(path, quarantine / path.name)
        except OSError:
            return False  # vanished or unwritable: nothing left to move
        return True

    def _drop_empty_prefix_dirs(self) -> None:
        """Best-effort removal of prefix dirs prune emptied."""
        if not self.root.is_dir():
            return
        for child in self.root.iterdir():
            if child.name == QUARANTINE_DIR or not child.is_dir():
                continue
            try:
                child.rmdir()
            except OSError:
                pass  # not empty, or a writer raced us back in


class BoundCellStore:
    """One campaign's view of the store: get/put by :class:`CampaignCell`."""

    def __init__(self, root: Path, base: dict):
        self.root = root
        self.base = base
        #: Digest of the campaign base (config + bench) alone — written
        #: into every entry so the hygiene sweeps can group and prune
        #: one campaign's cells without recomputing any per-cell key.
        self.base_digest = _digest(base)
        # A cell's key is _digest({**base, "cell": identity}): a fixed
        # head, the cell's JSON, a fixed tail.  The head is hashed once.
        head, self._tail = _around_cell(base)
        self._head = sha256(head)

    @staticmethod
    def _identity(cell: CampaignCell) -> dict:
        """The cell-varying part of the key (grid position excluded)."""
        return {
            "corner": cell.corner.value,
            "temperature_c": float(cell.temperature_c),
            "supply_scale": float(cell.supply_scale),
            "die_seed": int(cell.die_seed),
        }

    def _key(self, cell: CampaignCell) -> str:
        digest = self._head.copy()
        digest.update(json.dumps(self._identity(cell), sort_keys=True).encode())
        digest.update(self._tail)
        return digest.hexdigest()

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, cell: CampaignCell) -> CellMetrics | None:
        """The stored metrics for this cell's physics identity, or None.

        A hit rebuilds the record under the *requesting* campaign's
        grid index and die position.  Only a healthy entry
        (:func:`read_entry`) is a hit; a missing, damaged
        or mismatched one is a miss (the cell re-runs and overwrites it).
        """
        path = self._path(self._key(cell))
        try:
            metrics = read_entry(path)[0]["metrics"]
        except (OSError, ValueError):
            recorder = active()
            if recorder is not None:
                recorder.add("campaign", "cell-store-miss", 0.0)
            return None
        result = CellMetrics(
            index=cell.index,
            corner=cell.corner.value,
            temperature_c=cell.temperature_c,
            die_index=cell.die_index,
            seed=cell.die_seed,
            snr_db=float(metrics["snr_db"]),
            sndr_db=float(metrics["sndr_db"]),
            sfdr_db=float(metrics["sfdr_db"]),
            enob_bits=float(metrics["enob_bits"]),
        )
        recorder = active()
        if recorder is not None:
            recorder.add("campaign", "cell-store-hit", 0.0)
        return result

    def put(self, cell: CampaignCell, metrics: CellMetrics) -> None:
        """Store one completed cell (idempotent; atomic per entry).

        A healthy existing entry is kept; a damaged one
        (:func:`read_entry`) is overwritten.  Best-effort
        against concurrent hygiene: a prune that removes the prefix
        directory between our mkdir and the write is retried once;
        losing the race twice leaves the entry unwritten (the cell is
        simply recomputed next time), never raises.  Any other write
        error (a full disk, a denied permission) removes the temp file
        and propagates.
        """
        key = self._key(cell)
        path = self._path(key)
        try:
            read_entry(path)
            return
        except (OSError, ValueError):
            pass  # no entry yet, or a damaged one: write one
        entry = {
            "schema": CELL_STORE_SCHEMA,
            "key": key,
            "base": self.base_digest,
            "cell": self._identity(cell),
            "metrics": metrics.to_metrics(),
        }
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        payload = json.dumps(entry, sort_keys=True) + "\n"
        for attempt in range(2):
            try:
                path.parent.mkdir(parents=True, exist_ok=True)
                tmp.write_text(payload)
                os.replace(tmp, path)
            except FileNotFoundError:
                # A concurrent prune rmdir'ed the prefix directory
                # between mkdir and write/replace; retry once.
                if attempt:
                    return
                continue
            except OSError as error:
                # ENOSPC, EACCES, ...: the *.json sweeps never see a
                # temp file, so remove it before the error propagates.
                with contextlib.suppress(OSError):
                    tmp.unlink()
                raise OSError(error.errno, error.strerror, str(path)) from None
            return
