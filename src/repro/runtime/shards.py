"""Sharded campaigns: split one sign-off grid across processes.

A shard is a contiguous ``[start, stop)`` slice of a campaign's cell
enumeration, planned by :meth:`CampaignSpec.shard` and run as
``run_campaign(spec, cell_range=(start, stop))`` on the parent spec —
so every shard keeps the per-cell die seeds and the campaign
fingerprint.  Each shard writes its own ledger (the header records the
parent fingerprint plus the shard's cell range), in its own process or
on its own machine; nothing coordinates at runtime.  Afterwards
:func:`merge_campaign_ledgers` turns the shard ledgers back into one
:class:`CampaignReport`, and the dispatcher gathers its work directory
the same way — both through :func:`union_ledgers`, the one place the
merge rules live:

* every ledger must carry the *same* campaign fingerprint — a shard of
  a different grid, bench setting or converter configuration is
  rejected, not mixed in;
* overlapping cells are tolerated only when the records are identical
  (two shards that legitimately recomputed the same cell agree bit for
  bit by the engine-invariance contract); conflicting records are an
  error naming the cell and both ledgers;
* gaps are not an error — the merged report is simply incomplete and
  lists the missing cell indices, so a scheduler can re-dispatch them.

Because per-cell metrics are bit-exact across engines, chunkings and
worker counts, the merged report's cells are bit-identical to the
single-process campaign over the same grid.
"""

from __future__ import annotations

from collections.abc import Iterable
from pathlib import Path

from repro.errors import ConfigurationError
from repro.runtime.campaign import (
    CampaignLedger,
    CampaignReport,
    CampaignSpec,
    CellMetrics,
    LedgerContents,
)


def coalesce_cell_ranges(
    indices: Iterable[int],
) -> tuple[tuple[int, int], ...]:
    """Collapse cell indices into minimal contiguous ``[start, stop)`` runs.

    The dispatcher's retry unit: ``missing_cell_indices()`` comes back
    as individual cells, but a re-dispatched shard takes a contiguous
    ``--cell-range`` — so adjacent gaps fuse into one range and each
    isolated cell becomes a singleton range.  Input order and
    duplicates do not matter; the output is sorted and disjoint.

    >>> coalesce_cell_ranges([3, 4, 5, 9, 11, 12])
    ((3, 6), (9, 10), (11, 13))
    """
    unique = sorted(set(int(index) for index in indices))
    if unique and unique[0] < 0:
        raise ConfigurationError(f"cell indices must be >= 0, got {unique[0]}")
    ranges: list[tuple[int, int]] = []
    for index in unique:
        if ranges and index == ranges[-1][1]:
            ranges[-1] = (ranges[-1][0], index + 1)
        else:
            ranges.append((index, index + 1))
    return tuple(ranges)


def union_ledgers(
    ledgers: Iterable[tuple[Path, LedgerContents]],
) -> tuple[dict | None, dict[int, CellMetrics]]:
    """The union of already-read ledgers: their fingerprint and cells.

    Every ledger must carry the first one's campaign fingerprint, and a
    cell held by several ledgers must hold identical records there.

    Returns:
        ``(fingerprint, records)``; the fingerprint is None when no
        ledger was given.

    Raises:
        ConfigurationError: a ledger from a different campaign, or
            conflicting records for one cell — each naming both files.
    """
    first: Path | None = None
    fingerprint: dict | None = None
    records: dict[int, CellMetrics] = {}
    source: dict[int, Path] = {}
    for path, contents in ledgers:
        if first is None:
            first, fingerprint = path, contents.fingerprint
        elif contents.fingerprint != fingerprint:
            raise ConfigurationError(
                f"shard ledger {path} was written by a different "
                f"campaign than {first}; refusing to merge"
            )
        for index, metrics in contents.records.items():
            held = records.get(index)
            if held is None:
                records[index] = metrics
                source[index] = path
            elif held != metrics:
                raise ConfigurationError(
                    f"shard ledgers disagree on cell {index}: "
                    f"{source[index]} and {path} hold conflicting "
                    "records"
                )
    return fingerprint, records


def merge_campaign_ledgers(
    paths: Iterable[str | Path], out_ledger: str | Path | None = None
) -> CampaignReport:
    """Merge shard ledgers into one campaign-wide report.

    Args:
        paths: the shard ledger files (any order; whole-grid ledgers
            merge too).
        out_ledger: when given, also write the merged cells as a fresh
            whole-grid ledger there — resumable by the unsharded
            campaign.

    Returns:
        A :class:`CampaignReport` with ``engine="merged"`` over the
        union of the shards' cells.  Gaps leave the report incomplete
        (``report.missing_cell_indices()`` lists them); cells
        bit-identical to the single-process run.

    Raises:
        ConfigurationError: no ledgers, a ledger from a different
            campaign, conflicting records for one cell, or any
            per-ledger validation failure
            (:meth:`CampaignLedger.read`).
    """
    paths = [Path(path) for path in paths]
    if not paths:
        raise ConfigurationError("no shard ledgers to merge")
    fingerprint, records = union_ledgers(
        (path, CampaignLedger(path).read()) for path in paths
    )
    assert fingerprint is not None
    if out_ledger is not None:
        CampaignLedger(out_ledger).write(fingerprint, records)
    return CampaignReport.from_records(
        CampaignSpec.from_fingerprint(fingerprint), records
    )


__all__ = [
    "coalesce_cell_ranges",
    "merge_campaign_ledgers",
    "union_ledgers",
]
