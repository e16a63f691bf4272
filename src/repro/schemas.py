"""The single source of truth for JSON artifact schema tags.

Every JSON document the package emits — batch results, campaign
ledgers, cell-store entries, profile reports, lint reports — carries a
``"schema"`` field so downstream consumers (CI artifact readers, the
resume path, the cell-store reader) can detect format drift.
Each tag is the string ``repro.<family>/v<N>``; bumping ``N`` is the
contract for a breaking document change.

This module is the only place a tag literal may be written.  Everything
else imports the constant, and the ``repro lint`` schema-registry
checker (invariant ``schema-single-source``) statically rejects any
``repro.*/vN`` string literal outside this file — so a family can
neither drift apart across emitters nor be defined at two versions at
once.

The module deliberately has zero dependencies (stdlib or internal), so
any layer — including the leaf :mod:`repro.profiling` — can import it
cycle-free.
"""

from __future__ import annotations

#: Serialized :class:`repro.runtime.batch.BatchResult` documents
#: (``repro mc --json``, experiment batches).  v2 dropped the
#: always-null ``root_seed`` key.
BATCH_RESULT_SCHEMA = "repro.batch-result/v2"

#: JSONL run ledgers and campaign reports
#: (:mod:`repro.runtime.campaign`).  v2 added the optional ``shard``
#: header (a campaign's cell range, for sharded runs), cell-index
#: validation on load, and the report's shard/cache fields.
CAMPAIGN_LEDGER_SCHEMA = "repro.campaign-ledger/v2"

#: Content-addressed cell-result store entries
#: (:mod:`repro.runtime.cell_store`): one completed campaign cell,
#: keyed by (config fingerprint, PVT point, die seed, bench settings).
#: Still v1: the optional ``base`` field (the campaign-base digest the
#: hygiene tooling prunes by) is additive — v1 readers ignore it and
#: entries without it stay valid.
CELL_STORE_SCHEMA = "repro.cell-store/v1"

#: Cell-store hygiene documents (``repro cell-store
#: stats|verify|prune --json``): one store sweep — entry counts and
#: sizes per campaign base, integrity problems (with quarantine
#: outcomes), or prune decisions.
CELL_STORE_REPORT_SCHEMA = "repro.cell-store-report/v1"

#: Dispatch reports (``repro campaign-dispatch --json``): the full
#: retry history of a gap-driven sharded campaign — per-range attempts
#: with exit codes, and the merged campaign document.  v2 dropped the
#: retry-backoff delays (retry rounds launch at once).
DISPATCH_REPORT_SCHEMA = "repro.dispatch-report/v2"

#: Per-stage profile reports of one workload run (``repro profile --json``).
#: v3 dropped the Gaussian fill's own status key: ``stage_chain`` names
#: what served the one compiled library, the fill included.
PROFILE_REPORT_SCHEMA = "repro.profile-report/v3"

#: Lint reports emitted by ``repro lint --json``
#: (:mod:`repro.analysis`).  v2 dropped the ``suppressed`` key with the
#: suppression file.
LINT_REPORT_SCHEMA = "repro.lint-report/v2"
