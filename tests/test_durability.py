"""State-machine test of the durable formats' fault model (hypothesis).

Shard ledgers and a cell store take writes interleaved with the faults
in scope — a cut at any byte, arbitrary bytes appended or written over
a file, a torn append, a truncated entry, a non-finite metric, a full
disk or a denied write — and every read stays true to what was written: a ledger read
returns a subset of the records a writer began, with equal values, or
raises :class:`~repro.errors.ConfigurationError`; a store lookup serves
exactly the healthy entries; a failed write raises ``OSError`` naming
the file; and no sweep raises.  The records are synthetic
:class:`CellMetrics`: nothing is converted.
"""

import errno
import json
import math
import os
import shutil
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.config import AdcConfig
from repro.errors import ConfigurationError
from repro.runtime.campaign import CampaignLedger, CampaignSpec, CellMetrics
from repro.runtime.cell_store import CellStore
from repro.runtime.shards import coalesce_cell_ranges, union_ledgers
from repro.technology.corners import Corner

SPEC = CampaignSpec(
    corners=(Corner.TT, Corner.SS),
    temperatures_c=(27.0, 125.0),
    n_dies=2,
    seed=7,
    n_samples=512,
)
CONFIG = AdcConfig.paper_default()
FINGERPRINT = SPEC.fingerprint(CONFIG)
CELLS = SPEC.cells()
SHARDS = ((0, 4), (4, 8))
METRIC_FIELDS = ("snr_db", "sndr_db", "sfdr_db", "enob_bits")

finite = st.floats(allow_nan=False, allow_infinity=False)
metric_values = st.tuples(finite, finite, finite, finite)
# Disk garbage: raw bytes, or runs of the pieces a ledger's line rules
# turn on (ASCII and other whitespace, bytes that are not UTF-8, JSON
# that is not a record).
tails = st.one_of(
    st.binary(max_size=48),
    st.lists(
        st.sampled_from(
            [b"\n", b" ", b"\t", b"\r", b"\x1c", b"\xff", b"5", b'{"index": 0}']
        ),
        max_size=8,
    ).map(b"".join),
)


def synthetic(index: int, values: tuple[float, ...]) -> CellMetrics:
    cell = CELLS[index]
    return CellMetrics(
        index=index,
        corner=cell.corner.value,
        temperature_c=cell.temperature_c,
        die_index=cell.die_index,
        seed=cell.die_seed,
        **dict(zip(METRIC_FIELDS, values)),
    )


#: The errnos a failed write raises: a full disk, a denied write.
write_errors = st.sampled_from([errno.ENOSPC, errno.EACCES])


def failing(code: int) -> OSError:
    """The error a write syscall raises with ``code``."""
    return OSError(code, os.strerror(code))


def shard_of(index: int) -> tuple[int, int]:
    return next(shard for shard in SHARDS if shard[0] <= index < shard[1])


class DurableFormats(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.tmp = Path(tempfile.mkdtemp(prefix="repro-durability-"))
        self.ledgers = {
            shard: CampaignLedger(self.tmp / f"shard-{shard[0]}.jsonl")
            for shard in SHARDS
        }
        # Every record a writer began to append since the last start.
        self.attempted: dict = {shard: {} for shard in SHARDS}
        # The exact records while the file is as its writer left it;
        # None once a fault hit it (or before the first start).
        self.durable: dict = {shard: None for shard in SHARDS}
        self.store = CellStore(self.tmp / "store")
        self.bound = self.store.bind(SPEC, CONFIG)
        self.paths: dict[int, Path] = {}  # cell index -> its entry file
        self.healthy: dict[int, CellMetrics] = {}
        self.damaged: set[int] = set()

    def teardown(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    # --- ledger rules ----------------------------------------------------

    @rule(shard=st.sampled_from(SHARDS))
    def start(self, shard):
        self.ledgers[shard].start(FINGERPRINT, shard)
        self.attempted[shard] = {}
        self.durable[shard] = {}

    def _next_record(self, shard, data) -> CellMetrics | None:
        """A record for a cell the ledger lacks; a cell re-run after a
        fault gives the record it gave before."""
        held = self.durable[shard] or {}
        free = [index for index in range(*shard) if index not in held]
        if not free:
            return None
        index = data.draw(st.sampled_from(free))
        if index not in self.attempted[shard]:
            self.attempted[shard][index] = synthetic(
                index, data.draw(metric_values)
            )
        return self.attempted[shard][index]

    @rule(shard=st.sampled_from(SHARDS), data=st.data(), size=st.integers(1, 3))
    def record(self, shard, data, size):
        if self.durable[shard] is None:
            return  # only a writer whose file is intact appends
        batch = {}
        for _ in range(size):
            metrics = self._next_record(shard, data)
            if metrics is not None and metrics.index not in batch:
                batch[metrics.index] = metrics
                self.durable[shard][metrics.index] = metrics
        self.ledgers[shard].record(batch.values())

    @rule(shard=st.sampled_from(SHARDS), data=st.data(), code=write_errors)
    def record_on_a_full_disk(self, shard, data, code):
        ledger = self.ledgers[shard]
        if self.durable[shard] is None:
            return
        metrics = self._next_record(shard, data)
        if metrics is None:
            return
        with mock.patch.object(os, "fsync", side_effect=failing(code)):
            try:
                ledger.record([metrics])
            except OSError as error:
                assert error.errno == code
                assert error.filename == str(ledger.path)
            else:
                raise AssertionError("a failed fsync must propagate")
        self.durable[shard] = None  # the line may or may not be durable

    @rule(shard=st.sampled_from(SHARDS), data=st.data())
    def torn_append(self, shard, data):
        path = self.ledgers[shard].path
        if self.durable[shard] is None:
            return
        metrics = self._next_record(shard, data)
        if metrics is None:
            return
        line = (json.dumps(metrics.to_record()) + "\n").encode()
        with path.open("ab") as handle:
            handle.write(line[: data.draw(st.integers(0, len(line) - 1))])
        self.durable[shard] = None

    @rule(shard=st.sampled_from(SHARDS), data=st.data())
    def cut(self, shard, data):
        path = self.ledgers[shard].path
        if path.exists():
            # Drawn as the bytes lost from the end, so that most cuts
            # land in the records rather than in the long header.
            size = path.stat().st_size
            os.truncate(path, size - data.draw(st.integers(0, size)))
            self.durable[shard] = None

    @rule(shard=st.sampled_from(SHARDS), tail=tails)
    def append_tail(self, shard, tail):
        path = self.ledgers[shard].path
        if path.exists():
            with path.open("ab") as handle:
                handle.write(tail)
            self.durable[shard] = None

    @rule(shard=st.sampled_from(SHARDS))
    def resume(self, shard):
        ledger = self.ledgers[shard]
        try:
            loaded = ledger.load(FINGERPRINT, shard)
        except ConfigurationError:
            self.durable[shard] = None  # the campaign must start afresh
            return
        self._check_written(shard, loaded)
        if self.durable[shard] is not None:
            assert loaded == self.durable[shard]
        # A resumed ledger is clean: the next read holds the same cells.
        contents = ledger.read()
        assert contents.records == loaded
        assert contents.torn_at is None
        self.durable[shard] = dict(loaded)

    @rule()
    def merge(self):
        readable = []
        for ledger in self.ledgers.values():
            try:
                readable.append((ledger.path, ledger.read()))
            except ConfigurationError:
                continue
        fingerprint, records = union_ledgers(readable)
        assert fingerprint in (None, FINGERPRINT)
        for index, metrics in records.items():
            assert self.attempted[shard_of(index)][index] == metrics
        # The gaps re-dispatch as ranges covering exactly the missing cells.
        missing = [index for index in range(len(CELLS)) if index not in records]
        ranges = coalesce_cell_ranges(missing)
        assert [i for start, stop in ranges for i in range(start, stop)] == missing

    def _check_written(self, shard, records):
        for index, metrics in records.items():
            assert self.attempted[shard][index] == metrics

    @invariant()
    def ledgers_hold_what_was_written(self):
        for shard, ledger in self.ledgers.items():
            try:
                contents = ledger.read()
            except ConfigurationError:
                assert self.durable[shard] is None
                continue
            assert contents.fingerprint == FINGERPRINT
            assert contents.cell_range == shard
            self._check_written(shard, contents.records)
            if self.durable[shard] is not None:
                assert contents.records == self.durable[shard]
                assert contents.torn_at is None

    # --- cell-store rules ------------------------------------------------

    @rule(index=st.integers(0, len(CELLS) - 1), values=metric_values)
    def put(self, index, values):
        before = set(self.store.entry_paths())
        self.bound.put(CELLS[index], synthetic(index, values))
        if index not in self.paths:
            (self.paths[index],) = set(self.store.entry_paths()) - before
        self.healthy.setdefault(index, synthetic(index, values))
        self.damaged.discard(index)

    @rule(
        index=st.integers(0, len(CELLS) - 1),
        values=metric_values,
        code=write_errors,
    )
    def put_on_a_full_disk(self, index, values, code):
        with mock.patch.object(os, "replace", side_effect=failing(code)):
            try:
                self.bound.put(CELLS[index], synthetic(index, values))
            except OSError as error:
                assert error.errno == code
                path = self.paths.setdefault(index, Path(error.filename))
                assert error.filename == str(path)
                assert path.suffix == ".json"
            else:
                assert index in self.healthy  # a healthy entry is kept
        assert list(self.store.root.rglob("*.tmp")) == []

    def _damage(self, index) -> Path | None:
        path = self.paths.get(index)
        if path is None or not path.exists():
            return None
        self.healthy.pop(index, None)
        self.damaged.add(index)
        return path

    @rule(index=st.integers(0, len(CELLS) - 1), raw=st.binary(max_size=64))
    def overwrite(self, index, raw):
        path = self._damage(index)
        if path is not None:
            path.write_bytes(raw)

    @rule(index=st.integers(0, len(CELLS) - 1), data=st.data())
    def truncate(self, index, data):
        path = self._damage(index)
        if path is not None:
            # Cutting only the trailing newline leaves the same object.
            size = path.stat().st_size
            os.truncate(path, data.draw(st.integers(0, max(size - 2, 0))))

    @rule(
        index=st.integers(0, len(CELLS) - 1),
        field=st.sampled_from(METRIC_FIELDS),
        value=st.sampled_from([math.nan, math.inf, -math.inf]),
    )
    def poison_metric(self, index, field, value):
        if index not in self.healthy:
            return
        path = self._damage(index)
        entry = json.loads(path.read_bytes())
        entry["metrics"][field] = value
        path.write_text(json.dumps(entry))

    @rule(index=st.integers(0, len(CELLS) - 1))
    def get(self, index):
        assert self.bound.get(CELLS[index]) == self.healthy.get(index)

    @rule(mine=st.booleans())
    def prune(self, mine):
        fingerprint = self.bound.base_digest if mine else "0" * 64
        report = self.store.prune(fingerprint=fingerprint)
        expected = {str(self.paths[index]) for index in self.healthy}
        assert set(report.removed) == (expected if mine else set())
        if mine:
            self.healthy.clear()

    @rule()
    def quarantine(self):
        report = self.store.verify(fix=True)
        assert all(problem.quarantined for problem in report.problems)
        self.damaged.clear()

    @invariant()
    def sweeps_agree(self):
        stats = self.store.stats()
        report = self.store.verify()
        assert stats.n_entries == report.n_ok == len(self.healthy)
        assert stats.n_unreadable == len(self.damaged)
        assert stats.n_entries + stats.n_unreadable == report.n_entries
        assert {problem.path for problem in report.problems} == {
            str(self.paths[index]) for index in self.damaged
        }


DurableFormats.TestCase.settings = settings(
    derandomize=True,
    database=None,
    max_examples=50,
    stateful_step_count=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestDurableFormats = DurableFormats.TestCase


def _ledger_with_two_records(tmp_path) -> tuple[CampaignLedger, dict]:
    ledger = CampaignLedger(tmp_path / "ledger.jsonl")
    records = {index: synthetic(index, (60.0, 59.0, 70.0, 9.5)) for index in (0, 1)}
    ledger.write(FINGERPRINT, records)
    return ledger, records


def test_torn_tail_after_blank_lines_is_cut_with_them(tmp_path):
    ledger, records = _ledger_with_two_records(tmp_path)
    with ledger.path.open("ab") as handle:
        handle.write(b"\n \n{\"index\": 2, \"cor")
    assert ledger.load(FINGERPRINT) == records
    contents = ledger.read()
    assert contents.records == records
    assert contents.torn_at is None


@pytest.mark.parametrize("line", [b"\x1c", b"\xc2\x85", b"\xe2\x80\xa8"])
def test_a_line_of_non_ascii_whitespace_is_content(tmp_path, line):
    """Only ASCII whitespace makes a blank line: mid-file, any other
    line that is not a record is corruption; last, it is a torn tail."""
    ledger, records = _ledger_with_two_records(tmp_path)
    data = ledger.path.read_bytes()
    with ledger.path.open("ab") as handle:
        handle.write(line + b"\n")
    assert ledger.read().records == records
    assert ledger.read().torn_at == len(data) - 1
    head, _, tail = data.rstrip().rpartition(b"\n")
    ledger.path.write_bytes(head + b"\n" + line + b"\n" + tail + b"\n")
    with pytest.raises(ConfigurationError, match="is corrupt"):
        ledger.read()
