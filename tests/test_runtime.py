"""Tests for repro.runtime — seeding, batch execution, Monte Carlo.

The contracts under test are the ones the batch runtime exists for:
determinism (parallel == serial, bit for bit, for any worker count and
dispatch chunking), seed-derivation stability across batch sizes, and
failure isolation (one crashing task is reported, not fatal).
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.errors import ConfigurationError, ModelDomainError
from repro.native import blas
from repro.runtime.batch import (
    BatchRunner,
    default_metrics,
    json_safe,
)
from repro.runtime.montecarlo import (
    DieTask,
    YieldSpec,
    default_sampler,
    measure_die,
    run_yield_analysis,
)
from repro.runtime.seeding import derive_seeds, spawn_sequences
from repro.technology.montecarlo import MonteCarloSampler


def _double(x):
    return 2 * x


def _draw(seed):
    """Seeded task: the task is its seed, and the value depends on it alone."""
    return float(np.random.default_rng(seed).standard_normal())


def _blas_threads(task):
    get, _ = blas._entry_points()
    return get()


def _explode_on_three(x):
    if x == 3:
        raise ValueError("boom at 3")
    return x * x


class StubbornError(ModelDomainError):
    """A ReproError subclass that does not survive a pickle round-trip
    (two required args; pickle re-raises with only ``args[0]``)."""

    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def _raise_stubborn(x):
    if x > 2.5:
        raise StubbornError("beyond the wall", code=7)
    return x + 1.0


class TestSeeding:
    def test_seeds_are_distinct(self):
        assert len(set(derive_seeds(7, 64))) == 64

    def test_prefix_stable_across_batch_size(self):
        # Task i's seed depends only on (root_seed, i), so a bigger
        # batch must reproduce the smaller batch's seeds as a prefix.
        assert derive_seeds(7, 16)[:8] == derive_seeds(7, 8)

    def test_different_roots_differ(self):
        assert derive_seeds(1, 4) != derive_seeds(2, 4)

    def test_spawn_sequences_count(self):
        assert len(spawn_sequences(0, 5)) == 5

    def test_negative_count_rejected(self):
        with pytest.raises(ConfigurationError):
            derive_seeds(0, -1)


class TestBatchRunner:
    def test_serial_results_in_order(self):
        batch = BatchRunner(workers=1).run(_double, [3, 1, 2])
        assert batch.values == [6, 2, 4]
        assert [o.index for o in batch.outcomes] == [0, 1, 2]

    def test_parallel_matches_serial(self):
        seeds = derive_seeds(42, 8)
        serial = BatchRunner(workers=1).run(_draw, seeds)
        pooled = BatchRunner(workers=4).run(_draw, seeds)
        assert pooled.values == serial.values

    def test_chunk_size_does_not_change_results(self):
        # 10 tasks group into chunks of 3, 2 and 1 on 1, 2 and 3 workers.
        seeds = derive_seeds(9, 10)
        batches = [BatchRunner(workers=w).run(_draw, seeds) for w in (1, 2, 3)]
        assert [batch.chunk_size for batch in batches] == [3, 2, 1]
        for batch in batches[1:]:
            assert batch.values == batches[0].values

    def test_failure_is_isolated_and_reported(self):
        batch = BatchRunner(workers=2).run(_explode_on_three, range(6))
        assert len(batch.failures) == 1
        failure = batch.failures[0]
        assert failure.index == 3
        assert failure.error_type == "ValueError"
        assert "boom at 3" in failure.error
        # The other five tasks still completed.
        assert batch.values == [0, 1, 4, 16, 25]

    def test_raise_first_failure_restores_exception(self):
        batch = BatchRunner(workers=2).run(_explode_on_three, range(6))
        with pytest.raises(ValueError, match="boom at 3"):
            batch.raise_first_failure()

    def test_serial_path_keeps_unpicklable_exception(self):
        # In-process execution never crosses a pickle boundary, so even
        # an unpicklable exception instance is preserved verbatim.
        batch = BatchRunner(workers=1).run(_raise_stubborn, [3.0])
        failure = batch.failures[0]
        assert isinstance(failure.exception, StubbornError)
        assert failure.exception.code == 7

    def test_pool_path_records_unpicklable_exception_by_name(self):
        # The StubbornError instance cannot travel back from a worker;
        # its class name and message still do, and the other tasks run.
        batch = BatchRunner(workers=2).run(_raise_stubborn, [1.0, 3.0, 2.0])
        assert [o.ok for o in batch.outcomes] == [True, False, True]
        failure = batch.failures[0]
        assert failure.exception is None
        assert failure.error_type == "StubbornError"
        assert "beyond the wall" in failure.error
        with pytest.raises(RuntimeError, match="StubbornError: beyond the wall"):
            batch.raise_first_failure()

    def test_progress_callback_sees_every_task(self):
        updates = []
        runner = BatchRunner(workers=1, progress=updates.append)
        runner.run(_double, range(5))
        assert [u.done for u in updates] == [1, 2, 3, 4, 5]
        assert all(u.total == 5 for u in updates)

    def test_empty_batch(self):
        batch = BatchRunner(workers=1).run(_double, [])
        assert batch.n_tasks == 0
        assert batch.values == []

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ConfigurationError):
            BatchRunner(workers=0)

    @pytest.mark.skipif(
        blas._entry_points() is None, reason="numpy bundles no OpenBLAS"
    )
    def test_pooled_workers_run_one_blas_thread(self):
        get, set_ = blas._entry_points()
        previous = get()
        set_(2)
        try:
            batch = BatchRunner(workers=2).run(_blas_threads, range(4))
            assert batch.values == [1, 1, 1, 1]
            assert get() == 2
        finally:
            set_(previous)

    def test_json_document_round_trips(self):
        batch = BatchRunner(workers=1).run(_double, [1, 2, 3])
        document = json.loads(json.dumps(batch.to_dict()))
        assert document["schema"] == "repro.batch-result/v2"
        assert document["n_tasks"] == 3
        assert document["n_failures"] == 0
        assert document["summary"]["value"]["max"] == 6.0
        assert [t["value"] for t in document["tasks"]] == [2, 4, 6]


class TestMetricHelpers:
    def test_default_metrics_from_mapping(self):
        assert default_metrics({"a": 1, "b": 2.5, "note": "x"}) == {
            "a": 1.0,
            "b": 2.5,
        }

    def test_default_metrics_from_scalar(self):
        assert default_metrics(3) == {"value": 3.0}

    def test_default_metrics_from_dataclass(self):
        @dataclasses.dataclass
        class Point:
            x: float
            label: str

        assert default_metrics(Point(x=1.5, label="p")) == {"x": 1.5}

    def test_json_safe_handles_numpy(self):
        encoded = json_safe({"a": np.float64(1.5), "b": np.arange(3)})
        assert encoded == {"a": 1.5, "b": [0, 1, 2]}
        json.dumps(encoded)


class TestMonteCarloRuntime:
    def test_measure_die_matches_legacy_loop(self, paper_config):
        """The runtime task reproduces the pre-runtime serial loop bit
        for bit (same sampler draw, same capture, same ramp)."""
        from repro import PipelineAdc, SineGenerator, SpectrumAnalyzer
        from repro.signal.linearity import ramp_linearity

        sampler = default_sampler(paper_config)
        die = sampler.sample(2, np.random.default_rng(2026))[1]

        adc = PipelineAdc(
            paper_config,
            conversion_rate=110e6,
            operating_point=die.operating_point,
            seed=die.seed,
        )
        tone = SineGenerator.coherent(10e6, 110e6, 4096, amplitude=0.995)
        legacy_spectrum = SpectrumAnalyzer().analyze(
            adc.convert(tone, 4096).codes, 110e6
        )
        ramp = np.linspace(-1.02, 1.02, 4096 * 16)
        legacy_linearity = ramp_linearity(adc.convert_samples(ramp).codes, 4096)
        legacy_dnl = max(
            abs(legacy_linearity.dnl_min), abs(legacy_linearity.dnl_max)
        )

        (metrics,) = measure_die(DieTask(samples=(die,), config=paper_config))
        assert metrics.enob_bits == legacy_spectrum.enob_bits
        assert metrics.sndr_db == legacy_spectrum.sndr_db
        assert metrics.dnl_peak_lsb == legacy_dnl

    def test_workers_do_not_change_metrics(self, paper_config):
        """Per-die metrics are bit-identical for any worker count and
        engine of the same seeded run; 5 dies split 5, 3 and 2 per
        vectorized task at 1, 2 and 3 workers."""
        kwargs = dict(
            n_dies=5,
            seed=99,
            config=paper_config,
            n_fft=1024,
        )
        serial = run_yield_analysis(workers=1, **kwargs)
        for workers, vectorized_chunk in ((1, 5), (2, 3), (3, 2)):
            for engine, chunk in (("pool", 1), ("vectorized", vectorized_chunk)):
                report = run_yield_analysis(
                    workers=workers, engine=engine, **kwargs
                )
                assert report.batch.chunk_size == chunk, (engine, workers)
                assert report.dies == serial.dies
                assert report.yield_fraction == serial.yield_fraction

    def test_report_document_and_render(self, paper_config):
        report = run_yield_analysis(
            n_dies=2,
            seed=5,
            config=paper_config,
            n_fft=1024,
        )
        text = report.render()
        assert "yield against" in text
        assert "Monte Carlo dies" in text
        document = json.loads(json.dumps(report.to_dict()))
        assert document["schema"] == "repro.batch-result/v2"
        assert document["yield"]["n_dies"] == 2
        assert document["spec"]["min_enob"] == 10.0
        assert {"sndr_db", "enob_bits", "dnl_peak_lsb"} <= set(
            document["summary"]
        )

    def test_spec_screening(self):
        spec = YieldSpec(min_enob=10.0, max_dnl_lsb=1.5)
        assert spec.passes(10.5, 1.0)
        assert not spec.passes(9.9, 1.0)
        assert not spec.passes(10.5, 1.6)

    def test_sample_spawned_is_partition_invariant(self, technology):
        sampler = MonteCarloSampler(technology=technology)
        assert sampler.sample_spawned(8, 31)[:4] == sampler.sample_spawned(4, 31)

    def test_spawn_seed_strategy_is_batch_size_invariant(self, paper_config):
        kwargs = dict(
            seed=11, config=paper_config, seed_strategy="spawn", n_fft=1024
        )
        small = run_yield_analysis(n_dies=1, **kwargs)
        larger = run_yield_analysis(n_dies=2, **kwargs)
        assert larger.dies[:1] == small.dies

    def test_unknown_seed_strategy_rejected(self, paper_config):
        with pytest.raises(ConfigurationError):
            run_yield_analysis(
                n_dies=1, config=paper_config, seed_strategy="typo"
            )
