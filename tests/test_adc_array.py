"""Tests for the die-batched engine.

The load-bearing contract: die *d* of any batch is bit-exact with the
same die simulated alone, regardless of die chunking, worker count or
execution engine.  Everything else (batched evaluation, input
validation) hangs off that.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.adc import PipelineAdc
from repro.core.adc_array import AdcArray
from repro.core.correction import DigitalCorrection
from repro.errors import ConfigurationError
from repro.evaluation.testbench import DynamicTestbench, StaticTestbench
from repro.native import chain as native_chain
from repro.runtime.montecarlo import (
    DieTask,
    default_sampler,
    measure_die,
    measure_die_chunk,
    run_yield_analysis,
)
from repro.runtime.seeding import population_generator
from repro.signal.generators import SineGenerator
from repro.signal.linearity import ramp_linearity
from repro.signal.spectrum import SpectrumAnalyzer
from repro.streams import (
    CALIBRATION_NOISE_STREAM,
    CONVERT_NOISE_STREAM,
    SAMPLES_NOISE_STREAM,
    noise_generator,
    normal_pair,
)


@pytest.fixture(scope="module")
def die_population(paper_config):
    return default_sampler(paper_config).sample(3, np.random.default_rng(11))


@pytest.fixture(scope="module")
def adc_array(paper_config, die_population):
    return AdcArray(paper_config, 110e6, die_population)


@pytest.fixture(scope="module")
def solo_adcs(paper_config, die_population):
    return [
        PipelineAdc(
            paper_config,
            110e6,
            operating_point=die.operating_point,
            seed=die.seed,
        )
        for die in die_population
    ]


class TestStreams:
    def test_noise_generator_replays(self):
        a = noise_generator(42, CONVERT_NOISE_STREAM).normal(size=8)
        b = noise_generator(42, CONVERT_NOISE_STREAM).normal(size=8)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("seed", [0, 2**32, 2**64 - 1])
    @pytest.mark.parametrize("stream", [0, 1, 2])
    def test_noise_generator_is_the_spawned_child(self, seed, stream):
        """The one child built directly is the spawned child, state for state."""
        spawned = np.random.SeedSequence(seed).spawn(3)[stream]
        expected = np.random.default_rng(spawned).bit_generator.state
        assert noise_generator(seed, stream).bit_generator.state == expected

    def test_streams_are_separated(self):
        convert = noise_generator(42, CONVERT_NOISE_STREAM).normal(size=8)
        samples = noise_generator(42, SAMPLES_NOISE_STREAM).normal(size=8)
        assert not np.array_equal(convert, samples)

    def test_normal_pair_matches_sequential_draws(self):
        """One fused 2n draw == two consecutive n draws, bit for bit."""
        fused = noise_generator(3, CONVERT_NOISE_STREAM)
        sequential = noise_generator(3, CONVERT_NOISE_STREAM)
        pair_a, pair_b = normal_pair(fused, 0.5, 2.0, (2, 16))
        assert np.array_equal(pair_a, sequential.normal(0.0, 0.5, (2, 16)))
        assert np.array_equal(pair_b, sequential.normal(0.0, 2.0, (2, 16)))

    def test_normal_pair_plain_generator_dispatch(self):
        one = np.random.default_rng(7)
        two = np.random.default_rng(7)
        pair_a, pair_b = normal_pair(one, 0.5, 2.0, (16,))
        assert np.array_equal(pair_a, two.normal(0.0, 0.5, 16))
        assert np.array_equal(pair_b, two.normal(0.0, 2.0, 16))


class TestStackedConstruction:
    def test_die_count_and_shapes(self, adc_array, paper_config):
        assert adc_array.n_dies == 3
        assert adc_array.ratio_errors.shape == (3, paper_config.n_stages)
        assert adc_array.comparator_offsets.shape == (
            3,
            paper_config.n_stages,
            2,
        )
        assert adc_array.stage_currents.shape == (3, paper_config.n_stages)

    def test_stacked_parameters_match_per_die(self, adc_array, solo_adcs):
        for die, solo in enumerate(solo_adcs):
            for i, stage in enumerate(solo.stages):
                assert adc_array.ratio_errors[die, i] == stage.mdac.ratio_error
                assert (
                    adc_array.comparator_offsets[die, i, 0]
                    == stage.subadc.offsets[0]
                )

    def test_rejects_empty_population(self, paper_config):
        with pytest.raises(ConfigurationError):
            AdcArray(paper_config, 110e6, [])


class TestBitExactness:
    """ISSUE acceptance: the batched engine reproduces the per-die path."""

    def test_convert_matches_per_die(self, adc_array, solo_adcs):
        tone = SineGenerator.coherent(10e6, 110e6, 256, amplitude=0.995)
        batch = adc_array.convert(tone, 256)
        assert batch.codes.shape == (3, 256)
        for die, solo in enumerate(solo_adcs):
            result = solo.convert(tone, 256)
            assert np.array_equal(batch.codes[die], result.codes)
            assert np.array_equal(batch.stage_codes[die], result.stage_codes)
            assert np.array_equal(
                batch.sample_times[die], result.sample_times
            )

    def test_convert_samples_matches_per_die(
        self, adc_array, solo_adcs, paper_config
    ):
        ramp = np.linspace(-1.02, 1.02, 4096)
        batch = adc_array.convert_samples(ramp)
        for die, solo in enumerate(solo_adcs):
            assert np.array_equal(
                batch.codes[die], solo.convert_samples(ramp).codes
            )
        # The stage codes are a (dies, samples, n_stages) view of a
        # stage-major buffer, and they combine to the output words.
        correction = DigitalCorrection(paper_config.n_stages, paper_config.flash_bits)
        assert batch.stage_codes.strides[1] == batch.stage_codes.itemsize
        words = correction.combine(
            np.ascontiguousarray(batch.stage_codes), batch.flash_codes
        )
        assert np.array_equal(words, batch.codes)

    def test_batch_size_invariance(self, paper_config, die_population):
        """A die's codes do not depend on which batch it sits in."""
        tone = SineGenerator.coherent(10e6, 110e6, 128, amplitude=0.9)
        full = AdcArray(paper_config, 110e6, die_population).convert(tone, 128)
        solo = AdcArray(paper_config, 110e6, die_population[1:2]).convert(
            tone, 128
        )
        assert np.array_equal(full.codes[1], solo.codes[0])

    def test_ideal_config_paths(self, ideal_config):
        """All impairment switches off exercise the no-noise branches."""
        from repro.technology.corners import OperatingPoint
        from repro.technology.montecarlo import ProcessSample

        samples = [
            ProcessSample(
                operating_point=OperatingPoint(
                    technology=ideal_config.technology
                ),
                seed=seed,
                index=index,
            )
            for index, seed in enumerate([0, 4])
        ]
        array = AdcArray(ideal_config, 110e6, samples)
        tone = SineGenerator.coherent(10e6, 110e6, 128, amplitude=0.9)
        batch = array.convert(tone, 128)
        for die, sample in enumerate(samples):
            solo = PipelineAdc(
                ideal_config,
                110e6,
                operating_point=sample.operating_point,
                seed=sample.seed,
            )
            assert np.array_equal(
                batch.codes[die], solo.convert(tone, 128).codes
            )

    def test_die_view(self, adc_array):
        tone = SineGenerator.coherent(10e6, 110e6, 128, amplitude=0.9)
        batch = adc_array.convert(tone, 128)
        view = batch.die(1)
        assert np.array_equal(view.codes, batch.codes[1])
        assert view.resolution == batch.resolution


class TestConvertSamplesValidation:
    def test_rejects_empty(self, adc_array, paper_adc):
        with pytest.raises(ConfigurationError):
            adc_array.convert_samples(np.array([]))
        with pytest.raises(ConfigurationError):
            paper_adc.convert_samples(np.array([]))

    def test_rejects_bad_rank(self, adc_array):
        with pytest.raises(ConfigurationError):
            adc_array.convert_samples(np.zeros((2, 3, 4)))

    def test_rejects_wrong_die_count(self, adc_array):
        with pytest.raises(ConfigurationError):
            adc_array.convert_samples(np.zeros((5, 64)))

    def test_rejects_non_finite(self, adc_array, paper_adc):
        bad = np.array([0.0, np.nan, 0.5])
        with pytest.raises(ConfigurationError):
            adc_array.convert_samples(bad)
        with pytest.raises(ConfigurationError):
            paper_adc.convert_samples(bad)

    def test_rejects_nonpositive_count(self, adc_array):
        from repro.signal.generators import DcGenerator

        with pytest.raises(ConfigurationError):
            adc_array.convert(DcGenerator(0.0), 0)

    def test_per_die_records_accepted(self, adc_array, solo_adcs):
        block = np.vstack(
            [np.linspace(-0.5, 0.5, 64) + 0.01 * d for d in range(3)]
        )
        batch = adc_array.convert_samples(block)
        assert np.array_equal(
            batch.codes[2], solo_adcs[2].convert_samples(block[2]).codes
        )


@pytest.mark.skipif(
    native_chain.kernel() is None, reason=native_chain.status()
)
class TestCompiledChain:
    """Every die-batched block, short or long, converts on the compiled chain."""

    @pytest.mark.parametrize(
        ("n_dies", "n_samples", "capture"),
        [(1, 512, "tone"), (2, 512, "tone"), (3, 8192, "calibration")],
    )
    def test_one_chain_call_per_die_per_stage(
        self, paper_config, die_population, monkeypatch, n_dies, n_samples, capture
    ):
        """One chain run per die, and in it one C stage call per stage."""
        functions = native_chain.kernel()
        assert functions is not None, native_chain.status()
        runs, calls = [], []
        run = native_chain.run

        def counting_run(*args):
            runs.append(args[2].shape)
            return run(*args)

        def counting_stage(*args):
            calls.append(args[3])  # the record length
            return functions.stage(*args)

        counting = dataclasses.replace(functions, stage=counting_stage)
        monkeypatch.setattr(native_chain, "run", counting_run)
        monkeypatch.setattr(native_chain, "kernel", lambda: counting)
        array = AdcArray(paper_config, 110e6, die_population[:n_dies])
        if capture == "tone":
            tone = SineGenerator.coherent(10e6, 110e6, n_samples, amplitude=0.995)
            array.convert(tone, n_samples)
        else:
            ramp = np.linspace(-1.02, 1.02, n_samples)
            array.convert_samples(ramp, stream=CALIBRATION_NOISE_STREAM)
        skip = DigitalCorrection(
            paper_config.n_stages, paper_config.flash_bits
        ).latency_cycles
        assert runs == [(n_samples + skip,)] * n_dies
        assert calls == [n_samples + skip] * (n_dies * paper_config.n_stages)


class TestBatchedEvaluation:
    def test_analyze_batch_matches_analyze(self, nominal_capture):
        codes = np.vstack([nominal_capture.codes, nominal_capture.codes[::-1]])
        analyzer = SpectrumAnalyzer()
        batched = analyzer.analyze_batch(codes, 110e6)
        assert batched == [analyzer.analyze(row, 110e6) for row in codes]

    def test_analyze_batch_rejects_1d(self, nominal_capture):
        from repro.errors import AnalysisError

        with pytest.raises(AnalysisError):
            SpectrumAnalyzer().analyze_batch(nominal_capture.codes, 110e6)

    def test_ramp_linearity_die_axis(self, rng):
        n_codes = 16
        codes = rng.integers(0, n_codes, size=(3, 16 * n_codes + 40))
        batched = ramp_linearity(codes, n_codes)
        assert len(batched) == 3
        for row, result in zip(codes, batched):
            solo = ramp_linearity(row, n_codes)
            assert np.array_equal(result.dnl, solo.dnl)
            assert np.array_equal(result.inl, solo.inl)
            assert result.missing_codes == solo.missing_codes

    def test_ramp_linearity_rejects_out_of_range_codes(self, rng):
        from repro.errors import AnalysisError

        n_codes = 16
        codes = rng.integers(0, n_codes, size=(2, 16 * n_codes + 8))
        codes[0, 0] = n_codes  # would bleed into die 1's histogram
        with pytest.raises(AnalysisError):
            ramp_linearity(codes, n_codes)

    def test_correction_batch_axis(self):
        correction = DigitalCorrection(n_stages=4, flash_bits=2)
        rng = np.random.default_rng(0)
        stage_codes = rng.integers(-1, 2, size=(3, 20, 4))
        flash = rng.integers(0, 4, size=(3, 20))
        aligned_codes, aligned_flash = correction.align(stage_codes, flash)
        words = correction.combine(aligned_codes, aligned_flash)
        for die in range(3):
            solo_codes, solo_flash = correction.align(
                stage_codes[die], flash[die]
            )
            assert np.array_equal(
                words[die], correction.combine(solo_codes, solo_flash)
            )


class TestVectorizedEngine:
    """ISSUE acceptance: --engine vectorized == --engine pool."""

    KWARGS = dict(n_dies=3, seed=77, n_fft=1024)

    def test_matches_pool_engine(self, paper_config):
        pool = run_yield_analysis(config=paper_config, **self.KWARGS)
        vec = run_yield_analysis(
            config=paper_config, engine="vectorized", **self.KWARGS
        )
        assert vec.engine == "vectorized"
        assert pool.yield_fraction == vec.yield_fraction
        assert pool.dies == vec.dies

    def test_die_chunk_invariance(self, paper_config):
        """3 dies split 3, 2 and 1 per task at 1, 2 and 3 workers."""
        reference = run_yield_analysis(config=paper_config, **self.KWARGS)
        for workers, vectorized_chunk in ((1, 3), (2, 2), (3, 1)):
            for engine, chunk in (("pool", 1), ("vectorized", vectorized_chunk)):
                report = run_yield_analysis(
                    config=paper_config,
                    engine=engine,
                    workers=workers,
                    **self.KWARGS,
                )
                assert report.batch.chunk_size == chunk, (engine, workers)
                assert report.dies == reference.dies

    def test_worker_invariance(self, paper_config):
        serial = run_yield_analysis(
            config=paper_config, engine="vectorized", **self.KWARGS
        )
        pooled = run_yield_analysis(
            config=paper_config, engine="vectorized", workers=None, **self.KWARGS
        )
        assert serial.dies == pooled.dies

    def test_task_seeds_are_engine_independent(self, paper_config):
        """Every outcome records its die's seed, whatever the engine."""
        dies = default_sampler(paper_config).sample(
            self.KWARGS["n_dies"], population_generator(self.KWARGS["seed"])
        )
        for engine in ("pool", "vectorized"):
            report = run_yield_analysis(
                config=paper_config, engine=engine, **self.KWARGS
            )
            assert [(o.index, o.seed) for o in report.batch.outcomes] == [
                (die.index, die.seed) for die in dies
            ]

    def test_unknown_engine_rejected(self, paper_config):
        with pytest.raises(ConfigurationError):
            run_yield_analysis(
                config=paper_config, engine="turbo", **self.KWARGS
            )

    def test_report_document_carries_engine(self, paper_config):
        import json

        report = run_yield_analysis(
            config=paper_config, engine="vectorized", **self.KWARGS
        )
        document = json.loads(json.dumps(report.to_dict()))
        assert document["engine"] == "vectorized"
        assert document["yield"]["n_dies"] == 3

    @pytest.fixture(scope="class")
    def bench_dies(self, paper_config):
        """Two paper-default dies, each with its serial-bench reference."""
        dies = default_sampler(paper_config).sample(
            2, np.random.default_rng(5)
        )
        references = []
        for die in dies:
            bench = dict(
                die_seed=die.seed, operating_point=die.operating_point
            )
            spectrum = DynamicTestbench(
                paper_config, n_samples=1024, **bench
            ).measure(110e6, 10e6)
            linearity = StaticTestbench(
                paper_config, samples_per_code=16, **bench
            ).measure(110e6)
            references.append((spectrum, linearity))
        return tuple(dies), references

    @staticmethod
    def _peaks(linearity):
        return (
            max(abs(linearity.dnl_min), abs(linearity.dnl_max)),
            max(abs(linearity.inl_min), abs(linearity.inl_max)),
        )

    def test_measure_die_matches_serial_benches(self, paper_config, bench_dies):
        """The yield screen's per-die reference is the serial benches."""
        dies, references = bench_dies
        task = DieTask(samples=dies, config=paper_config, n_fft=1024)
        for metrics, (spectrum, linearity) in zip(
            measure_die(task), references
        ):
            assert metrics.sndr_db == spectrum.sndr_db
            assert metrics.enob_bits == spectrum.enob_bits
            assert (
                metrics.dnl_peak_lsb,
                metrics.inl_peak_lsb,
            ) == self._peaks(linearity)
        assert references[0][0].sndr_db == pytest.approx(
            64.52178501915054, rel=1e-12
        )
        assert self._peaks(references[0][1])[0] == 0.911922663802363

    def test_measure_die_chunk_matches_serial_benches(
        self, paper_config, bench_dies
    ):
        dies, references = bench_dies
        task = DieTask(samples=dies, config=paper_config, n_fft=1024)
        for metrics, (spectrum, linearity) in zip(
            measure_die_chunk(task), references
        ):
            assert metrics.sndr_db == spectrum.sndr_db
            assert metrics.enob_bits == spectrum.enob_bits
            assert (
                metrics.dnl_peak_lsb,
                metrics.inl_peak_lsb,
            ) == self._peaks(linearity)
