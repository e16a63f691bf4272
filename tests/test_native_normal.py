"""The compiled PCG64 Gaussian fill against numpy, and the library loader.

numpy is the reference: for any seed and size, the kernel must write the
bytes ``Generator.standard_normal`` / ``Generator.normal`` return and
leave ``bit_generator.state`` where numpy leaves it, also between other
draws of the same generator.  Anything the kernel cannot serve (another
bit generator, a buffer it must not write through) takes numpy's path.
The fill is one function of the library :mod:`repro.native.chain`
loads, self-checks and reports on.
"""

from __future__ import annotations

import ctypes
import os
import stat
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from repro import streams
from repro.native import chain as native_chain
from repro.native import library

SEEDS = range(16)
SIZES = (1, 2, 255, 4101, 2 * 65541)
#: Values per seed in one extra long fill, so the whole test draws more
#: than 2e7 values: enough for thousands of ziggurat tail draws and
#: hundreds of thousands of wedge tests.
LONG_FILL = 1_200_000
#: numpy's ziggurat_nor_r: only the tail path returns |z| above it.
ZIGGURAT_R = 3.6541528853610088

needs_kernel = pytest.mark.skipif(
    native_chain.kernel() is None, reason=native_chain.status()
)


def _pair(seed: int):
    return streams.seeded_generator(seed), streams.seeded_generator(seed)


def _words_consumed(start: dict, end: dict, at_least: int) -> int:
    """How many 64-bit words took a PCG64 from ``start`` to ``end``."""
    probe = streams.seeded_generator(0)
    probe.bit_generator.state = start
    probe.bit_generator.random_raw(at_least)
    words = at_least
    while probe.bit_generator.state != end:
        probe.bit_generator.random_raw(1)
        words += 1
    return words


@needs_kernel
class TestKernelIdentity:
    def test_values_and_state_match_numpy(self):
        drawn = 0
        tails = 0
        extra_words = 0
        for seed in SEEDS:
            reference, candidate = _pair(seed)
            for size in SIZES:
                start = candidate.bit_generator.state
                expected = reference.standard_normal(size)
                got = np.empty(size)
                assert native_chain.fill(candidate, got)
                assert got.tobytes() == expected.tobytes(), (seed, size)
                assert candidate.bit_generator.state == reference.bit_generator.state
                drawn += size
                if size == max(SIZES):
                    extra_words += (
                        _words_consumed(start, candidate.bit_generator.state, size)
                        - size
                    )
                    tails += int(np.count_nonzero(np.abs(got) > ZIGGURAT_R))
                # Other draws of the same generator in between.
                assert reference.random() == candidate.random()
                assert reference.normal(0.5, 2.0) == candidate.normal(0.5, 2.0)
            expected = reference.standard_normal(LONG_FILL)
            got = np.empty(LONG_FILL)
            assert native_chain.fill(candidate, got)
            assert got.tobytes() == expected.tobytes(), seed
            assert candidate.bit_generator.state == reference.bit_generator.state
            tails += int(np.count_nonzero(np.abs(got) > ZIGGURAT_R))
            drawn += LONG_FILL
        assert drawn >= 2 * 10**7
        # Both rejection paths ran: tail draws return |z| > r, and the
        # words beyond one per value (a tail draw takes about two more,
        # a wedge test one) far outnumber what the tails account for.
        assert tails > 0
        assert extra_words > 5 * tails

    def test_loc_scale_match_generator_normal(self):
        for seed in SEEDS:
            reference, candidate = _pair(seed)
            for loc, scale in ((0.0, 1e-4), (1.5, 0.25), (-2.0, 0.0)):
                expected = reference.normal(loc, scale, 4101)
                got = np.empty(4101)
                assert native_chain.fill(candidate, got, scale, loc)
                assert got.tobytes() == expected.tobytes()
            assert candidate.bit_generator.state == reference.bit_generator.state

    def test_scale_only_matches_standard_normal_times_scale(self):
        reference, candidate = _pair(7)
        expected = reference.standard_normal(4101)
        expected *= 3e-4
        got = np.empty(4101)
        assert native_chain.fill(candidate, got, 3e-4)
        assert got.tobytes() == expected.tobytes()


class TestNumpyPath:
    def _declined(self, make, out, **kwargs) -> None:
        """The kernel turns the draw down and consumes nothing."""
        generator, twin = make(), make()
        assert not native_chain.fill(generator, out, **kwargs)
        assert np.array_equal(
            generator.bit_generator.random_raw(8), twin.bit_generator.random_raw(8)
        )

    def test_other_bit_generators(self):
        for kind in (np.random.MT19937, np.random.PCG64DXSM):
            def make(kind=kind):
                return np.random.Generator(kind(3))

            self._declined(make, np.empty(4101))
            got = streams.fill_normal(make(), np.empty(4101), 0.5)
            assert got.tobytes() == (make().standard_normal(4101) * 0.5).tobytes()

    def test_buffers_the_kernel_must_not_write(self):
        readonly = np.empty(4101)
        readonly.flags.writeable = False
        for out in (
            np.empty(2 * 4101)[::2],
            np.empty(4101, dtype=np.float32),
            np.empty((4101, 2)).T,
            readonly,
        ):
            self._declined(lambda: streams.seeded_generator(3), out)

    def test_non_contiguous_helper_draws_like_numpy(self):
        generator, twin = _pair(5)
        out = np.empty(2 * 4101)[::2]
        streams.fill_normal(generator, out, 0.1, 0.0)
        assert np.array_equal(out, twin.normal(0.0, 0.1, 4101))
        assert generator.bit_generator.state == twin.bit_generator.state

    def test_negative_scale_raises_like_numpy(self):
        self._declined(
            lambda: streams.seeded_generator(5), np.empty(4101), scale=-1.0, loc=0.0
        )
        with pytest.raises(ValueError):
            streams.normal(streams.seeded_generator(5), 0.0, -1.0, 4101)


class TestLoader:
    def test_status_names_the_fill(self):
        status = native_chain.status()
        assert status == "native" or status.startswith("numpy: ")

    @needs_kernel
    def test_self_check_rejects_a_changed_fill(self):
        """One last bit off in the fill fails the library's one check."""
        functions = native_chain.kernel()

        def nudged(state, address, n, *args):
            functions.fill(state, address, n, *args)
            values = (ctypes.c_double * n).from_address(address)
            values[n - 1] = np.nextafter(values[n - 1], np.inf)

        with pytest.raises(library.Unavailable, match="self-check"):
            native_chain._self_check(replace(functions, fill=nudged))

    def test_cache_directory_is_private(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        loose = library.cache_dir()
        loose.mkdir(mode=0o755)
        os.chmod(loose, 0o755)
        library._private_dir(loose)
        assert stat.S_IMODE(os.stat(loose).st_mode) == 0o700

    def test_library_name_keys_source_and_numpy(self, monkeypatch):
        name = library.library_name()
        monkeypatch.setattr(np, "__version__", np.__version__ + ".other")
        assert library.library_name() != name

    def test_library_name_keys_the_build(self, monkeypatch):
        """A changed flag, ISA level or compiler never reuses a build."""
        name = library.library_name()
        with monkeypatch.context() as patch:
            patch.setattr(library, "CFLAGS", (*library.CFLAGS, "-DREPRO_OTHER"))
            assert library.library_name() != name
        with monkeypatch.context() as patch:
            other = () if library.isa_flags() else library.X86_64_V3
            patch.setattr(library, "isa_flags", lambda: other)
            assert library.library_name() != name
        with monkeypatch.context() as patch:
            patch.setattr(library, "compiler", lambda: ["other-cc"])
            assert library.library_name() != name
        assert library.library_name() == name

    @needs_kernel
    def test_cold_cache_builds_loads_and_checks(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        functions, status = native_chain._kernel.load()
        assert status == "native" and functions is not None
        directory = library.cache_dir()
        assert stat.S_IMODE(os.stat(directory).st_mode) == 0o700
        # One library under its final name, no temp file left behind.
        assert [path.name for path in directory.iterdir()] == [
            library.library_name()
        ]

    def test_threads_starting_at_once_load_once(self, monkeypatch):
        """The loader locks its load: racing first calls build, open and
        check the library once and see one outcome."""
        opened = []

        def slow_open(path):
            opened.append(path)
            time.sleep(0.05)
            return object()

        monkeypatch.setattr(library, "build", lambda: "library-path")
        kernel = library.Kernel(slow_open, lambda functions: None)
        found = []
        threads = [
            threading.Thread(target=lambda: found.append(kernel.functions()))
            for _ in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert opened == ["library-path"]
        assert len(found) == 6 and len({id(f) for f in found}) == 1
        assert kernel.status() == "native"
        assert isinstance(native_chain._kernel, library.Kernel)

    def test_no_compiler_means_numpy(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setattr(
            library.sysconfig,
            "get_config_var",
            lambda name: "no-such-compiler-repro",
        )
        functions, status = native_chain._kernel.load()
        assert functions is None
        assert status.startswith("numpy: no C compiler")
        assert list(library.cache_dir().iterdir()) == []
