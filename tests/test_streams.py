import os
import resource
import sys
import threading

import numpy as np
import pytest

from sncoint import streams
from sncoint.montecarlo import _test_seeds
from sncoint.streams import (
    BLAS_PINNED,
    MEMORY_RETAINED,
    _cores,
    _seed_words,
    pool_layout,
    replication_map,
    substream,
    substreams,
)


def _draws(indices):
    """The chunk's indices and one draw from each index's own stream."""
    return indices, np.array([substream(5, int(i)).standard_normal() for i in indices])


class TestReplicationMap:
    @pytest.mark.parametrize(
        "n, size, bounds",
        [(10, 4, [(0, 4), (4, 8), (8, 10)]),
         (8, 4, [(0, 4), (4, 8)]),
         (3, 8, [(0, 3)]),
         (1, 1, [(0, 1)]),
         (0, 4, [])],
        ids=["ragged", "even", "size-above-n", "single", "empty"],
    )  # fmt: skip
    def test_chunk_bounds(self, n, size, bounds):
        chunks = replication_map(lambda indices: indices, n, size)
        assert len(chunks) == len(bounds)
        for indices, (start, stop) in zip(chunks, bounds):
            np.testing.assert_array_equal(indices, np.arange(start, stop))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_results_in_index_order(self, workers):
        chunks = replication_map(_draws, 50, 3, workers)
        assert len(chunks) == 17
        np.testing.assert_array_equal(np.concatenate([indices for indices, _ in chunks]), np.arange(50))

    def test_same_list_at_any_worker_count(self):
        serial = replication_map(_draws, 50, 3, 1)
        pooled = replication_map(_draws, 50, 3, 2)
        assert len(serial) == len(pooled)
        for (i1, d1), (i2, d2) in zip(serial, pooled):
            np.testing.assert_array_equal(i1, i2)
            np.testing.assert_array_equal(d1, d2)

    @pytest.mark.skipif(not BLAS_PINNED, reason="numpy's bundled OpenBLAS not found")
    @pytest.mark.skipif(_cores() < 2, reason="one core: no pool")
    def test_pool_workers_run_blas_on_one_thread(self):
        before = _blas_threads()
        streams._SET_THREADS(2)
        try:
            assert replication_map(_blas_threads, 4, 1, 2) == [1] * 4
            assert _blas_threads() == 2
        finally:
            streams._SET_THREADS(before)
        assert _blas_threads() == before


def _blas_threads(indices=None) -> int:
    """This process's thread count of numpy's bundled OpenBLAS."""
    (dll,) = streams._DLLS
    return getattr(dll, streams._SET_THREADS.__name__.replace("_set_", "_get_"))()


def test_pool_layout_counts_the_cores_this_process_may_use(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert pool_layout(100, 10, 4) == (10, 1)


ARRAY_BYTES = 48_000_000
PAGES = ARRAY_BYTES // resource.getpagesize()


def _fresh_array(indices=None) -> int:
    """Minor page faults of allocating, touching and freeing one 48 MB array
    (a bytearray, which is zeroed on allocation; numpy would ask for huge pages)."""
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    len(bytearray(ARRAY_BYTES))
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


def _after_inner_loop(indices) -> int:
    replication_map(len, 1, 1)
    return _fresh_array()


def _second_array(indices) -> int:
    _fresh_array()
    return _fresh_array()


def _loops() -> None:
    for _ in range(500):
        replication_map(len, 2, 1)


def _raise_after_array(indices):
    _fresh_array()
    raise ValueError("chunk failed")


class TestMemoryRetention:
    """Freed memory stays in the process while a replication loop runs,
    seen in the loop's minor page faults, and is handed back after."""

    pytestmark = pytest.mark.skipif(not MEMORY_RETAINED, reason="glibc's mallopt not found")

    def assert_handed_back(self):
        assert streams._depth == 0
        assert _fresh_array() > 0.9 * PAGES

    def test_in_process_chunks_reuse_pages(self):
        assert sum(replication_map(_fresh_array, 4, 1)) < 1.5 * PAGES
        self.assert_handed_back()

    def test_handed_back_when_a_chunk_raises(self):
        with pytest.raises(ValueError, match="chunk failed"):
            replication_map(_raise_after_array, 2, 1)
        self.assert_handed_back()

    def test_nested_loop_keeps_the_outer_retention(self):
        assert sum(replication_map(_after_inner_loop, 4, 1)) < 1.5 * PAGES
        self.assert_handed_back()

    @pytest.mark.skipif(_cores() < 2, reason="one core: no pool")
    def test_pool_workers_retain(self):
        assert pool_layout(2, 1, 2) == (2, 2)
        assert max(replication_map(_second_array, 2, 1, 2)) < 0.5 * PAGES


class TestMemoryRetentionSwitch:
    def fake_allocator(self, monkeypatch, retained: bool, verdict: int) -> list:
        calls = []
        monkeypatch.setattr(streams, "MEMORY_RETAINED", retained)
        monkeypatch.setattr(streams, "_MALLOPT", lambda *args: calls.append(args) or verdict)
        monkeypatch.setattr(streams, "_MALLOC_TRIM", lambda *args: calls.append(args) or 1)
        return calls

    def test_without_glibc_nothing_is_set(self, monkeypatch):
        expected = replication_map(_draws, 20, 3)
        calls = self.fake_allocator(monkeypatch, False, 1)
        for (i1, d1), (i2, d2) in zip(replication_map(_draws, 20, 3), expected, strict=True):
            np.testing.assert_array_equal(i1, i2)
            np.testing.assert_array_equal(d1, d2)
        assert calls == []

    def test_set_once_for_the_outermost_loop(self, monkeypatch):
        calls = self.fake_allocator(monkeypatch, True, 1)
        replication_map(_after_inner_loop, 3, 1)
        assert calls == [*streams._RETAIN.items(), *streams._RESTORE.items(), (0,)]

    def test_threads_share_one_depth_count(self, monkeypatch):
        calls = self.fake_allocator(monkeypatch, True, 1)
        threads = [threading.Thread(target=_loops) for _ in range(8)]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(thread.is_alive() for thread in threads)
        assert streams._depth == 0
        # Each retain is followed by one restore and trim before the next.
        retain, restore = [*streams._RETAIN.items()], [*streams._RESTORE.items(), (0,)]
        assert calls and len(calls) % 5 == 0
        for k in range(0, len(calls), 5):
            assert calls[k : k + 2] == retain and calls[k + 2 : k + 5] == restore

    def test_refused_setting_warns(self, monkeypatch):
        self.fake_allocator(monkeypatch, True, 0)
        with pytest.warns(RuntimeWarning, match="mallopt refused"):
            assert replication_map(len, 3, 2) == [2, 1]


# One to five 32-bit words: 2**130 + 1 has more entropy words than the pool
# even without a key, so numpy's loop over the extra words runs.
SEEDS = [0, 5, 2**32 - 1, 2**32 + 5, 2**70 + 12345, 2**130 + 1]
KEYS = {
    "none": [()] * 3,
    "index": [(i,) for i in range(7)],
    "attempt0": [(i, 0) for i in range(7)],
    "attempt1": [(i, 1) for i in range(7)],
    "phase": [(phase, i) for phase in (0, 1) for i in range(4)],
    "three": [(2, i, 7) for i in (0, 1, 2**32 - 1)],
}


def reference(seed, key):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


class TestSubstreams:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("keys", KEYS.values(), ids=KEYS.keys())
    def test_states_equal_numpy_seed_sequence(self, seed, keys):
        rngs = substreams(seed, keys)
        assert len(rngs) == len(keys)
        for key, rng in zip(keys, rngs):
            assert rng.bit_generator.state == reference(seed, key).bit_generator.state
        for key in keys[:2]:
            assert substream(seed, *key).bit_generator.state == reference(seed, key).bit_generator.state

    @pytest.mark.parametrize("seed", SEEDS)
    def test_seed_words_equal_generate_state(self, seed):
        for keys in (KEYS["phase"], KEYS["three"], [(2**32 - 1, 0, 3, 4, 5)]):
            for n_words in (1, 3, 8):
                words = _seed_words(seed, np.array(keys), n_words)
                assert words.dtype == np.uint32 and words.shape == (len(keys), n_words)
                for key, row in zip(keys, words):
                    expected = np.random.SeedSequence(seed, spawn_key=key).generate_state(n_words)
                    np.testing.assert_array_equal(row, expected)

    def test_empty_key_array(self):
        assert substreams(3, np.empty((0, 2), dtype=int)) == []
        assert _seed_words(3, np.empty((0, 3), dtype=int), 1).shape == (0, 1)

    def test_same_draws_as_one_row_calls(self):
        keys = np.column_stack([np.arange(10), np.zeros(10, dtype=int)])
        batch = [rng.integers(0, 96, size=50) for rng in substreams(7, keys)]
        for (i, attempt), draws in zip(keys, batch):
            np.testing.assert_array_equal(draws, substream(7, int(i), int(attempt)).integers(0, 96, size=50))

    def test_test_seeds_equal_generate_state(self):
        indices = np.arange(5, 12)
        for seed, phase in ((0, 0), (2**40 + 3, 1)):
            seeds = _test_seeds(seed, phase, indices, 3)
            assert len(seeds) == 3 and all(len(s) == len(indices) for s in seeds)
            for j, column in enumerate(seeds):
                for i, value in zip(indices, column):
                    ss = np.random.SeedSequence(seed, spawn_key=(phase, int(i), j))
                    assert type(value) is int and value == int(ss.generate_state(1)[0])

    @pytest.mark.parametrize(
        "seed, key, value",
        [(-1, (3,), "-1"),
         (4, (-2,), "-2"),
         (4, (1, -7), "-7"),
         (4, (2**32,), str(2**32)),
         (4, (0, 2**70), str(2**70))],
        ids=["negative-seed", "negative-key", "negative-second-key", "key-2**32", "key-2**70"],
    )  # fmt: skip
    def test_out_of_range_raises_naming_the_value(self, seed, key, value):
        with pytest.raises(ValueError, match=value):
            substream(seed, *key)
        with pytest.raises(ValueError, match=value):
            substreams(seed, [key])

    def test_keys_must_be_integers(self):
        with pytest.raises(TypeError):
            substreams(1, [[1.5]])
        with pytest.raises(TypeError):
            substream(1.5, 2)
