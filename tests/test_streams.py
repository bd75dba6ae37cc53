import json
import multiprocessing
import os
import resource
import subprocess
import sys
import time
from concurrent.futures.process import BrokenProcessPool
from functools import partial
from pathlib import Path

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
    substream_integers,
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


def _pid(indices) -> int:
    time.sleep(0.005)  # long enough for every worker to take a task
    return os.getpid()


def _raise_at_3(indices):
    if indices[0] == 3:
        raise ValueError("chunk 3 failed")
    return os.getpid()


def _exit_at_3(indices):
    if indices[0] == 3:
        os._exit(1)
    return os.getpid()


def _pool_pids() -> set[int]:
    """The worker pids of the pool this process keeps."""
    return set(streams._pool[1]._processes)


def _gone(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


def _pids_in_child(conn) -> None:
    conn.send((os.getpid(), replication_map(_pid, 8, 1, 2)))
    conn.close()


@pytest.mark.skipif(_cores() < 2, reason="one core: no pool")
class TestKeptPool:
    """One pool per process, reused by every call at its process count."""

    def test_calls_reuse_the_workers(self):
        first = replication_map(_pid, 8, 1, 2)
        workers, pool = _pool_pids(), streams._pool[1]
        second = replication_map(_pid, 8, 1, 2)
        assert streams._pool[1] is pool and _pool_pids() == workers
        assert len(workers) == 2 and os.getpid() not in workers
        assert set(first) <= workers and set(second) <= workers

    def test_raising_task_keeps_the_pool(self):
        replication_map(_pid, 8, 1, 2)
        workers = _pool_pids()
        with pytest.raises(ValueError, match="chunk 3 failed"):
            replication_map(_raise_at_3, 8, 1, 2)
        chunks = replication_map(_draws, 50, 3, 2)
        for (i1, d1), (i2, d2) in zip(chunks, replication_map(_draws, 50, 3), strict=True):
            np.testing.assert_array_equal(i1, i2)
            np.testing.assert_array_equal(d1, d2)
        assert _pool_pids() == workers

    def test_broken_pool_is_replaced(self):
        replication_map(_pid, 8, 1, 2)
        workers = _pool_pids()
        with pytest.raises(BrokenProcessPool):
            replication_map(_exit_at_3, 8, 1, 2)
        assert streams._pool is None and all(map(_gone, workers))
        assert not set(replication_map(_pid, 8, 1, 2)) & workers
        assert not _pool_pids() & workers

    def test_new_process_count_replaces_the_pool(self, monkeypatch):
        monkeypatch.setattr(streams, "_cores", lambda: 3)
        assert set(replication_map(_pid, 9, 1, 3)) <= _pool_pids()
        three = _pool_pids()
        assert len(three) == 3 and streams._pool[0] == (os.getpid(), 3)
        assert set(replication_map(_pid, 8, 1, 2)) <= _pool_pids()
        assert len(_pool_pids()) == 2 and not _pool_pids() & three
        assert all(map(_gone, three))

    def test_shutting_down_another_pool_keeps_this_one(self):
        replication_map(_pid, 8, 1, 2)
        kept = streams._pool
        streams._shutdown_pool(object())
        assert streams._pool is kept

    def test_forked_child_starts_its_own(self):
        replication_map(_pid, 8, 1, 2)
        workers, pool = _pool_pids(), streams._pool[1]
        context = multiprocessing.get_context("fork")
        receive, send = context.Pipe(duplex=False)
        child = context.Process(target=_pids_in_child, args=(send,))
        child.start()
        assert receive.poll(60)
        child_pid, pids = receive.recv()
        child.join(60)
        assert child.exitcode == 0
        assert child_pid == child.pid and not set(pids) & (workers | {child_pid, os.getpid()})
        assert all(map(_gone, pids))
        assert set(replication_map(_pid, 8, 1, 2)) <= workers
        assert streams._pool[1] is pool


@pytest.mark.skipif(_cores() < 2, reason="one core: no pool")
def test_process_exit_shuts_the_kept_pool_down():
    # two studies share the pool; at exit its workers are joined, with nothing on stderr
    code = (
        "import json, sys, sncoint\n"
        "from sncoint import streams\n"
        "print(json.dumps('concurrent.futures' in sys.modules))\n"
        "config, stats = sncoint.DgpConfig(T=50), sncoint.standard_statistics(['SN'])\n"
        "pids = []\n"
        "for seed in (1, 2):\n"
        "    result = sncoint.size_adjusted_power(config, stats, [1.0], reps=50, seed=seed, workers=2)\n"
        "    pids.append(sorted(streams._pool[1]._processes))\n"
        "print(json.dumps([result.meta['processes'], pids]))\n"
    )
    src = str(Path(streams.__file__).resolve().parents[1])
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, timeout=60,
    )  # fmt: skip
    assert time.monotonic() - start < 30
    assert done.returncode == 0 and done.stderr == "", done.stderr
    loaded, (processes, (first, second)) = map(json.loads, done.stdout.splitlines())
    assert loaded is False and processes == 2
    assert first == second and len(first) == 2
    assert all(map(_gone, first))


def _blas_threads(indices=None) -> int:
    """This process's thread count of numpy's bundled OpenBLAS."""
    (dll,) = streams._DLLS
    return getattr(dll, streams._SET_THREADS.__name__.replace("_set_", "_get_"))()


def test_pool_layout_counts_the_cores_this_process_may_use(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert pool_layout(100, 10, 4) == (10, 1)


SMALL_BYTES = 16_000_000  # under the 32 MiB mmap threshold: kept in the heap once freed
LARGE_BYTES = 48_000_000  # above it: mapped, and handed back when freed


def _pages(n_bytes: int) -> int:
    return n_bytes // resource.getpagesize()


def _faults(n_bytes: int, indices=None) -> int:
    """Minor page faults of allocating, touching and freeing one block of
    ``n_bytes`` (a bytearray, which is zeroed on allocation; numpy would ask
    for huge pages)."""
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    len(bytearray(n_bytes))
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


def _second_block(indices) -> int:
    _faults(SMALL_BYTES)
    return _faults(SMALL_BYTES)


class TestMemoryRetention:
    """Every replication loop fixes glibc's thresholds at 32 MiB (mmap) and
    64 MiB (trim), seen in minor page faults: a freed block under the mmap
    threshold is reused, in the loop and after it, and one above it is not."""

    pytestmark = pytest.mark.skipif(not MEMORY_RETAINED, reason="glibc's mallopt not found")

    def test_in_process_chunks_reuse_a_block(self):
        assert sum(replication_map(partial(_faults, SMALL_BYTES), 4, 1)) < 1.5 * _pages(SMALL_BYTES)

    def test_reused_after_the_loop(self):
        replication_map(partial(_faults, SMALL_BYTES), 2, 1)
        assert _faults(SMALL_BYTES) < 0.5 * _pages(SMALL_BYTES)

    def test_block_above_the_bound_is_handed_back(self):
        inside = replication_map(partial(_faults, LARGE_BYTES), 2, 1)
        assert min(inside) > 0.9 * _pages(LARGE_BYTES)
        assert _faults(LARGE_BYTES) > 0.9 * _pages(LARGE_BYTES)

    @pytest.mark.skipif(_cores() < 2, reason="one core: no pool")
    def test_pool_workers_reuse_a_block(self):
        assert pool_layout(2, 1, 2) == (2, 2)
        assert max(replication_map(_second_block, 2, 1, 2)) < 0.5 * _pages(SMALL_BYTES)


class TestMemoryRetentionSwitch:
    def fake_allocator(self, monkeypatch, retained: bool, verdict: int) -> list:
        calls = []
        monkeypatch.setattr(streams, "MEMORY_RETAINED", retained)
        monkeypatch.setattr(streams, "_MALLOPT", lambda *args: calls.append(args) or verdict)
        monkeypatch.setattr(streams, "_SET_THREADS", lambda n: None)  # _init_worker here keeps this process's BLAS
        return calls

    def test_without_glibc_nothing_is_set(self, monkeypatch):
        expected = replication_map(_draws, 20, 3)
        calls = self.fake_allocator(monkeypatch, False, 1)
        for (i1, d1), (i2, d2) in zip(replication_map(_draws, 20, 3), expected, strict=True):
            np.testing.assert_array_equal(i1, i2)
            np.testing.assert_array_equal(d1, d2)
        streams._init_worker()
        assert calls == []

    def test_each_loop_and_worker_sets_the_one_table(self, monkeypatch):
        calls = self.fake_allocator(monkeypatch, True, 1)
        replication_map(len, 3, 2)
        assert calls == [*streams._THRESHOLDS.items()]
        replication_map(len, 3, 2)
        streams._init_worker()
        assert calls == [*streams._THRESHOLDS.items()] * 3
        assert streams._THRESHOLDS == {streams._M_MMAP_THRESHOLD: 32 << 20, streams._M_TRIM_THRESHOLD: 64 << 20}

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


# For each bound, keys (i, 0) and (i, 1) whose first 3,999 halves of seed 7
# hold one that numpy's bounded-integer rule rejects, so only the redraw
# fallback gets their rows right. At 2**31 + 1 about half of all halves are
# rejected, so every row redraws; at 1 and 2 (2**32 % high == 0) none can.
REDRAW_SEED, REDRAW_SIZE = 7, 3999
REDRAWS = {98: (2014, 34987), 997: (1793, 391), 2**31 + 1: (4, 4), 2**32 - 1: (437172, 5376308)}
HIGHS = [1, 2, 98, 997, 2**31 + 1, 2**32 - 1]


def _rejects(seed, key, high, size):
    """Whether numpy's rule rejects one of the first ``size`` 32-bit halves
    of the stream's raw words (low half first): half * high mod 2**32 below
    2**32 % high. Built from numpy's own SeedSequence, not from ``streams``."""
    raw = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)).random_raw(-(-size // 2))
    halves = np.column_stack([raw & 0xFFFFFFFF, raw >> 32]).ravel()[:size]
    return bool(((halves * np.uint64(high)) % np.uint64(2**32) < 2**32 % high).any())


class TestSubstreamIntegers:
    @pytest.mark.parametrize("high", HIGHS)
    @pytest.mark.parametrize("size", [REDRAW_SIZE, REDRAW_SIZE + 1], ids=["odd", "even"])
    @pytest.mark.parametrize("attempt", [0, 1])
    def test_equal_generator_integers(self, high, size, attempt):
        indices = [*range(4), *REDRAWS.get(high, ())[attempt : attempt + 1]]
        keys = np.column_stack([indices, np.full(len(indices), attempt)])
        out = substream_integers(REDRAW_SEED, keys, high, size)
        assert out.dtype == np.int64 and out.shape == (len(keys), size)
        for row, rng in zip(out, substreams(REDRAW_SEED, keys)):
            np.testing.assert_array_equal(row, rng.integers(0, high, size))

    @pytest.mark.parametrize("high", REDRAWS)
    def test_redraw_keys_hit_a_rejected_half(self, high):
        for attempt, index in enumerate(REDRAWS[high]):
            assert _rejects(REDRAW_SEED, (index, attempt), high, REDRAW_SIZE)

    def test_short_draws_and_one_row_calls(self):
        keys = np.column_stack([np.arange(6), np.zeros(6, dtype=int)])
        for size in (0, 1, 2, 3, 202):
            out = substream_integers(5, keys, 96, size)
            assert out.shape == (6, size)
            for (i, attempt), row in zip(keys, out):
                np.testing.assert_array_equal(row, substream(5, int(i), int(attempt)).integers(0, 96, size))

    def test_zero_rows(self):
        out = substream_integers(3, np.empty((0, 2), dtype=int), 98, 5)
        assert out.shape == (0, 5) and out.dtype == np.int64

    @pytest.mark.parametrize(
        "high, size, error, message",
        [(0, 5, ValueError, "high must be at least 1, got 0"),
         (2**32, 5, ValueError, "high must be below 2\\*\\*32, got 4294967296"),
         (98, -1, ValueError, "size must be at least 0, got -1"),
         (98.0, 5, TypeError, "high must be an integer, got 98.0"),
         (98, True, TypeError, "size must be an integer, got True")],
        ids=["high-0", "high-2**32", "negative-size", "float-high", "bool-size"],
    )  # fmt: skip
    def test_refuses_bad_bounds(self, high, size, error, message):
        with pytest.raises(error, match=f"^{message}$"):
            substream_integers(1, [[0, 0]], high, size)
