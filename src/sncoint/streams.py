"""Reproducible random number streams and the one replication driver.

Every randomized routine in this package derives its generator from a
master seed plus an integer key path: the stream (seed, key) is numpy's
``default_rng`` of the ``SeedSequence`` with entropy seed and ``spawn_key``
key, bit for bit. The ``SeedSequence`` hash is fixed by numpy's
stream-compatibility policy and its mixing is elementwise, so
:func:`substreams` runs it once, vectorized, over a whole chunk of keys and
seeds each row's ``PCG64`` from the words; :func:`substream` is its one-row
case. :func:`substream_integers` gives a chunk's bounded integers (the
bootstrap's resample indices) from each row's raw ``PCG64`` words by
numpy's own bounded-integer rule, vectorized over the chunk, bit for bit
with ``Generator.integers``. numpy's stream-compatibility policy fixes
the bit generator but not that rule, so tier-1 checks it against the
installed numpy's ``integers``. Replication ``i`` always sees the same
stream regardless of how many workers execute the loop, which
:func:`replication_map`, the one driver, runs in fixed chunks. Its pool
workers run numpy's bundled OpenBLAS on one thread (a worker otherwise
keeps the parent's thread count, and threaded kernels can round
differently and crowd the cores); ``BLAS_PINNED`` says whether that
OpenBLAS was found, and drivers record it with their results. An
in-process run leaves the caller's BLAS as it is.

Every replication loop fixes glibc's allocator thresholds at the ceiling
its dynamic rule reaches on 64-bit hosts: a block under 32 MiB comes from
the heap, and up to 64 MiB of free heap stays in the process, so chunk
after chunk reuses resident pages instead of mapping and faulting in fresh
ones for every fit (about a quarter of a T = 1,000 bootstrap test's CPU
time otherwise). An in-process loop sets them before its chunks, a pool
worker as it starts; nothing restores them, since glibc's first
``mallopt`` call ends its dynamic rule for good. ``MEMORY_RETAINED`` says
whether glibc's ``mallopt`` was found; elsewhere nothing is changed. No
number depends on it.

A process keeps one pool for its life, keyed by its pid and process count:
the first :func:`replication_map` call that needs one starts it, later
calls at that count reuse its warm workers, a call at another count
replaces it, and a forked child starts its own, leaving its parent's
alone. A broken pool (a worker died) is dropped and its error raised; the
pool is shut down when the process exits. Workers fork when the pool
starts, so they see module state as it was then: a monkeypatch made later
does not reach them.
"""

from __future__ import annotations

import ctypes
import glob
import os
import threading
import warnings
from functools import lru_cache, partial
from typing import Callable

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .timeseries import _check_integers

# The OpenBLAS numpy's wheel ships, and its thread-count setter by its name in numpy 2, then 1.x.
_DLLS = [ctypes.CDLL(lib) for lib in glob.glob(os.path.join(np.__path__[0] + ".libs", "*openblas*"))]
_SET_THREADS = next((getattr(dll, name) for dll in _DLLS for name in ("scipy_openblas_set_num_threads64_",
                     "openblas_set_num_threads64_") if hasattr(dll, name)), None)  # fmt: skip
BLAS_PINNED = _SET_THREADS is not None

# glibc's allocator tuning; musl and macOS have no mallopt.
_LIBC = ctypes.CDLL(None) if os.name == "posix" else None
_MALLOPT = getattr(_LIBC, "mallopt", None)
MEMORY_RETAINED = _MALLOPT is not None
if MEMORY_RETAINED:
    _MALLOPT.argtypes, _MALLOPT.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
# The ceiling glibc's dynamic rule reaches on 64-bit hosts (it has no getter, and any mallopt call ends
# that rule for good). At its 128 KiB start values, each T = 1,000 analysis after a bootstrap test
# faulted in about 120 fresh pages; at the ceiling, about 3.
_THRESHOLDS = {_M_MMAP_THRESHOLD: 32 << 20, _M_TRIM_THRESHOLD: 64 << 20}
_pool = None  # ((pid, processes), executor): the process pool this process keeps
_pool_lock = threading.Lock()

__all__ = ["BLAS_PINNED", "MEMORY_RETAINED", "substream", "substreams", "pool_layout", "replication_map"]

# numpy's SeedSequence: a pool of 4 uint32 words, hash constants advanced by
# fixed multipliers on every call (independent of the data), a 16-bit xor-shift.
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_WORD = 1 << 32
_OTHERS = [np.arange(_POOL) != i for i in range(_POOL)]


@lru_cache
def _constants(init: int, mult: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """init * mult**j mod 2**32 for j = 0..n-1, and for j = 1..n: the
    constants call j of the hash xors in and multiplies by (read-only, as cached)."""
    out = [init]
    for _ in range(n):
        out.append(out[-1] * mult % _WORD)
    xor, mul = np.array(out[:-1], dtype=np.uint32), np.array(out[1:], dtype=np.uint32)
    xor.flags.writeable = mul.flags.writeable = False
    return xor, mul


def _xorshift(v: np.ndarray) -> np.ndarray:
    return v ^ (v >> 16)


def _seed_words(seed: int, keys, n_words: int) -> np.ndarray:
    """(c, n_words) uint32: row r is ``generate_state(n_words)`` of numpy's
    ``SeedSequence`` with entropy ``seed`` and ``spawn_key=tuple(keys[r])``.

    ``keys`` is (c, n_key) with entries in [0, 2**32), one word each; ``seed``
    a nonnegative integer of any size, split into its 32-bit words. As in
    numpy, the seed words are padded with zeros to the pool size when the key
    is not empty, and entropy words beyond the pool are mixed in after it.
    """
    _check_integers(0, seed=seed)
    seed = int(seed)
    keys = np.asarray(keys)
    if keys.ndim != 2:
        raise ValueError(f"need keys (c, n_key), got shape {keys.shape}")
    if keys.size and keys.dtype.kind not in "iuO":
        raise TypeError(f"stream keys must be integers, got dtype {keys.dtype}")
    if (bad := keys[(keys < 0) | (keys >= _WORD)]).size:
        raise ValueError(f"stream key entries must be integers in [0, 2**32), got {bad[0]}")
    run = [seed % _WORD]
    while seed := seed >> 32:
        run.append(seed % _WORD)
    if keys.shape[1]:
        run += [0] * (_POOL - len(run))
    n_entropy = len(run) + keys.shape[1]
    entropy = np.zeros((keys.shape[0], max(n_entropy, _POOL)), dtype=np.uint32)
    entropy[:, : len(run)], entropy[:, len(run) : n_entropy] = run, keys

    # The calls in numpy's order: each entropy word into its pool word, every
    # pool word into each other one, then each further entropy word into every
    # pool word; only the mixing of pool words into one another is sequential.
    xor, mul = _constants(_INIT_A, _MULT_A, _POOL * entropy.shape[1])
    pool = _xorshift((entropy[:, :_POOL] ^ xor[:_POOL]) * mul[:_POOL])
    for src, dst in enumerate(_OTHERS):
        j = _POOL + (_POOL - 1) * src
        hashed = _xorshift((pool[:, src, None] ^ xor[j : j + _POOL - 1]) * mul[j : j + _POOL - 1])
        pool[:, dst] = _xorshift(_MIX_L * pool[:, dst] - _MIX_R * hashed)
    extra = (entropy[:, _POOL:, None] ^ xor[_POOL**2 :].reshape(-1, _POOL)) * mul[_POOL**2 :].reshape(-1, _POOL)
    for hashed in _xorshift(extra).swapaxes(0, 1):
        pool = _xorshift(_MIX_L * pool - _MIX_R * hashed)
    xor, mul = _constants(_INIT_B, _MULT_B, n_words)
    return _xorshift((pool[:, np.arange(n_words) % _POOL] ^ xor) * mul)


class _Words(ISeedSequence):
    """One row's PCG64 seed words, handed to numpy's own PCG64 seeding, which
    asks for them once, as ``generate_state(4, np.uint64)``."""

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        return self.words


def _pcg64_seeds(seed: int, keys) -> list[_Words]:
    """Each row's PCG64 seed words, from one vectorized :func:`_seed_words`
    call: ``np.random.PCG64`` of row r's is the bit generator of numpy's
    ``default_rng`` of the ``SeedSequence`` with entropy ``seed`` and
    ``spawn_key=tuple(keys[r])``, bit for bit, however often it is built."""
    words = _seed_words(seed, keys, 8).astype("<u4", order="C").view("<u8").astype(np.uint64)
    return [_Words(row) for row in words]


def substreams(seed: int, keys) -> list[np.random.Generator]:
    """The generators of the streams (seed, key) for each row of ``keys``
    (c, n_key), from one :func:`_pcg64_seeds` call: row r's is numpy's
    ``default_rng`` of the ``SeedSequence`` with entropy ``seed`` and
    ``spawn_key=tuple(keys[r])``, bit for bit.

    A negative seed or key entry, or a key entry of 2**32 or more, raises
    :class:`ValueError`.
    """
    return [np.random.Generator(np.random.PCG64(words)) for words in _pcg64_seeds(seed, keys)]


def substream_integers(seed: int, keys, high: int, size: int) -> np.ndarray:
    """(c, size) int64: row r is ``substreams(seed, keys)[r].integers(0, high,
    size)``, bit for bit, for ``high`` in [1, 2**32) and ``size`` >= 0.

    numpy draws such an integer by Lemire's rule: a 32-bit half h of a raw
    PCG64 word, low half first, gives ``(h * high) >> 32``, unless the low
    product word falls below ``2**32 % high``, where it draws the next half
    instead. So each row takes ``ceil(size / 2)`` raw words from its own
    PCG64 and the rule runs once, vectorized, over the whole batch; the rare
    row with a redraw takes numpy's own ``integers`` call.
    """
    _check_integers(1, high=high)
    _check_integers(0, size=size)
    if high >= _WORD:
        raise ValueError(f"high must be below 2**32, got {high}")
    high, size = int(high), int(size)
    seeds = _pcg64_seeds(seed, keys)
    raw = np.empty((len(seeds), -(-size // 2)), dtype=np.uint64)
    for row, words in zip(raw, seeds):
        row[:] = np.random.PCG64(words).random_raw(raw.shape[1])
    halves = raw.astype("<u8", copy=False).view("<u4")[:, :size]  # low half first, as numpy reads them
    product = halves.astype(np.uint64) * np.uint64(high)
    out = (product >> np.uint64(32)).astype(np.int64)
    for r in np.flatnonzero((product.astype(np.uint32) < _WORD % high).any(axis=1)):
        out[r] = np.random.Generator(np.random.PCG64(seeds[r])).integers(0, high, size)
    return out


def substream(seed: int, *key: int) -> np.random.Generator:
    """Return the generator for the stream identified by (seed, key path):
    the one-row case of :func:`substreams`.

    Parameters
    ----------
    seed : int
        Master seed.
    *key : int
        Integer path identifying the substream, e.g. a replication index,
        optionally followed by a retry counter.
    """
    return substreams(seed, [key])[0]


def _call_chunk(fn, n: int, size: int, chunk: int):
    return fn(np.arange(chunk * size, min(n, (chunk + 1) * size)))


def _set_thresholds() -> None:
    """Fix glibc's allocator thresholds at ``_THRESHOLDS`` where mallopt was found; warn where it refuses one."""
    if MEMORY_RETAINED:
        for param, value in _THRESHOLDS.items():
            if _MALLOPT(param, value) != 1:
                warnings.warn(f"glibc's mallopt refused parameter {param} = {value}", RuntimeWarning)


def _init_worker() -> None:
    """Pool worker initializer: numpy's OpenBLAS on one thread where it was found, and the loops' thresholds."""
    if BLAS_PINNED:
        _SET_THREADS(1)
    _set_thresholds()


def _cores() -> int:
    """The cores this process may run on: its affinity set, where the OS has one."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def pool_layout(n: int, size: int, workers: int) -> tuple[int, int]:
    """(chunks, processes) :func:`replication_map` uses for ``n`` indices in chunks of ``size``; 1 is in process."""
    chunks = -(-n // size)
    return chunks, max(1, min(workers, chunks, _cores()))


def _shutdown_pool(pool=None) -> None:
    """Forget the kept pool (only if it is ``pool``, when given) and, if this
    process started it, shut it down and wait for its workers to exit."""
    global _pool
    with _pool_lock:
        kept = _pool
        if kept is None or pool not in (None, kept[1]):
            return
        _pool = None
    if kept[0][0] == os.getpid():
        kept[1].shutdown()


def replication_map(fn: Callable[[np.ndarray], object], n: int, size: int, workers: int = 1) -> list:
    """Evaluate ``fn(indices)`` over consecutive chunks of ``size`` indices
    of 0..n-1, on a pool of :func:`pool_layout`'s processes when that is above 1.

    Results are returned in chunk order, so the output is independent of
    scheduling. ``size`` should depend on the problem only, never on
    ``workers``, so that results do not depend on the worker count
    either. ``fn`` must be picklable when workers > 1 (module-level
    function or functools.partial of one).

    The pool is kept for the life of the process, keyed by its pid and
    process count, and shut down at exit (see the module docstring): its
    workers see module state as it was when the pool started. A call with
    another process count replaces it; a worker's death raises
    ``BrokenProcessPool`` and drops it.

    Freed memory below glibc's fixed thresholds stays in the process, in
    process and in each pool worker alike (see the module docstring), so
    chunks reuse resident pages; nothing is restored or trimmed after.
    """
    global _pool
    task, (chunks, workers) = partial(_call_chunk, fn, n, size), pool_layout(n, size, workers)
    if workers == 1:
        _set_thresholds()
        return [task(chunk) for chunk in range(chunks)]
    from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing: only for a pool
    from concurrent.futures.process import BrokenProcessPool
    from multiprocessing.util import Finalize

    key = (os.getpid(), workers)
    try:
        with _pool_lock:  # the tasks are queued before another thread may replace the pool
            if _pool is None or _pool[0] != key:
                if _pool is not None and _pool[0][0] == key[0]:
                    _pool[1].shutdown()
                else:
                    # This process's first pool, or its first since a shutdown: shut it down at
                    # exit, in a multiprocessing child too (which joins its children before atexit
                    # hooks run), and before the pool's queues close (their priority is 10).
                    Finalize(None, _shutdown_pool, exitpriority=20)
                _pool = key, ProcessPoolExecutor(max_workers=workers, initializer=_init_worker)
            pool = _pool[1]
            results = pool.map(task, range(chunks), chunksize=max(1, chunks // (8 * workers)))
        return list(results)
    except BrokenProcessPool:
        _shutdown_pool(pool)
        raise
