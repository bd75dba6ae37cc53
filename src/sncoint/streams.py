"""Reproducible random number streams and the one replication driver.

Every randomized routine in this package derives its generator from a
master seed plus an integer key path. Replication ``i`` always sees the
same stream regardless of how many workers execute the loop, which
:func:`replication_map`, the one driver, runs in fixed chunks. When
``threadpoolctl`` is installed, BLAS is also pinned to one thread inside
replication work (threaded kernels can round differently from the
single-threaded ones forked workers fall back to); ``BLAS_PINNED`` says
whether that pinning is active, and drivers record it with their results.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from functools import partial
from typing import Callable

import numpy as np

try:  # pragma: no cover
    from threadpoolctl import threadpool_limits

    BLAS_PINNED = True

    @contextmanager
    def _single_threaded_blas():
        with threadpool_limits(limits=1):
            yield

except ImportError:
    BLAS_PINNED = False

    @contextmanager
    def _single_threaded_blas():
        yield


__all__ = ["BLAS_PINNED", "substream", "pool_layout", "replication_map"]


def substream(seed: int, *key: int) -> np.random.Generator:
    """Return the generator for the stream identified by (seed, key path).

    Parameters
    ----------
    seed : int
        Master seed.
    *key : int
        Integer path identifying the substream, e.g. a replication index,
        optionally followed by a retry counter.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(key)))


def _call_chunk(fn, n: int, size: int, chunk: int):
    with _single_threaded_blas():
        return fn(np.arange(chunk * size, min(n, (chunk + 1) * size)))


def pool_layout(n: int, size: int, workers: int) -> tuple[int, int]:
    """(chunks, processes) :func:`replication_map` uses for ``n`` indices in chunks of ``size``; 1 is in process."""
    chunks = -(-n // size)
    return chunks, max(1, min(workers, chunks, os.cpu_count() or 1))


def replication_map(fn: Callable[[np.ndarray], object], n: int, size: int, workers: int = 1) -> list:
    """Evaluate ``fn(indices)`` over consecutive chunks of ``size`` indices
    of 0..n-1, on a pool of :func:`pool_layout`'s processes when that is above 1.

    Results are returned in chunk order, so the output is independent of
    scheduling. ``size`` should depend on the problem only, never on
    ``workers``, so that results do not depend on the worker count
    either. ``fn`` must be picklable when workers > 1 (module-level
    function or functools.partial of one).
    """
    task, (chunks, workers) = partial(_call_chunk, fn, n, size), pool_layout(n, size, workers)
    if workers == 1:
        return [task(chunk) for chunk in range(chunks)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(task, range(chunks), chunksize=max(1, chunks // (8 * workers))))
