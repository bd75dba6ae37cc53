"""Reproducible random number streams and replication-parallel mapping.

Every randomized routine in this package derives its generator from a
master seed plus an integer key path. Replication ``i`` always sees the
same stream regardless of how many workers execute the loop. When
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

try:
    from threadpoolctl import threadpool_limits

    BLAS_PINNED = True

    @contextmanager
    def _single_threaded_blas():
        with threadpool_limits(limits=1):
            yield

except ImportError:  # pragma: no cover
    BLAS_PINNED = False

    @contextmanager
    def _single_threaded_blas():
        yield


__all__ = ["BLAS_PINNED", "substream", "replication_map", "chunk_map"]


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


def _call_indexed(args):
    fn, i = args
    with _single_threaded_blas():
        return fn(i)


def replication_map(fn: Callable[[int], object], n: int, workers: int = 1) -> list:
    """Evaluate ``fn(i)`` for i = 0..n-1, optionally on a process pool.

    Results are returned in index order, so the output is independent of
    scheduling. ``fn`` must be picklable when workers > 1 (module-level
    function or functools.partial of one).
    """
    if workers <= 1 or n <= 1:
        with _single_threaded_blas():
            return [fn(i) for i in range(n)]
    workers = min(workers, n, os.cpu_count() or 1)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(
            pool.map(_call_indexed, ((fn, i) for i in range(n)), chunksize=max(1, n // (8 * workers)))
        )


def _call_chunk(fn, n: int, size: int, chunk: int):
    return fn(np.arange(chunk * size, min(n, (chunk + 1) * size)))


def chunk_map(fn: Callable[[np.ndarray], object], n: int, size: int, workers: int = 1) -> list:
    """Evaluate ``fn(indices)`` over consecutive chunks of ``size`` indices
    of 0..n-1, one :func:`replication_map` task per chunk, in chunk order.

    ``size`` should depend on the problem only, never on ``workers``, so
    that results do not depend on the worker count either.
    """
    return replication_map(partial(_call_chunk, fn, n, size), -(-n // size), workers)
