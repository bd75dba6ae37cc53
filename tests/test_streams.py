import numpy as np
import pytest

from sncoint.streams import replication_map, substream


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
