"""Cross-shard agreement: sharded answers are bit-identical to unsharded.

The router's gather stage rebuilds the global sigma from per-shard upper
bounds and re-filters merged candidates, so the shared verifier sees a
candidate population equivalent to the monolithic one.  The acceptance
bar (ISSUE 4): for every registered backend and shard counts {1, 2, 4,
7}, k-NN and range results — ids, exact float distances, ordering — and
the extended accounting invariant match the unsharded index exactly.
"""

import numpy as np
import pytest

from repro.cluster import build_sharded
from repro.engine import available_indexes, get_index, search_many

#: Every non-sharded registry backend is a shard backend.
BACKENDS = tuple(
    name for name in available_indexes() if name != "sharded"
)
SHARD_COUNTS = (1, 2, 4, 7)


def as_pairs(hits):
    return [(h.distance, h.seq_id) for h in hits]


def assert_invariant(stats, size):
    assert (
        stats.candidates_pruned + stats.full_retrievals + stats.quarantined
        == size
    )


def test_every_backend_is_covered():
    assert set(BACKENDS) == set(available_indexes()) - {"sharded"}


@pytest.mark.parametrize("shards", SHARD_COUNTS)
@pytest.mark.parametrize("backend", BACKENDS)
class TestAgreement:
    def test_knn_bit_identical(self, matrix, queries, backend, shards):
        mono = get_index(backend, matrix)
        router = build_sharded(matrix, shards=shards, backend=backend)
        for query in queries:
            for k in (1, 2, 5, 9):
                expected, _ = mono.search(query, k=k)
                got, stats = router.search(query, k=k)
                assert as_pairs(got) == as_pairs(expected), (
                    backend,
                    shards,
                    k,
                )
                assert_invariant(stats, len(matrix))

    def test_range_bit_identical(self, matrix, queries, backend, shards):
        mono = get_index(backend, matrix)
        router = build_sharded(matrix, shards=shards, backend=backend)
        for query in queries:
            far, _ = mono.search(query, k=9)
            for radius in (far[4].distance, 0.0):
                expected, _ = mono.range_search(query, radius=radius)
                got, stats = router.range_search(query, radius=radius)
                assert as_pairs(got) == as_pairs(expected), (
                    backend,
                    shards,
                    radius,
                )
                assert_invariant(stats, len(matrix))


@pytest.mark.parametrize("backend", BACKENDS)
def test_batched_fanout_matches_monolithic(matrix, queries, backend):
    mono = get_index(backend, matrix)
    router = build_sharded(matrix, shards=4, backend=backend)
    batch = np.stack(queries)
    expected = search_many(mono, batch, k=4)
    got = search_many(router, batch, k=4)
    assert [as_pairs(hits) for hits, _ in got] == [
        as_pairs(hits) for hits, _ in expected
    ], backend
    for _, stats in got:
        assert_invariant(stats, len(matrix))


@pytest.mark.parametrize("policy", ["hash", "round_robin"])
def test_duplicates_split_across_shards_keep_id_order(matrix, policy):
    """Tied duplicate rows on different shards still rank by global id."""
    first_twin = len(matrix) - 6
    router = build_sharded(matrix, shards=4, policy=policy, backend="flat")
    straddling = [
        (i, first_twin + i)
        for i in range(6)
        if router.shard_of(i) != router.shard_of(first_twin + i)
    ]
    # The fixture's duplicated pairs really do straddle shards.
    assert straddling
    for original, twin in straddling:
        hits, _ = router.search(matrix[original], k=2)
        assert [(h.distance, h.seq_id) for h in hits] == [
            (0.0, original),
            (0.0, twin),
        ]


def test_pooled_scatter_matches_serial_per_query(matrix, queries):
    serial = build_sharded(
        matrix, shards=3, backend="vptree", worker_pool=False
    )
    with build_sharded(
        matrix, shards=3, backend="vptree", worker_pool=True
    ) as pooled:
        for query in queries:
            a, _ = serial.search(query, k=5)
            b, _ = pooled.search(query, k=5)
            assert as_pairs(a) == as_pairs(b)


def test_streaming_backend_pooled_scatter(matrix, queries):
    """R-tree streams must materialise cleanly inside pool workers."""
    mono = get_index("rtree", matrix)
    with build_sharded(
        matrix, shards=3, backend="rtree", worker_pool=True
    ) as pooled:
        for query in queries:
            expected, _ = mono.search(query, k=3)
            got, stats = pooled.search(query, k=3)
            assert as_pairs(got) == as_pairs(expected)
            assert_invariant(stats, len(matrix))
