"""Block-batched tree traversal ≡ the per-node traversal.

The VP-tree and MVP-tree bound whole subtree blocks with one kernel call
(``repro.index.blocks``).  Everything the traversal hands on — the
candidate list, ``sigma_sq``, ``top_ubs`` and every ``SearchStats``
field — must equal the per-node algorithm kept in
:mod:`tests.index.pernode_oracle`, and so must the final answers, across
tombstones, inserts that rebuild a leaf, ``save``/``load`` (including a
file written before the block layout existed), pickling and parallel
shard builds.  The physical kernel work is pinned separately.
"""

import math
import os
import pickle

import numpy as np
import pytest

from repro import obs
from repro.cluster import build_sharded
from repro.compression import BestMinErrorCompressor
from repro.engine.core import execute_knn, execute_range
from repro.exceptions import SeriesMismatchError
from repro.index import FlatSketchIndex, MVPTreeIndex, VPTreeIndex
from repro.index.blocks import BLOCK_ROWS
from repro.index.results import SearchStats
from repro.index.vptree import _InternalNode
from repro.storage.pagestore import MemorySequenceStore
from repro.timeseries import zscore
from tests.index.pernode_oracle import PerNodeOracle

TREES = {"vptree": VPTreeIndex, "mvptree": MVPTreeIndex}
DATA = os.path.join(os.path.dirname(__file__), "data")


def make_db(count, n=32, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    return np.array(
        [
            zscore(
                np.sin(2 * np.pi * t / [5, 9, 14][i % 3] + rng.uniform(0, 6))
                + 0.4 * rng.normal(size=n)
            )
            for i in range(count)
        ]
    )


@pytest.fixture(scope="module")
def matrix():
    return make_db(700)


@pytest.fixture(scope="module")
def queries():
    return list(make_db(6, seed=11)) + [make_db(700)[42] * 1.01]


def _radii(matrix, query):
    distances = np.sort(np.linalg.norm(matrix - query, axis=1))
    return (0.5 * (distances[0] + distances[1]), float(distances[9]))


def assert_identical(index, queries, matrix=None, ks=(1, 5, 12)):
    """Generators, stats and answers equal the per-node oracle's."""
    oracle = PerNodeOracle(index)
    for query in queries:
        for k in ks:
            got_stats, want_stats = SearchStats(), SearchStats()
            got = index.knn_candidates(query, k, got_stats)
            want = oracle.knn_candidates(query, k, want_stats)
            assert got == want
            assert got_stats == want_stats
            assert index.search(query, k=k) == execute_knn(oracle, query, k)
        radii = _radii(matrix, query) if matrix is not None else (1.0, 4.0)
        for radius in radii:
            got_stats, want_stats = SearchStats(), SearchStats()
            got = index.range_candidates(query, radius, got_stats)
            want = oracle.range_candidates(query, radius, want_stats)
            assert got == want
            assert got_stats == want_stats
            assert index.range_search(query, radius) == execute_range(
                oracle, query, radius
            )


@pytest.mark.parametrize("name", sorted(TREES))
@pytest.mark.parametrize("leaf_size", (1, 4, 16))
def test_fresh_build_matches_per_node(name, leaf_size, matrix, queries):
    index = TREES[name](matrix, leaf_size=leaf_size, seed=3)
    assert_identical(index, queries, matrix)


@pytest.mark.parametrize("name", sorted(TREES))
@pytest.mark.parametrize("method", ("best_min_error", "gemini"))
def test_other_bound_methods_match_per_node(name, method, matrix, queries):
    index = TREES[name](matrix, bound_method=method, seed=5)
    assert_identical(index, queries[:3], matrix, ks=(1, 7))


@pytest.mark.parametrize("name", sorted(TREES))
def test_layout_keeps_sketches_bitwise(name, matrix):
    """The laid-out database holds the batch-compressed rows unchanged."""
    from repro.compression import SketchDatabase

    index = TREES[name](matrix, seed=3)
    expected = SketchDatabase.from_matrix(matrix, BestMinErrorCompressor(14))
    got = index._layout.id_ordered().soa_blocks()
    for field, block in expected.soa_blocks().items():
        assert got[field].tobytes() == block.tobytes()


def _vantage_ids(node, depth=0, limit=3):
    if not isinstance(node, _InternalNode) or depth > limit:
        return []
    return [node.vantage_id] + _vantage_ids(node.left, depth + 1, limit) + (
        _vantage_ids(node.right, depth + 1, limit)
    )


def test_tombstoned_vantage_points_and_leaf_rows(matrix, queries):
    index = VPTreeIndex(matrix, leaf_size=8, seed=2)
    vantage = _vantage_ids(index._root)
    for seq_id in vantage[:6] + [5, 6, 7, 300, 301, 699]:
        if seq_id not in index._deleted:
            index.remove(seq_id)
    # Queries at the removed members: their upper bounds would be among
    # the k smallest if a tombstone leaked into sigma.
    near = [matrix[i] * 1.001 for i in vantage[:3] + [6, 300]]
    assert_identical(index, queries + near, matrix)


def test_insert_with_leaf_rebuild_follows_layout(matrix, queries):
    index = VPTreeIndex(matrix[:600], leaf_size=4, seed=1)
    index.remove(10)
    internal_before = _count_internal(index._root)
    rng = np.random.default_rng(8)
    # Near-copies of one row route to the same leaf and force rebuilds;
    # a tombstone inside it is dropped by the rebuild.
    for _ in range(40):
        index.insert(matrix[10] + 1e-3 * rng.normal(size=matrix.shape[1]))
    index.remove(600)
    for row in matrix[600:]:
        index.insert(row)
    assert _count_internal(index._root) > internal_before
    assert 10 not in _tree_ids(index._root)  # a stray row of the layout
    assert_identical(index, queries)
    # Answers stay exact against brute force over the live members.
    live = [i for i in range(700 + 40) if i not in index._deleted]
    stored = np.stack([index.store.read(i) for i in live])
    for query in queries:
        neighbors, _ = index.search(query, k=5)
        truth = sorted(
            zip(np.linalg.norm(stored - query, axis=1).tolist(), live)
        )[:5]
        assert [n.seq_id for n in neighbors] == [i for _, i in truth]


def _tree_ids(node) -> set[int]:
    if not isinstance(node, _InternalNode):
        return set(node.rows.tolist())
    return {node.vantage_id} | _tree_ids(node.left) | _tree_ids(node.right)


def _count_internal(node) -> int:
    if not isinstance(node, _InternalNode):
        return 0
    return 1 + _count_internal(node.left) + _count_internal(node.right)


def test_save_load_roundtrip_matches(matrix, queries, tmp_path):
    index = VPTreeIndex(matrix, leaf_size=5, seed=4)
    for seq_id in (1, 2, 3, 400):
        index.remove(seq_id)
    index.insert(matrix[7] * 0.5)
    path = tmp_path / "index.npz"
    index.save(path)
    loaded = VPTreeIndex.load(path)
    assert_identical(loaded, queries, matrix)
    for query in queries:
        assert loaded.search(query, k=6) == index.search(query, k=6)
        assert loaded.range_search(query, 4.0) == index.range_search(
            query, 4.0
        )


def test_file_written_before_block_layout_loads():
    """A file saved by the per-node implementation loads and answers as
    it did then (figures recorded when the file was written)."""
    loaded = VPTreeIndex.load(os.path.join(DATA, "vptree_pre_blocks.npz"))
    t = np.arange(16)
    query = zscore(np.sin(2 * np.pi * t / 6) + 0.1 * np.cos(t))

    neighbors, stats = loaded.search(query, k=5)
    assert [(n.seq_id, n.distance) for n in neighbors] == [
        (178, 2.0379734131975997),
        (133, 2.1164919030264624),
        (4, 2.168181423788886),
        (214, 2.433852539718539),
        (121, 2.838314758473201),
    ]
    assert (
        stats.full_retrievals,
        stats.bound_computations,
        stats.nodes_visited,
        stats.subtrees_pruned,
        stats.candidates_pruned,
        stats.candidates_after_traversal,
        stats.candidates_after_sub_filter,
    ) == (8, 255, 117, 2, 268, 251, 9)

    neighbors, stats = loaded.range_search(query, 2.5)
    assert [n.seq_id for n in neighbors] == [178, 133, 4, 214]
    assert (stats.full_retrievals, stats.bound_computations) == (4, 251)
    assert (stats.nodes_visited, stats.subtrees_pruned) == (116, 3)
    assert_identical(loaded, [query], ks=(1, 5))


@pytest.mark.parametrize("name", sorted(TREES))
def test_pickled_index_matches(name, matrix, queries):
    index = TREES[name](matrix, seed=6)
    clone = pickle.loads(pickle.dumps(index))
    # Block views are rebuilt over the clone's own database, not copied.
    views = clone._layout.views
    assert all(
        np.shares_memory(view.weights, clone._layout.db.weights)
        for view in views
    )
    assert_identical(clone, queries, matrix, ks=(3,))
    for query in queries:
        assert clone.search(query, k=4) == index.search(query, k=4)


@pytest.mark.parametrize("name", sorted(TREES))
def test_parallel_built_shards_match_per_node(name, matrix, queries):
    """In-process shards equal the per-node oracle; shards the pool
    builds in parallel during warm-up answer the same, stats included."""
    serial = build_sharded(
        matrix, shards=2, backend=name, seed=3, worker_pool=False
    )
    for serial_shard in serial._shards:
        assert_identical(serial_shard, queries[:3], ks=(2,))
    with build_sharded(
        matrix, shards=2, backend=name, seed=3, worker_pool=True
    ) as parallel:
        for query in queries[:3]:
            assert parallel.search(query, k=3) == serial.search(query, k=3)


def test_kernel_calls_batch_by_block():
    """Physical work: one call for the top vantage points plus one per
    entered block; the rows bounded but never consumed stay small."""
    matrix = make_db(4096, n=48, seed=21)
    index = VPTreeIndex(matrix, seed=0)
    query = make_db(1, n=48, seed=99)[0]
    with obs.observed() as registry:
        _, stats = index.search(query, k=10)
    calls = registry.counter("bounds.kernel_calls").value
    pairs = registry.counter("bounds.pairs").value
    assert calls <= math.ceil(4096 / BLOCK_ROWS) + 1
    assert pairs <= 1.5 * stats.bound_computations


@pytest.mark.parametrize(
    "factory", (FlatSketchIndex, VPTreeIndex, MVPTreeIndex)
)
def test_mismatched_store_is_rejected(factory):
    """A populated store must hold the matrix's rows, or the verifier
    would compare queries against other data than the index bounded."""
    matrix = make_db(64)
    short = MemorySequenceStore(32)
    short.append_matrix(make_db(32, seed=5))
    with pytest.raises(SeriesMismatchError):
        factory(matrix, store=short)
    wrong_length = MemorySequenceStore(40)
    wrong_length.append_matrix(make_db(64, n=40))
    with pytest.raises(SeriesMismatchError):
        factory(matrix, store=wrong_length)
    matching = MemorySequenceStore(32)
    matching.append_matrix(matrix)
    assert len(factory(matrix, store=matching)) == 64
