"""Parallel shard builds must be indistinguishable from serial ones.

``build_sharded(worker_pool=True)`` builds every shard — page-store
write plus index construction — concurrently, one warm pool worker per
populated shard.  Nothing about the result may depend on *where* a shard
was built: router answers, shard membership, and the bytes of every
shard file have to match the in-process build exactly.
"""

import filecmp
import os

import pytest

from repro.cluster import build_sharded, open_sharded

K = 4


def _answers(router, queries, k=K):
    out = []
    for query in queries:
        neighbors, stats = router.search(query, k=k)
        out.append(
            (
                [(n.seq_id, n.distance) for n in neighbors],
                stats.candidates_pruned
                + stats.full_retrievals
                + stats.quarantined,
            )
        )
    return out


@pytest.mark.parametrize(
    "backend", ("flat", "vptree", "mvptree", "mtree", "rtree", "scan")
)
def test_parallel_build_matches_serial(backend, matrix, queries):
    serial = build_sharded(
        matrix, shards=4, backend=backend, seed=3, worker_pool=False
    )
    with build_sharded(
        matrix, shards=4, backend=backend, seed=3, worker_pool=True
    ) as parallel:
        assert _answers(serial, queries) == _answers(parallel, queries)


def test_parallel_build_writes_identical_shard_files(matrix, tmp_path):
    serial_dir = tmp_path / "serial"
    parallel_dir = tmp_path / "parallel"
    build_sharded(
        matrix,
        shards=3,
        backend="flat",
        directory=serial_dir,
        worker_pool=False,
    ).close()
    build_sharded(
        matrix,
        shards=3,
        backend="flat",
        directory=parallel_dir,
        worker_pool=True,
    ).close()
    files = sorted(f for f in os.listdir(serial_dir) if f.endswith(".pages"))
    assert files == sorted(
        f for f in os.listdir(parallel_dir) if f.endswith(".pages")
    )
    for name in files:
        assert filecmp.cmp(
            serial_dir / name, parallel_dir / name, shallow=False
        ), name


def test_parallel_built_directory_reopens(matrix, queries, tmp_path):
    """A pool-built directory round-trips through open_sharded."""
    directory = tmp_path / "pool"
    with build_sharded(
        matrix, shards=4, backend="flat", directory=directory, worker_pool=True
    ) as router:
        expected = _answers(router, queries)
    with open_sharded(directory, worker_pool=False) as reopened:
        assert _answers(reopened, queries) == expected
