"""Persistent shard worker pool: bit-identity, worker death, hygiene.

The contract under test (see ``docs/CONCURRENCY.md``): a pooled router
is indistinguishable from the serial scatter-gather — same candidates,
same answers bit for bit, same accounting invariant — except that the
per-shard generators run in long-lived worker processes.  Worker death
never hangs a gather and never changes an answer's *exactness*: the
dead shard is served by the parent's exhaustive fallback (degraded but
correct), and the worker is respawned from its spec for later requests.
Every exit path — success, exception, kill — must leave zero worker
processes and zero ``/dev/shm`` segments behind.
"""

import filecmp
import glob
import os
import signal
import time

import numpy as np
import pytest

from repro.cluster import ShardWorkerPool, build_sharded, open_sharded
from repro.engine import search_many
from repro.exceptions import ReproError, WorkerCrashError
from repro.resilience.quarantine import quarantine_of
from repro.resilience.retry import active_policy, policy_context
from repro.storage.shm import SEGMENT_PREFIX

BACKENDS = ("flat", "vptree", "mvptree", "mtree", "rtree", "scan")
SHARD_COUNTS = (1, 2, 4, 7)


def _segments():
    return set(glob.glob(f"/dev/shm/{SEGMENT_PREFIX}*"))


def as_pairs(neighbors):
    return [(n.distance, n.seq_id, n.name) for n in neighbors]


def assert_invariant(stats, size):
    assert (
        stats.candidates_pruned + stats.full_retrievals + stats.quarantined
        == size
    )


@pytest.fixture(autouse=True)
def no_leaked_state():
    """Every test must clean up its workers and its shared memory.

    Measured as a delta: when the whole suite runs with
    ``REPRO_SHARD_WORKERS`` set, earlier tests' unclosed routers leave
    daemon workers behind (they die with the interpreter), and those
    must not be billed to this test.
    """
    segments_before = _segments()
    workers_before = {proc.pid for proc in _live_workers()}
    yield
    leaked = _segments() - segments_before
    assert not leaked, f"leaked shared-memory segment(s): {sorted(leaked)}"
    new_workers = [
        proc for proc in _live_workers() if proc.pid not in workers_before
    ]
    assert not new_workers, f"leaked worker process(es): {new_workers}"


def _kill_and_wait(pool, shard):
    os.kill(pool.pids()[shard], signal.SIGKILL)
    deadline = time.monotonic() + 10.0
    while pool.pids()[shard] is not None:
        assert time.monotonic() < deadline, "worker did not die"
        time.sleep(0.01)


# ----------------------------------------------------------------------
# Bit-identity: pooled == serial scatter, every backend x shard count
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_pool_agrees_with_serial_scatter(matrix, queries, backend, shards):
    serial = build_sharded(
        matrix, shards=shards, backend=backend, worker_pool=False
    )
    expected_knn, expected_stats = [], []
    for query in queries:
        neighbors, stats = serial.search(query, k=5)
        expected_knn.append(as_pairs(neighbors))
        expected_stats.append(stats)
    radius = expected_knn[0][-1][0] * 1.1
    expected_range = as_pairs(serial.range_search(queries[0], radius)[0])
    expected_batch = [
        as_pairs(neighbors)
        for neighbors, _ in search_many(serial, queries, k=5)
    ]
    serial.close()

    with build_sharded(
        matrix, shards=shards, backend=backend, worker_pool=True
    ) as router:
        assert router.worker_pool is not None
        for query, expected, serial_stats in zip(
            queries, expected_knn, expected_stats
        ):
            neighbors, stats = router.search(query, k=5)
            assert as_pairs(neighbors) == expected
            assert_invariant(stats, len(router))
            assert stats.full_retrievals == serial_stats.full_retrievals
            assert stats.candidates_pruned == serial_stats.candidates_pruned
        assert (
            as_pairs(router.range_search(queries[0], radius)[0])
            == expected_range
        )
        batch = [
            as_pairs(neighbors)
            for neighbors, _ in search_many(router, queries, k=5)
        ]
        assert batch == expected_batch


def test_pooled_build_writes_byte_identical_shards(matrix, queries, tmp_path):
    serial_dir = tmp_path / "serial"
    pooled_dir = tmp_path / "pooled"
    serial = build_sharded(
        matrix, shards=4, backend="flat",
        directory=serial_dir, worker_pool=False,
    )
    expected = [as_pairs(serial.search(q, k=3)[0]) for q in queries]
    serial.close()
    with build_sharded(
        matrix, shards=4, backend="flat",
        directory=pooled_dir, worker_pool=True,
    ) as router:
        assert [
            as_pairs(router.search(q, k=3)[0]) for q in queries
        ] == expected
    for name in sorted(os.listdir(serial_dir)):
        assert filecmp.cmp(
            serial_dir / name, pooled_dir / name, shallow=False
        ), f"{name} differs between serial and pooled builds"

    # ... and a pooled reopen serves the same answers from those files.
    with open_sharded(pooled_dir, worker_pool=True) as router:
        assert router.worker_pool is not None
        assert [
            as_pairs(router.search(q, k=3)[0]) for q in queries
        ] == expected


def test_env_switch_enables_pool(matrix, monkeypatch):
    monkeypatch.setenv("REPRO_SHARD_WORKERS", "4")
    with build_sharded(matrix, shards=2, backend="flat") as router:
        assert router.worker_pool is not None
    monkeypatch.setenv("REPRO_SHARD_WORKERS", "0")
    router = build_sharded(matrix, shards=2, backend="flat")
    assert router.worker_pool is None
    router.close()


def test_env_switch_rejects_junk(matrix, monkeypatch):
    """A mistyped switch fails loudly instead of leaving the pool off."""
    monkeypatch.setenv("REPRO_SHARD_WORKERS", "yes")
    with pytest.raises(ReproError, match="REPRO_SHARD_WORKERS"):
        build_sharded(matrix, shards=2, backend="flat")
    monkeypatch.setenv("REPRO_SHARD_WORKERS", "-1")
    router = build_sharded(matrix, shards=2, backend="flat")
    assert router.worker_pool is None
    router.close()


def test_start_method_rejects_junk(matrix, monkeypatch):
    """An unknown start method names the variable and the valid methods.

    The pooled build fails before any worker spawns and frees its
    shared-memory arena (checked by the autouse leak fixture).
    """
    import multiprocessing

    monkeypatch.setenv("REPRO_POOL_START_METHOD", "forkserve")
    with pytest.raises(ReproError, match="REPRO_POOL_START_METHOD") as caught:
        build_sharded(matrix, shards=2, backend="flat", worker_pool=True)
    for method in multiprocessing.get_all_start_methods():
        assert method in str(caught.value)


# ----------------------------------------------------------------------
# Worker-kill drills
# ----------------------------------------------------------------------
def test_sigkill_mid_flight_degrades_and_stays_exact(matrix, queries):
    """SIGKILL with no respawn budget: degraded answer, invariant holds.

    The oracle is a *serial* router whose same shard's generator fails:
    the pooled degraded answer (exhaustive fallback for the dead shard,
    its failure noted on the router's quarantine) must match it bit for
    bit.
    """
    query = queries[0]
    with build_sharded(
        matrix, shards=4, backend="flat", worker_pool=True
    ) as router:
        pool = router.worker_pool
        victim = next(s for s, pid in pool.pids().items() if pid)
        pool._respawns[victim] = pool._max_respawns  # no resurrection
        _kill_and_wait(pool, victim)
        neighbors, stats = router.search(query, k=5)
        assert stats.degraded
        assert_invariant(stats, len(router))
        assert quarantine_of(router).generator_failures >= 1
        got = as_pairs(neighbors)

    serial = build_sharded(
        matrix, shards=4, backend="flat", worker_pool=False
    )
    def boom(*args, **kwargs):
        raise ReproError("injected generator failure")
    serial._shards[victim].knn_candidates = boom
    expected, expected_stats = serial.search(query, k=5)
    serial.close()
    assert expected_stats.degraded
    assert got == as_pairs(expected)


def test_sigkill_then_respawn_serves_clean(matrix, queries):
    query = queries[0]
    with build_sharded(
        matrix, shards=4, backend="flat", worker_pool=True
    ) as router:
        pool = router.worker_pool
        clean = as_pairs(router.search(query, k=5)[0])
        victim = next(s for s, pid in pool.pids().items() if pid)
        old_pid = pool.pids()[victim]
        _kill_and_wait(pool, victim)
        neighbors, stats = router.search(query, k=5)
        # Death was noticed between requests: the worker is rebuilt
        # from its spec and the answer is clean, not degraded.
        assert not stats.degraded
        assert as_pairs(neighbors) == clean
        assert pool.respawn_count(victim) == 1
        assert pool.pids()[victim] not in (None, old_pid)
        assert all(pool.heartbeat().values())


def test_sigkill_during_batch_falls_back_and_stays_exact(matrix, queries):
    expected = None
    serial = build_sharded(
        matrix, shards=4, backend="flat", worker_pool=False
    )
    expected = [
        as_pairs(neighbors)
        for neighbors, _ in search_many(serial, queries, k=5)
    ]
    serial.close()
    with build_sharded(
        matrix, shards=4, backend="flat", worker_pool=True
    ) as router:
        pool = router.worker_pool
        victim = next(s for s, pid in pool.pids().items() if pid)
        _kill_and_wait(pool, victim)
        results = search_many(router, queries, k=5)
        # Whether the batch hit the dead worker (per-query fallback) or
        # a respawned one, the answers are the serial answers.
        assert [as_pairs(neighbors) for neighbors, _ in results] == expected


def test_degrade_disabled_raises_worker_crash(matrix, queries):
    with build_sharded(
        matrix, shards=4, backend="flat", worker_pool=True
    ) as router:
        pool = router.worker_pool
        victim = next(s for s, pid in pool.pids().items() if pid)
        pool._respawns[victim] = pool._max_respawns
        _kill_and_wait(pool, victim)
        with policy_context(active_policy().with_(degrade=False)):
            with pytest.raises(WorkerCrashError):
                router.search(queries[0], k=5)


def test_exhausted_budget_stays_degraded(matrix, queries):
    with build_sharded(
        matrix, shards=4, backend="flat", worker_pool=True
    ) as router:
        pool = router.worker_pool
        victim = next(s for s, pid in pool.pids().items() if pid)
        pool._respawns[victim] = pool._max_respawns
        _kill_and_wait(pool, victim)
        for _ in range(2):
            _, stats = router.search(queries[0], k=5)
            assert stats.degraded
            assert_invariant(stats, len(router))
        assert pool.respawn_count(victim) == pool._max_respawns
        assert pool.heartbeat()[victim] is False


# ----------------------------------------------------------------------
# Lifecycle hygiene
# ----------------------------------------------------------------------
def test_close_reaps_workers_and_segments(matrix):
    router = build_sharded(
        matrix, shards=4, backend="flat", worker_pool=True
    )
    pool = router.worker_pool
    pids = [pid for pid in pool.pids().values() if pid]
    assert pids and _segments()
    router.close()
    assert pool.closed
    for pid in pids:
        with pytest.raises(OSError):
            os.kill(pid, 0)  # ESRCH: process fully reaped
    router.close()  # idempotent
    with pytest.raises(ReproError):
        pool.scatter_knn(matrix[0], 1)


def test_failed_warmup_tears_everything_down(matrix, tmp_path):
    """A worker that cannot build must not orphan its siblings."""
    directory = tmp_path / "shards"
    build_sharded(
        matrix, shards=4, backend="flat",
        directory=directory, worker_pool=False,
    ).close()
    victims = sorted(directory.glob("shard-*.pages"))
    original = victims[1].read_bytes()
    victims[1].write_bytes(original[: len(original) // 2])  # torn file
    workers_before = {proc.pid for proc in _live_workers()}
    with pytest.raises(ReproError):
        open_sharded(directory, worker_pool=True)
    assert not [
        proc for proc in _live_workers() if proc.pid not in workers_before
    ]


def test_spec_size_mismatch_fails_warmup(matrix):
    from repro.cluster.pool import ShardSpec

    spec = ShardSpec(
        shard=0,
        backend="flat",
        size=len(matrix) + 7,  # lie about the population
        sequence_length=matrix.shape[1],
        obs_name="index.sharded.shard00",
        store_path="/nonexistent/path.pages",
    )
    pool = ShardWorkerPool([spec], None, shard_count=1)
    with pytest.raises(ReproError):
        pool.start()
    assert pool.closed


def _live_workers():
    import multiprocessing

    return [
        child
        for child in multiprocessing.active_children()
        if child.name.startswith("repro-shard-worker")
    ]
