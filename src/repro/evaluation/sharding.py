"""The shard-scaling experiment: scatter-gather throughput vs shards.

The paper's evaluation (section 7) is monolithic — one index answers
every query.  The cluster layer splits the same population into N
self-contained shards behind a :class:`~repro.cluster.ShardRouter`, and
the engine's batched path runs a whole query stream as one sub-search
per shard (see :mod:`repro.engine.batch`), in process or on one
persistent pool worker per shard.  This experiment measures what that
buys: batched k-NN throughput over the same database and query workload
at increasing shard counts.

Exactness is asserted, not assumed.  Every sharded configuration's
results must be bit-identical — ids, distances and ordering — to the
monolithic index built from the same matrix; a mismatch flips the
result's ``agreement`` flag, which callers treat as failure.  Speedups
are therefore like-for-like: the router does the same exact search, just
partitioned.

In process, or on a host with fewer cores than shards, the speedup
column mostly shows partitioning overhead; the figure-of-merit pooled
runs need one real core per shard.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.cluster import build_sharded
from repro.engine import get_index, search_many
from repro.evaluation.reporting import format_table
from repro.exceptions import ReproError

__all__ = [
    "ShardScalingRow",
    "ShardScalingResult",
    "shard_scaling_experiment",
]


@dataclass(frozen=True)
class ShardScalingRow:
    """One shard count's cost for the whole batched query workload."""

    shards: int
    wall_seconds: float
    queries_per_second: float
    #: Throughput relative to the first configuration measured (the
    #: single-shard baseline, when ``shard_counts`` starts at 1).
    speedup: float


@dataclass(frozen=True)
class ShardScalingResult:
    """All measured shard counts plus the exactness verdict."""

    database_size: int
    queries: int
    k: int
    backend: str
    #: True iff every sharded configuration returned bit-identical
    #: results to the monolithic index.
    agreement: bool
    rows: tuple[ShardScalingRow, ...]
    #: Shard transport: ``"serial"`` (in process) or ``"pool"``
    #: (persistent shard workers).
    mode: str = "serial"

    def row_for(self, shards: int) -> ShardScalingRow:
        """The measured row for one shard count."""
        for row in self.rows:
            if row.shards == shards:
                return row
        raise ReproError(f"no row measured for {shards} shards")

    def as_table(self) -> str:
        rows = [
            (
                f"{row.shards} shard{'s' if row.shards != 1 else ''}",
                row.wall_seconds,
                row.queries_per_second,
                row.speedup,
            )
            for row in self.rows
        ]
        return format_table(
            ("configuration", "wall s", "queries/s", "speedup vs first"),
            rows,
            title=(
                f"shard scaling: {self.database_size} seqs, "
                f"{self.queries} queries, k={self.k}, "
                f"backend={self.backend}, {self.mode} transport"
            ),
            digits=3,
        )


def _pairs(results):
    """Canonical comparable form of ``search_many`` output."""
    return [
        [(hit.distance, hit.seq_id) for hit in hits] for hits, _ in results
    ]


def shard_scaling_experiment(
    matrix: np.ndarray,
    queries: np.ndarray,
    *,
    shard_counts: Sequence[int] = (1, 2, 4),
    k: int = 5,
    backend: str = "flat",
    policy: str = "hash",
    seed: int = 0,
    repeats: int = 1,
    worker_pool: bool = False,
    **index_kwargs,
) -> ShardScalingResult:
    """Measure batched k-NN throughput at each shard count.

    ``matrix``/``queries`` are the database and query workload;
    ``backend`` names the per-shard structure (also used, unsharded, as
    the agreement reference); remaining keywords go to the index
    constructors.  ``repeats`` takes the best of N timed runs per
    configuration, which filters pool start-up jitter on loaded hosts.
    ``worker_pool=True`` measures the persistent shard-worker transport
    instead of in-process sharding; workers are warmed during the
    untimed build, so the timed loop sees steady-state serving.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    queries = np.asarray(queries, dtype=np.float64)
    if not shard_counts:
        raise ReproError("need at least one shard count to measure")

    reference = get_index(backend, matrix, **index_kwargs)
    expected = _pairs(search_many(reference, queries, k=k))

    agreement = True
    rows: list[ShardScalingRow] = []
    base_wall: float | None = None
    for shards in shard_counts:
        router = build_sharded(
            matrix,
            shards=int(shards),
            policy=policy,
            seed=seed,
            backend=backend,
            worker_pool=worker_pool,
            **index_kwargs,
        )
        try:
            wall = math.inf
            results = None
            for _ in range(max(1, int(repeats))):
                started = time.perf_counter()
                results = search_many(router, queries, k=k)
                wall = min(wall, time.perf_counter() - started)
            agreement = agreement and _pairs(results) == expected
        finally:
            router.close()
        if base_wall is None:
            base_wall = wall
        rows.append(
            ShardScalingRow(
                shards=int(shards),
                wall_seconds=wall,
                queries_per_second=len(queries) / wall,
                speedup=base_wall / wall,
            )
        )

    return ShardScalingResult(
        database_size=len(matrix),
        queries=len(queries),
        k=k,
        backend=backend,
        agreement=agreement,
        rows=tuple(rows),
        mode="pool" if worker_pool else "serial",
    )
