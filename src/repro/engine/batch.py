"""Batched multi-query search: ``search_many(index, queries, k)``.

The verification hot path — blocked bulk fetches, one vectorised
distance kernel per block — lives in :mod:`repro.engine.core` and serves
single queries and batches alike (see ``_refine_knn_blocked`` there; it
is bit-identical to the scalar reference loop, stats included).  What
this module adds is the *batch axis*: validation amortised once per
matrix, an ``engine.search_many`` obs span, and the shard fan-out.

A monolithic index answers the batch in process, one query after the
other.  For a :class:`~repro.cluster.ShardRouter` the batch runs as one
full sub-search per *shard*, and the parent merges the per-shard
answers into global top-k results.  A router backed by a persistent
:class:`~repro.cluster.ShardWorkerPool` runs those sub-searches in
parallel: the batch is shipped to the already-warm workers in one
request per shard (see ``docs/CONCURRENCY.md``).
"""

from __future__ import annotations

import math

import numpy as np

from repro import obs
from repro.engine.approx import ApproxPolicy, resolve_policy
from repro.engine.core import (
    _activate_policy,
    _check_invariant,
    _generate_guarded,
    _publish_approx,
    _refine_knn,
)
from repro.exceptions import SeriesMismatchError
from repro.index.results import Neighbor, SearchStats

__all__ = ["search_many"]


def _search_one(
    index, query, k: int, policy: ApproxPolicy | None = None
) -> tuple[list[Neighbor], SearchStats]:
    """One query through the generator + the shared core verifier."""
    policy = resolve_policy(policy)
    size = len(index)
    stats = SearchStats()
    cands, stats = _generate_guarded(
        index, lambda s: index.knn_candidates(query, k, s), stats, size
    )
    active = _activate_policy(policy, stats)
    best = _refine_knn(index, query, k, cands, stats, size, active)
    _check_invariant(stats, size, index)
    _publish_approx(stats)
    neighbors = sorted(
        Neighbor(math.sqrt(d_sq), seq_id, index.result_name(seq_id))
        for d_sq, seq_id in best
    )
    return neighbors, stats


def _validate(index, queries) -> np.ndarray:
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim != 2:
        raise SeriesMismatchError(
            f"expected a 2-D query matrix, got shape {queries.shape}"
        )
    if queries.shape[1] != index.sequence_length:
        raise SeriesMismatchError(
            f"query length {queries.shape[1]} does not match database "
            f"sequences of length {index.sequence_length}"
        )
    return queries


def search_many(
    index,
    queries,
    k: int = 1,
    *,
    policy: ApproxPolicy | None = None,
) -> list[tuple[list[Neighbor], SearchStats]]:
    """k-NN for every row of ``queries``; returns one result per query.

    Parameters
    ----------
    index:
        Any engine index (see :func:`repro.engine.get_index`).
    queries:
        ``(q, n)`` matrix of queries, validated once for the whole batch.
    k:
        Neighbours per query.
    policy:
        An :class:`~repro.engine.ApproxPolicy` opting the whole batch
        into the approximate tier; ``None`` defers to the
        ``REPRO_APPROX_*`` knobs.  The policy is resolved once here and
        shipped explicitly to pooled workers, so a batch is never split
        across two readings of the environment.

    Each query's result is exactly what ``index.search(query, k,
    policy)`` returns; per-query stats are published to the active obs
    registry under the index's usual ``<obs_name>.search`` prefix, with
    the whole batch wrapped in an ``engine.search_many`` span.
    """
    queries = _validate(index, queries)
    if not 1 <= k <= len(index):
        raise ValueError(f"k must be in [1, {len(index)}], got {k}")
    policy = resolve_policy(policy)

    with obs.span("engine.search_many"):
        if callable(getattr(index, "shard_views", None)):
            results = _sharded_fanout(index, queries, k, policy)
        else:
            results = [
                _search_one(index, query, k, policy) for query in queries
            ]

    prefix = f"{index.obs_name}.search"
    for _, stats in results:
        stats.publish(prefix)
    return results


def _pool_parts(router, queries, k, policy):
    """Per-shard batch results from the persistent worker pool.

    Returns one ``[(neighbors, stats), ...]`` list per populated shard,
    aligned with ``router.shard_views()`` — or ``None`` if any worker
    died, in which case the caller falls back to the per-query scatter
    path (which serves dead shards degraded).
    """
    batches = router.worker_pool.batch_search(queries, k, policy)
    parts = []
    for shard in router.populated_shards():
        shard_results = batches.get(shard)
        if shard_results is None:
            return None
        parts.append(shard_results)
    return parts


def _routed_query_from_triples(router, query, k, triples, policy):
    """Finish one query from pre-scattered per-shard candidate triples.

    The same pipeline as ``execute_knn(router, query, k, policy)`` —
    guarded gather, policy activation, global refinement, invariant —
    just with candidate generation already done by the pool's batched
    scatter, so the answer (results *and* stats) is bit-identical to
    the per-query path.
    """
    size = len(router)
    stats = SearchStats()
    cands, stats = _generate_guarded(
        router, lambda s: router.gather_knn(triples, k, s), stats, size
    )
    active = _activate_policy(policy, stats)
    best = _refine_knn(router, query, k, cands, stats, size, active)
    _check_invariant(stats, size, router)
    _publish_approx(stats)
    neighbors = sorted(
        Neighbor(math.sqrt(d_sq), seq_id, router.result_name(seq_id))
        for d_sq, seq_id in best
    )
    return neighbors, stats


def _sharded_fanout_approx(router, queries, k, policy):
    """Batched fan-out under a non-exact policy: verify at the parent.

    The exact batch path runs one *full sub-search per shard* and merges
    per-shard answers — legal because exact per-shard top-k unions
    contain the global top-k.  An approximate policy breaks that
    argument: slack skips and patience stops depend on the *global*
    σ_UB and the *global* LB-ordered stream, so per-shard approximate
    sub-searches would neither match ``router.search(query, policy)``
    nor compose into any guarantee.  Instead the batch axis moves to
    candidate generation: pooled routers ship the whole batch to the
    warm workers in one ``cands`` request per shard (generation stays
    amortised), and the parent verifies each query once, globally —
    bit-identical to the per-query path.
    """
    pool = getattr(router, "worker_pool", None)
    per_query = None if pool is None else pool.batch_candidates(queries, k)
    if per_query is None:
        # No pool, or a worker died mid-batch: the per-query scatter
        # path serves the batch (and absorbs worker death with a
        # fallback scan plus a quarantine note).
        return [router.search(query, k=k, policy=policy) for query in queries]
    return [
        _routed_query_from_triples(router, query, k, triples, policy)
        for query, triples in zip(queries, per_query)
    ]


def _sharded_fanout(router, queries, k, policy):
    """One full sub-search per shard, merged into global per-query top-k.

    Each shard runs the whole query batch at ``min(k, shard_size)`` —
    exact within the shard, so the union of per-shard answers contains
    the global top-k — in process, or on its warm worker when the
    router has a pool.  The parent translates sequence ids (results and
    quarantine reports) to global ids and keeps the k canonical
    smallest ``(distance, seq_id)`` pairs per query.  Per-shard stats
    are published under each shard's own obs name; the merged per-query
    stats keep the extended accounting invariant globally, because the
    shards partition the population and each sub-search already honours
    it locally.  That containment argument needs *exact* sub-searches,
    so non-exact policies take :func:`_sharded_fanout_approx` instead.
    """
    if not policy.exact:
        return _sharded_fanout_approx(router, queries, k, policy)
    views = router.shard_views()

    if getattr(router, "worker_pool", None) is not None:
        parts = _pool_parts(router, queries, k, policy)
        if parts is None:
            # A worker died mid-batch.  The per-query scatter path
            # absorbs worker death (fallback scan + quarantine note,
            # answers exact but flagged degraded), so route the batch
            # through it rather than reasoning about partial results.
            return [router.search(query, k=k, policy=policy) for query in queries]
    else:
        parts = [
            [
                _search_one(sub, query, min(k, len(sub)), policy)
                for query in queries
            ]
            for sub, _ in views
        ]
    obs.add("cluster.fanout_shards", len(views))

    size = len(router)
    results = []
    for position in range(len(queries)):
        merged = SearchStats()
        pool: list[Neighbor] = []
        for (sub, global_ids), shard_results in zip(views, parts):
            neighbors, stats = shard_results[position]
            pool.extend(
                Neighbor(n.distance, int(global_ids[n.seq_id]), n.name)
                for n in neighbors
            )
            stats.quarantined_ids = tuple(
                int(global_ids[i]) for i in stats.quarantined_ids
            )
            stats.publish(f"{sub.obs_name}.search")
            merged.merge(stats)
        _check_invariant(merged, size, router)
        results.append((sorted(pool)[:k], merged))
    return results
