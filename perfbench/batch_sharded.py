"""``batch-sharded``: batch analytics over a pooled, sharded flat index.

Database: 8192 x 365 days (catalog prepended, z-normalised), split into
two hash shards behind ``build_sharded(backend="flat", shards=2,
worker_pool=True)`` with each shard's sequences in its own on-disk page
store.  The pool runs one worker per shard.  One client calls
``search_many`` for k=10 on batches of 8 queries from the same query mix
as ``explore``.  Flat makes one bound-kernel call per query and shard,
so this workload bypasses VP-tree per-node work; pool IPC, shared
memory, gather/merge and batched verification dominate.
"""

from __future__ import annotations

import time
from multiprocessing.connection import Connection

import numpy as np

from common import (
    Loop,
    Outcome,
    check_invariant,
    check_knn,
    exact_neighbours,
    latency_metrics,
    median,
    metric,
    overhead,
    own_peak_rss_kib,
    private_kib,
    query_mix,
    SETUP_PROBES,
    ratio,
    reset_peak_rss,
    spanner,
    wall_metrics,
    wrap_common_layers,
)

K = 10
BATCH = 8
SHARDS = 2
#: Set-ups per run; the pool starts in a fraction of a second, so more
#: of them steady the median.
SETUP_REPS = 5
#: Batches a run measures at least.  Per-query work is heavy-tailed
#: (most queries verify tens of members, a few outside the database
#: verify thousands), so a run's median batch needs more batches than
#: the 100 its p90 needs.
MIN_SAMPLES = 200
#: Batches between two samples of the workers' private memory.
MEMORY_EVERY = 10
SIZES = {"full": (8192, 1024, 8), "smoke": (512, 32, 2)}  # rows, queries, prefix batches


def make_inputs(seed: int, rows: int, queries: int):
    from repro import QueryLogGenerator
    from repro.timeseries.preprocessing import zscore

    gen = QueryLogGenerator(seed=seed)
    database = gen.synthetic_database(rows, include_catalog=True)
    raw = database.as_matrix()
    rng = np.random.default_rng([seed, 2])
    raw_q = query_mix(gen, raw, rng, queries)
    z_db = np.vstack([zscore(r) for r in raw])
    z_q = np.vstack([zscore(r) for r in raw_q])
    return {
        "names": list(database.names),
        "z_db": z_db,
        "z_q": z_q,
        "truth": exact_neighbours(z_db, z_q, K),
    }


def build(inputs, directory):
    from repro import build_sharded

    return build_sharded(
        inputs["z_db"],
        backend="flat",
        shards=SHARDS,
        worker_pool=True,
        names=inputs["names"],
        directory=directory,
    )


def trace_worker_requests(tracer) -> None:
    """Span ``cluster.worker_request`` from a worker receiving a request
    to it sending the reply, recorded in the worker's own slot; its self
    time is the worker's work outside the wrapped library layers."""
    recv, send = Connection.recv, Connection.send
    opened = [None]

    def traced_recv(conn):
        message = recv(conn)
        if tracer.slot > 0:
            opened[0] = tracer.begin()
        return message

    def traced_send(conn, obj):
        if tracer.slot > 0:
            tracer.end("cluster.worker_request", opened[0])
            opened[0] = None
        return send(conn, obj)

    tracer.declare("cluster.worker_request")
    tracer.patch(Connection, "recv", traced_recv)
    tracer.patch(Connection, "send", traced_send)


def count_merged(tracer) -> None:
    """Count the per-shard neighbours the parent merges, per batch."""
    from repro.cluster.pool import ShardWorkerPool

    batch_search = ShardWorkerPool.batch_search

    def counted(pool, queries, k, policy=None):
        out = batch_search(pool, queries, k, policy)
        if tracer.active:
            for results in out.values():
                for neighbours, _ in results or ():
                    tracer.add("cluster.merged_neighbours", len(neighbours))
        return out

    counted.__wrapped__ = batch_search
    tracer.patch(ShardWorkerPool, "batch_search", counted)


def run(ctx) -> dict:
    from repro import obs, search_many
    from repro.cluster.pool import ShardWorkerPool

    rows, n_queries, prefix = SIZES[ctx.size]
    inputs = make_inputs(ctx.seed, rows, n_queries)
    reset_peak_rss()
    tracer = ctx.tracer
    if tracer:
        wrap_common_layers(tracer)
        tracer.wrap(ShardWorkerPool, "start", "cluster.pool_warm")
        tracer.wrap(ShardWorkerPool, "batch_search", "cluster.pool_batch")
        count_merged(tracer)
        trace_worker_requests(tracer)

    span = spanner(tracer)
    setup_times, setup_wall, setup_layers = [], [], []
    worker_peak: dict[int, int] = {}

    def sample_workers(pids) -> None:
        for pid in pids:
            worker_peak[pid] = max(worker_peak.get(pid, 0), private_kib(pid))

    router = None
    for rep in range(ctx.setup_reps):
        if router is not None:
            router.close()
        directory = ctx.fresh_dir(f"batch-{rep}")
        ctx.host.probe("setup", repeat=SETUP_PROBES)
        if tracer:
            tracer.reset()
            tracer.active = True
        started = time.perf_counter()
        with span("cluster.build"):
            router = build(inputs, directory)
        setup_wall.append(time.perf_counter() - started)
        ctx.host.probe("setup", repeat=SETUP_PROBES)
        setup_times.append(ctx.host.setup_time(setup_wall[-1]))
        if tracer:
            tracer.active = False
            setup_layers.append(
                {
                    "compression.compress_s": tracer.self_s("compression.compress"),
                    "storage.write_s": tracer.self_s("storage.write"),
                    "index.build_s": tracer.self_s("cluster.build"),
                    "cluster.pool_warm_s": tracer.self_s("cluster.pool_warm"),
                }
            )
    pids = [pid for pid in router.worker_pool.pids().values() if pid]
    sample_workers(pids)
    size = len(router)
    z_q = inputs["z_q"]

    outcome = Outcome()
    loop = Loop(ctx.seconds, ("batch",), ctx.host, ctx.min_samples)
    traced, untraced, skews = [], [], []
    counts = obs.MetricsRegistry()
    cost = dict.fromkeys(
        ("queries", "batches", "bound_computations", "full_retrievals",
         "candidates_pruned", "results"), 0
    )
    prefix_trace = None
    if tracer:
        tracer.reset()

    def execute(start: int, mode_traced: bool, in_prefix: bool) -> float | None:
        ids = [(start + i) % n_queries for i in range(BATCH)]
        if mode_traced:
            busy_before = [tracer.total_s("cluster.worker_request", slot) for slot in slots]
            tracer.active = True
            obs.enable(counts if in_prefix else obs.MetricsRegistry())
        try:
            with span("engine.search_many"):
                results, seconds = outcome.timed(
                    f"batch at q{ids[0]}", search_many, router, z_q[ids], k=K
                )
        finally:
            if mode_traced:
                tracer.active = False
                obs.disable()
        if results is None:
            return None
        if mode_traced:
            busy = [
                tracer.total_s("cluster.worker_request", slot) - before
                for slot, before in zip(slots, busy_before)
            ]
            if sum(busy) > 0:
                skews.append(max(busy) / (sum(busy) / len(busy)))
        if in_prefix:
            cost["batches"] += 1
            for answer, stats in results:
                cost["queries"] += 1
                cost["bound_computations"] += stats.bound_computations
                cost["full_retrievals"] += stats.full_retrievals
                cost["candidates_pruned"] += stats.candidates_pruned
                cost["results"] += len(answer)
        for q, (answer, stats) in zip(ids, results):
            truth_ids, truth_dists, _ = inputs["truth"][q]
            query = z_q[q]

            def distance(seq_id: int, query=query) -> float:
                diff = inputs["z_db"][seq_id] - query
                return float(np.sqrt(diff @ diff))

            problem = check_knn(answer, truth_ids, truth_dists, distance)
            problem = problem or check_invariant(stats, size)
            outcome.check(problem is None, f"batch q{q}: {problem}")
        return seconds

    # Workers are forked in pool order, after any earlier set-up's
    # workers, so the serving pool holds the last ``len(pids)`` slots.
    slots = [tracer.forks - len(pids) + 1 + i for i in range(len(pids))] if tracer else []
    batch_no = 0
    # The prefix always completes, so its counts repeat exactly per seed.
    while batch_no < prefix or loop.running():
        start = batch_no * BATCH
        loop.tick()
        if tracer:
            for mode in ((True, False) if batch_no % 2 == 0 else (False, True)):
                seconds = execute(start, mode, in_prefix=mode and batch_no < prefix)
                if seconds is not None:
                    (traced if mode else untraced).append(seconds)
                    if not mode:
                        loop.add("batch", seconds)
        else:
            seconds = execute(start, False, in_prefix=batch_no < prefix)
            if seconds is not None:
                loop.add("batch", seconds)
        batch_no += 1
        if tracer and batch_no == prefix:
            prefix_trace = tracer.snapshot()
        if batch_no % MEMORY_EVERY == 0:
            sample_workers(pids)

    sample_workers(pids)
    router.close()
    parent_kib = own_peak_rss_kib()
    workers_kib = sum(worker_peak[pid] for pid in pids)
    samples = loop.samples
    per_query = [seconds / BATCH for seconds in samples["batch"]]
    n_done = len(per_query) * BATCH
    e2e = {
        "setup_s": metric(median(setup_times), "s", len(setup_times)),
        **latency_metrics("knn", per_query),
        "ops_per_s": metric(ratio(n_done, loop.op_seconds(samples)), "1/s", n_done),
        "peak_rss_mb": metric((parent_kib + workers_kib) / 1024.0, "MB", 1 + len(pids)),
    }
    ops = {
        **latency_metrics("batch", samples["batch"]),
        "batch_qps": metric(ratio(n_done, loop.op_seconds(samples)), "1/s", n_done),
    }
    cost_units = {
        "bound_computations_per_query": ratio(cost["bound_computations"], cost["queries"]),
        "full_retrievals_per_query": ratio(cost["full_retrievals"], cost["queries"]),
        # Reads happen inside the pool workers; only the traced run,
        # which records there too, counts them.
        "read_calls_per_query": None,
        "pages_read_per_query": None,
    }
    layers = {}
    if tracer:
        snap = counts.snapshot()["counters"]
        at = prefix_trace
        read_calls = tracer.counter("storage.read_calls", at=at)
        pages_read = tracer.counter("storage.pages_read", at=at)
        kernel_calls = tracer.counter("bounds.kernel_calls", at=at)
        cost_units["read_calls_per_query"] = ratio(read_calls, cost["queries"])
        cost_units["pages_read_per_query"] = ratio(pages_read, cost["queries"])
        n_batches = len(traced)
        n_query = n_batches * BATCH
        layers = {
            **{name: median([rep[name] for rep in setup_layers]) for name in setup_layers[0]},
            "bounds.kernel_calls_per_query": ratio(kernel_calls, cost["queries"]),
            "bounds.pairs_per_call": ratio(tracer.counter("bounds.pairs", at=at), kernel_calls),
            "bounds.self_s_per_query": ratio(tracer.self_s("bounds.kernel"), n_query),
            "index.generate_self_s_per_query": ratio(tracer.self_s("index.generate"), n_query),
            "engine.full_retrievals_per_query": cost_units["full_retrievals_per_query"],
            "engine.prune_ratio": ratio(
                cost["candidates_pruned"], cost["candidates_pruned"] + cost["full_retrievals"]
            ),
            "engine.retrievals_per_result": ratio(cost["full_retrievals"], cost["results"]),
            "engine.verify_self_s_per_query": ratio(
                tracer.self_s("cluster.worker_request"), n_query
            ),
            "cost.bound_computations_per_query": cost_units["bound_computations_per_query"],
            "storage.read_calls_per_retrieval": ratio(read_calls, cost["full_retrievals"]),
            "storage.read_calls_per_query": cost_units["read_calls_per_query"],
            "storage.pages_read_per_query": cost_units["pages_read_per_query"],
            "storage.read_s_per_query": ratio(tracer.self_s("storage.read"), n_query),
            "cluster.pool_round_trips_per_batch": ratio(
                snap.get("cluster.pool.requests", 0), cost["batches"]
            ),
            "cluster.merged_candidates_per_query": ratio(
                tracer.counter("cluster.merged_neighbours", at=at), cost["queries"]
            ),
            "cluster.merge_self_s": ratio(tracer.self_s("engine.search_many"), n_batches),
            "cluster.pool_batch_s": ratio(tracer.total_s("cluster.pool_batch"), n_batches),
            "cluster.shard_skew": median(skews) if skews else 0.0,
            "resilience.retries": snap.get("resilience.retries", 0),
            "resilience.quarantines": snap.get("resilience.quarantines", 0),
            "obs.trace_overhead_frac": overhead(traced, untraced),
            "op.batch_p50_ms": ops["batch_p50_ms"]["value"],
            "op.batch_p90_ms": ops["batch_p90_ms"]["value"],
        }
    return {
        "e2e": e2e,
        "ops": ops,
        "wall": wall_metrics(loop, setup_wall),
        "cost": cost_units,
        "layers": layers,
        "outcome": outcome,
        "notes": {
            "database": list(inputs["z_db"].shape),
            "queries": n_queries,
            "batch": BATCH,
            "shards": SHARDS,
            "workers": len(pids),
            "peak_kib": {"parent": parent_kib, "workers_private": workers_kib},
        },
    }
