"""``explore``: one analyst session in the paper's section 7 setting.

Database: the catalog prepended to synthetic series, 4096 x 365 days,
z-normalised.  BestMinError sketches feed a VP-tree whose verifier reads
from an on-disk ``SequencePageStore``; a ``BurstDatabase`` (relational
table + B-trees) is built over the raw counts.  One client cycles
through k-NN (k=10), range search and co-burst queries.  Half the
queries come from ``queries_outside_database`` as in the paper, half are
perturbed database members.  Each range radius sits halfway between the
query's 10th and 11th exact neighbour, so a range query returns 10.
"""

from __future__ import annotations

import hashlib
import os
import time

import numpy as np

from common import (
    Loop,
    Outcome,
    check_invariant,
    check_knn,
    close,
    exact_neighbours,
    latency_metrics,
    median,
    metric,
    overhead,
    own_peak_rss_kib,
    query_mix,
    SETUP_PROBES,
    ratio,
    reset_peak_rss,
    spanner,
    wall_metrics,
    wrap_common_layers,
)

K = 10
OPS = ("knn", "range", "coburst")
SIZES = {"full": (4096, 128, 16), "smoke": (256, 16, 4)}  # rows, queries, prefix


# ----------------------------------------------------------------------
# Inputs and oracles (never timed)
# ----------------------------------------------------------------------
def _burst_features(values, detector):
    from repro.bursts import compact_bursts
    from repro.timeseries.preprocessing import zscore

    prepared = zscore(values)
    return compact_bursts(prepared, detector.detect(prepared))


def coburst_oracle(raw_db, raw_queries, names, top: int = K):
    """Brute-force query-by-burst: BSim of every query against every member.

    Scores every stored member (not just the fig. 18 plan's candidates)
    with the paper's BSim over the long-term detector's bursts, which is
    the window ``BurstDatabase.query`` compares under by default.
    Returns, per query, ``(name, score)`` for the ``top`` best matches in
    ``BurstDatabase`` order (similarity, then name, both descending),
    plus every member's score for checking reported similarities.
    """
    from repro.bursts import BurstDetector

    detector = BurstDetector.long_term(2.0)
    starts, ends, avgs, owners = [], [], [], []
    for row, values in enumerate(raw_db):
        for burst in _burst_features(values, detector):
            starts.append(burst.start)
            ends.append(burst.end)
            avgs.append(burst.average)
            owners.append(row)
    starts, ends = np.array(starts), np.array(ends)
    avgs, owners = np.array(avgs), np.array(owners, dtype=np.int64)
    lengths = ends - starts + 1
    out = []
    for values in raw_queries:
        scores = np.zeros(len(raw_db))
        for burst in _burst_features(values, detector):
            shared = np.minimum(burst.end, ends) - np.maximum(burst.start, starts) + 1
            shared = np.maximum(shared, 0)
            weight = 0.5 * (shared / len(burst) + shared / lengths)
            contrib = weight / (1.0 + np.abs(burst.average - avgs))
            scores += np.bincount(owners, weights=contrib, minlength=len(raw_db))
        positive = np.flatnonzero(scores > 0)
        ranked = sorted(
            ((scores[i], names[i]) for i in positive), reverse=True
        )[:top]
        out.append(([(name, score) for score, name in ranked], scores))
    return out


def make_inputs(seed: int, rows: int, queries: int):
    from repro import QueryLogGenerator
    from repro.timeseries.preprocessing import zscore

    gen = QueryLogGenerator(seed=seed)
    database = gen.synthetic_database(rows, include_catalog=True)
    names = list(database.names)
    raw = database.as_matrix()
    rng = np.random.default_rng([seed, 1])
    raw_q = query_mix(gen, raw, rng, queries)
    z_db = np.vstack([zscore(r) for r in raw])
    z_q = np.vstack([zscore(r) for r in raw_q])
    truth = exact_neighbours(z_db, z_q, K)
    radii = [0.5 * (dists[-1] + next_d) for _, dists, next_d in truth]
    return {
        "collection": database,
        "names": names,
        "index_of": {name: i for i, name in enumerate(names)},
        "z_db": z_db,
        "z_q": z_q,
        "raw_q": raw_q,
        "truth": truth,
        "radii": radii,
        "coburst": coburst_oracle(raw, raw_q, names),
    }


# ----------------------------------------------------------------------
# Set-up: input in hand -> ready to serve
# ----------------------------------------------------------------------
def build(inputs, directory, tracer=None):
    from repro import BurstDatabase, get_index
    from repro.storage import SequencePageStore

    span = spanner(tracer)
    store = SequencePageStore(os.path.join(directory, "sequences.pages"), inputs["z_db"].shape[1])
    with span("index.build"):
        index = get_index("vptree", inputs["z_db"], names=inputs["names"], store=store)
    bursts = BurstDatabase()
    bursts.add_collection(inputs["collection"])
    return store, index, bursts


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
def _true_distance(inputs, q):
    z_db, query = inputs["z_db"], inputs["z_q"][q]

    def distance(seq_id: int) -> float:
        diff = z_db[seq_id] - query
        return float(np.sqrt(diff @ diff))

    return distance


def check_range(answer, inputs, q) -> str | None:
    ids, dists, next_d = inputs["truth"][q]
    radius = inputs["radii"][q]
    got = sorted(n.seq_id for n in answer)
    if got == sorted(ids):
        return None
    # Only members tied with the radius within tolerance may differ.
    distance = _true_distance(inputs, q)
    for n in answer:
        if n.distance > radius and not close(n.distance, radius):
            return f"range returned {n.seq_id} beyond the radius"
        if not close(n.distance, distance(n.seq_id)):
            return f"range reported distance {n.distance} for {n.seq_id}"
    missing = set(ids) - set(got)
    if any(not close(distance(i), radius) for i in missing):
        return "range missed a member inside the radius"
    return None


def check_coburst(answer, inputs, q) -> str | None:
    expected, scores = inputs["coburst"][q]
    if len(answer) != len(expected):
        return f"co-burst returned {len(answer)} matches, expected {len(expected)}"
    index_of = inputs["index_of"]
    for match, (_, score) in zip(answer, expected):
        if not close(match.similarity, scores[index_of[match.name]]):
            return f"co-burst similarity of {match.name} is wrong"
        if not close(match.similarity, score):
            return "co-burst ranking differs from the oracle"
    return None


def count_btree_scans(tracer) -> None:
    """Count the B-tree entries each range scan walks.

    The fig. 18 plan probes ``start <= burst.end``: a range scan from
    the leftmost leaf, which the library's ``btree.node_visits`` counter
    (root-to-leaf descents) never sees, so the entries walked are the
    B-tree layer's work count.
    """
    from repro.storage.btree import BPlusTree

    scan = BPlusTree.range

    def counted(tree, *args, **kwargs):
        walked = 0
        try:
            for item in scan(tree, *args, **kwargs):
                walked += 1
                yield item
        finally:
            tracer.add("btree.entries_scanned", walked)

    counted.__wrapped__ = scan
    tracer.patch(BPlusTree, "range", counted)


def _digest(answer) -> str:
    return hashlib.sha256(
        repr([(m.name, m.similarity) for m in answer]).encode()
    ).hexdigest()


# ----------------------------------------------------------------------
# The workload
# ----------------------------------------------------------------------
def run(ctx) -> dict:
    from repro import BurstDatabase, obs

    rows, n_queries, prefix = SIZES[ctx.size]
    inputs = make_inputs(ctx.seed, rows, n_queries)
    reset_peak_rss()
    tracer = ctx.tracer
    span = spanner(tracer)
    if tracer:
        wrap_common_layers(tracer)
        tracer.wrap(BurstDatabase, "add_collection", "bursts.db_build")
        count_btree_scans(tracer)

    # -- set-up, several times; the last build serves the loop ----------
    setup_times, setup_wall, setup_layers = [], [], []
    built = None
    for rep in range(ctx.setup_reps):
        if built:
            built[0].close()
        directory = ctx.fresh_dir(f"explore-{rep}")
        ctx.host.probe("setup", repeat=SETUP_PROBES)
        if tracer:
            tracer.reset()
            tracer.active = True
        started = time.perf_counter()
        built = build(inputs, directory, tracer)
        setup_wall.append(time.perf_counter() - started)
        ctx.host.probe("setup", repeat=SETUP_PROBES)
        setup_times.append(ctx.host.setup_time(setup_wall[-1]))
        if tracer:
            tracer.active = False
            setup_layers.append(
                {
                    "compression.compress_s": tracer.self_s("compression.compress"),
                    "storage.write_s": tracer.self_s("storage.write"),
                    "index.build_s": tracer.self_s("index.build"),
                    "bursts.db_build_s": tracer.self_s("bursts.db_build"),
                }
            )
    store, index, bursts = built
    size = len(index)

    outcome = Outcome()
    loop = Loop(ctx.seconds, OPS, ctx.host, ctx.min_samples)
    traced = {op: [] for op in OPS}
    untraced = {op: [] for op in OPS}
    coburst_seen: dict[int, str] = {}
    counts = obs.MetricsRegistry()
    cost = dict.fromkeys(
        ("queries", "coburst", "bound_computations", "full_retrievals", "nodes_visited",
         "candidates_pruned", "results", "read_calls", "pages_read"), 0
    )
    prefix_trace = None
    if tracer:
        tracer.reset()

    def execute(q: int, mode_traced: bool, in_prefix: bool) -> dict:
        """One request cycle; returns the latency of each operation that answered."""
        query, raw_query = inputs["z_q"][q], inputs["raw_q"][q]
        if mode_traced:
            tracer.active = True
            obs.enable(counts if in_prefix else obs.MetricsRegistry())
        reads_before = (store.stats.read_calls, store.stats.pages_read)
        try:
            with span("engine.query"):
                knn, knn_s = outcome.timed(f"knn q{q}", index.search, query, k=K)
            with span("engine.query"):
                hits, range_s = outcome.timed(
                    f"range q{q}", index.range_search, query, inputs["radii"][q]
                )
            with span("bursts.query"):
                matches, coburst_s = outcome.timed(f"coburst q{q}", bursts.query, raw_query, top=K)
        finally:
            if mode_traced:
                tracer.active = False
                obs.disable()
        if in_prefix:
            cost["queries"] += 2
            cost["coburst"] += 1
            for answer in (knn, hits):
                if answer is None:
                    continue
                stats = answer[1]
                cost["bound_computations"] += stats.bound_computations
                cost["full_retrievals"] += stats.full_retrievals
                cost["nodes_visited"] += stats.nodes_visited
                cost["candidates_pruned"] += stats.candidates_pruned
                cost["results"] += len(answer[0])
            cost["read_calls"] += store.stats.read_calls - reads_before[0]
            cost["pages_read"] += store.stats.pages_read - reads_before[1]
        if knn is not None:
            ids, dists, _ = inputs["truth"][q]
            problem = check_knn(knn[0], ids, dists, _true_distance(inputs, q))
            problem = problem or check_invariant(knn[1], size)
            outcome.check(problem is None, f"knn q{q}: {problem}")
        if hits is not None:
            problem = check_range(hits[0], inputs, q) or check_invariant(hits[1], size)
            outcome.check(problem is None, f"range q{q}: {problem}")
        if matches is not None:
            digest = _digest(matches)
            problem = check_coburst(matches, inputs, q)
            if problem is None and coburst_seen.setdefault(q, digest) != digest:
                problem = "co-burst answer changed between executions"
            outcome.check(problem is None, f"coburst q{q}: {problem}")
        latencies = zip(OPS, (knn_s, range_s, coburst_s))
        return {op: seconds for op, seconds in latencies if seconds is not None}

    cycle = 0
    # The prefix always completes, so its counts repeat exactly per seed.
    while cycle < prefix or loop.running():
        q = cycle % n_queries
        loop.tick()
        if tracer:
            # Paired: the same request traced and untraced, order alternating.
            for mode in ((True, False) if cycle % 2 == 0 else (False, True)):
                latencies = execute(q, mode, in_prefix=mode and cycle < prefix)
                for op, seconds in latencies.items():
                    (traced if mode else untraced)[op].append(seconds)
                    if not mode:
                        loop.add(op, seconds)
        else:
            for op, seconds in execute(q, False, in_prefix=cycle < prefix).items():
                loop.add(op, seconds)
        cycle += 1
        if tracer and cycle == prefix:
            prefix_trace = tracer.snapshot()

    store.close()
    samples = loop.samples
    e2e = {
        "setup_s": metric(median(setup_times), "s", len(setup_times)),
        **latency_metrics("knn", samples["knn"]),
        "ops_per_s": metric(ratio(loop.op_count, loop.op_seconds(samples)), "1/s", loop.op_count),
        "peak_rss_mb": metric(own_peak_rss_kib() / 1024.0, "MB", 1),
    }
    ops = {
        **latency_metrics("range", samples["range"]),
        **latency_metrics("coburst", samples["coburst"]),
    }
    cost_units = {
        "bound_computations_per_query": ratio(cost["bound_computations"], cost["queries"]),
        "full_retrievals_per_query": ratio(cost["full_retrievals"], cost["queries"]),
        "read_calls_per_query": ratio(cost["read_calls"], cost["queries"]),
        "pages_read_per_query": ratio(cost["pages_read"], cost["queries"]),
    }
    layers = {}
    if tracer:
        snap = counts.snapshot()["counters"]
        kernel_calls = tracer.counter("bounds.kernel_calls", at=prefix_trace)
        pairs = tracer.counter("bounds.pairs", at=prefix_trace)
        n_query = len(traced["knn"]) + len(traced["range"])
        layers = {
            **{name: median([rep[name] for rep in setup_layers]) for name in setup_layers[0]},
            "bounds.kernel_calls_per_query": ratio(kernel_calls, cost["queries"]),
            "bounds.pairs_per_call": ratio(pairs, kernel_calls),
            "bounds.self_s_per_query": ratio(tracer.self_s("bounds.kernel"), n_query),
            "index.nodes_visited_per_query": ratio(cost["nodes_visited"], cost["queries"]),
            "index.generate_self_s_per_query": ratio(tracer.self_s("index.generate"), n_query),
            "engine.full_retrievals_per_query": cost_units["full_retrievals_per_query"],
            "engine.prune_ratio": ratio(
                cost["candidates_pruned"], cost["candidates_pruned"] + cost["full_retrievals"]
            ),
            "engine.retrievals_per_result": ratio(cost["full_retrievals"], cost["results"]),
            "engine.verify_self_s_per_query": ratio(tracer.self_s("engine.query"), n_query),
            "cost.bound_computations_per_query": cost_units["bound_computations_per_query"],
            "storage.read_calls_per_retrieval": ratio(cost["read_calls"], cost["full_retrievals"]),
            "storage.read_calls_per_query": cost_units["read_calls_per_query"],
            "storage.pages_read_per_query": cost_units["pages_read_per_query"],
            "storage.read_s_per_query": ratio(tracer.self_s("storage.read"), n_query),
            "bursts.candidates_per_coburst": ratio(
                snap.get("bursts.candidate_sequences", 0), cost["coburst"]
            ),
            "btree.entries_scanned_per_coburst": ratio(
                tracer.counter("btree.entries_scanned", at=prefix_trace), cost["coburst"]
            ),
            "bursts.query_self_s": ratio(tracer.self_s("bursts.query"), len(traced["coburst"])),
            "resilience.retries": snap.get("resilience.retries", 0),
            "resilience.quarantines": snap.get("resilience.quarantines", 0),
            "obs.trace_overhead_frac": overhead(traced["knn"], untraced["knn"]),
            **{f"op.{name}": m["value"] for name, m in ops.items()},
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
            # Answers to the first ``prefix`` queries, which every run
            # executes: equal digests mean identical co-burst answers.
            "coburst_digest": hashlib.sha256(
                "".join(coburst_seen.get(q, "") for q in range(prefix)).encode()
            ).hexdigest(),
        },
    }
