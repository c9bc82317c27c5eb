"""``stream-live``: a live ingest service with reads beside writes.

A ``StreamStore`` with its defaults (fsync on, ``burst_window=7``, MA
model) is bulk-loaded with 512 x 365 raw-count series and sealed.  Then
one client runs simulated days: 64 ``record`` events with Zipf-skewed
keys (hot keys get most of them), a day close (``rollover`` +
``drain_alerts``, a ``seal`` every 30 days and a ``compact`` every
second seal), and one k-NN search (k=10) over the live and sealed
tiers.  Mid-way between seals the store is closed with a WAL tail and
reopened with the same configuration; the answers after the reopen must
be bit-identical to the answers before the close.
"""

from __future__ import annotations

import os
import time

import numpy as np

from common import (
    Loop,
    Outcome,
    check_invariant,
    check_knn,
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
EVENTS_PER_DAY = 64
SEAL_EVERY = 30
REOPEN_DAY = 14  # day within each seal cycle at which the store restarts
PROBES = 4
ZIPF = 1.1
SIZES = {"full": (512, 64, 60), "smoke": (48, 8, 60)}  # rows, queries, prefix days


def make_inputs(seed: int, rows: int, queries: int):
    from repro import QueryLogGenerator
    from repro.timeseries.preprocessing import zscore

    gen = QueryLogGenerator(seed=seed)
    database = gen.synthetic_database(rows, include_catalog=True)
    raw = database.as_matrix()
    rng = np.random.default_rng([seed, 3])
    raw_q = query_mix(gen, raw, rng, queries)
    names = list(database.names)
    weights = 1.0 / np.arange(1, rows + 1) ** ZIPF
    return {
        "names": names,
        "raw": raw,
        "z_q": np.vstack([zscore(r) for r in raw_q]),
        # Rank r of the Zipf law maps to a seeded random key.
        "hot": rng.permutation(rows),
        "zipf": weights / weights.sum(),
        "seed": seed,
    }


def day_events(inputs, day: int):
    """The day's ``(name, count)`` events, a pure function of seed and day."""
    rng = np.random.default_rng([inputs["seed"], 4, day])
    ranks = rng.choice(len(inputs["zipf"]), size=EVENTS_PER_DAY, p=inputs["zipf"])
    counts = rng.integers(1, 50, size=EVENTS_PER_DAY)
    return [(inputs["names"][inputs["hot"][r]], float(c)) for r, c in zip(ranks, counts)]


class Model:
    """What the store must show: the benchmark's own replica of its rules.

    Sealed rows are z-scored when sealed and the newest occurrence of a
    name wins; a ``record`` on a sealed name supersedes it with a fresh
    all-zero live window; live windows slide one day per rollover and
    are z-scored over their current raw counts at query time.
    """

    def __init__(self, length: int) -> None:
        self.length = length
        self.sealed: dict[str, np.ndarray] = {}
        self.tombs: set[str] = set()
        self.live: dict[str, np.ndarray] = {}

    def add(self, name: str, values) -> None:
        self.live[name] = np.array(values, dtype=np.float64)

    def record(self, name: str, count: float) -> None:
        if name not in self.live and name in self.sealed and name not in self.tombs:
            self.tombs.add(name)
        self.live.setdefault(name, np.zeros(self.length))[-1] += count

    def rollover(self) -> None:
        for raw in self.live.values():
            raw[:-1] = raw[1:]
            raw[-1] = 0.0

    def seal(self) -> None:
        from repro.timeseries.preprocessing import zscore

        for name, raw in self.live.items():
            self.sealed[name] = zscore(raw)
        self.tombs -= set(self.live)
        self.live.clear()

    def compact(self) -> None:
        for name in self.tombs:
            self.sealed.pop(name, None)
        self.tombs.clear()

    def population(self):
        from repro.timeseries.preprocessing import zscore

        names = [n for n in self.sealed if n not in self.tombs] + list(self.live)
        rows = [self.sealed[n] for n in names[: len(names) - len(self.live)]]
        rows += [zscore(raw) for raw in self.live.values()]
        return names, np.vstack(rows)


def check_search(answer, stats, model: Model, query) -> str | None:
    names, matrix = model.population()
    diff = matrix - query
    d_sq = np.einsum("ij,ij->i", diff, diff)
    order = np.lexsort((np.arange(len(names)), d_sq))[:K]
    position = {name: i for i, name in enumerate(names)}
    if any(n.name not in position for n in answer):
        return "search returned a member the store should not show"
    relabelled = [
        type(n)(n.distance, position[n.name], n.name) for n in answer
    ]
    problem = check_knn(
        relabelled,
        order.tolist(),
        np.sqrt(d_sq[order]).tolist(),
        lambda i: float(np.sqrt(d_sq[i])),
    )
    return problem or check_invariant(stats, len(names))


def _answer_key(answer):
    return [(n.name, n.distance) for n in answer]


def _dir_bytes(directory: str) -> int:
    return sum(
        os.path.getsize(os.path.join(directory, entry))
        for entry in os.listdir(directory)
    )


def build(inputs, directory):
    from repro import StreamStore

    store = StreamStore(directory, inputs["raw"].shape[1])
    store.append_many(zip(inputs["names"], inputs["raw"]))
    store.seal()
    return store


def run(ctx) -> dict:
    from repro import StreamStore, obs
    from repro.stream.alerts import LiveBurstMonitor
    from repro.stream.index import StreamIndex
    from repro.stream.wal import WriteAheadLog

    rows, n_queries, prefix = SIZES[ctx.size]
    inputs = make_inputs(ctx.seed, rows, n_queries)
    reset_peak_rss()
    length = inputs["raw"].shape[1]
    tracer = ctx.tracer
    span = spanner(tracer)
    wal_bytes = [0]
    if tracer:
        wrap_common_layers(tracer)
        tracer.wrap(LiveBurstMonitor, "observe", "bursts.online_push")
        tracer.wrap(StreamIndex, "__init__", "stream.index_build")
        tracer.wrap(WriteAheadLog, "replay", "stream.replay")
        append_group = WriteAheadLog.append_group

        def counted_append(wal, payloads):
            before = os.path.getsize(wal.path)
            result = append_group(wal, payloads)
            if tracer.active:
                wal_bytes[0] += os.path.getsize(wal.path) - before
            return result

        tracer.patch(WriteAheadLog, "append_group", counted_append)

    setup_times, setup_wall, setup_layers = [], [], []
    store = directory = None
    for rep in range(ctx.setup_reps):
        if store is not None:
            store.close()
        directory = ctx.fresh_dir(f"stream-{rep}")
        ctx.host.probe("setup", repeat=SETUP_PROBES)
        if tracer:
            tracer.reset()
            tracer.active = True
        started = time.perf_counter()
        store = build(inputs, directory)
        setup_wall.append(time.perf_counter() - started)
        ctx.host.probe("setup", repeat=SETUP_PROBES)
        setup_times.append(ctx.host.setup_time(setup_wall[-1]))
        if tracer:
            tracer.active = False
            setup_layers.append(
                {
                    "storage.write_s": tracer.self_s("storage.write"),
                    "bursts.setup_online_push_s": tracer.self_s("bursts.online_push"),
                }
            )
    model = Model(length)
    for name, values in zip(inputs["names"], inputs["raw"]):
        model.add(name, values)
    model.seal()

    outcome = Outcome()
    loop = Loop(ctx.seconds, ("event", "rollover", "knn"), ctx.host, ctx.min_samples)
    recovery, replayed = [], []
    traced_knn, untraced_knn = [], []
    counts = obs.MetricsRegistry()
    tally = {"events": 0, "fsyncs": 0, "event_wal_bytes": 0, "searches": 0, "index_builds": 0,
             "compactions": 0, "compact_bytes": 0, "reopens": 0, "traced_days": 0,
             "bound_computations": 0, "full_retrievals": 0, "candidates_pruned": 0,
             "results": 0}
    disk_ratio = 0.0
    prefix_trace = None
    coin = np.random.default_rng([ctx.seed, 5])
    if tracer:
        tracer.reset()
    state = {"store": store, "seals": 0}

    def close_day(day: int, traced: bool, in_prefix: bool) -> bool:
        """Rollover, alerts, and the seal / compaction the day is due."""
        store = state["store"]
        sealing = (day + 1) % SEAL_EVERY == 0
        compacting = sealing and (state["seals"] + 1) % 2 == 0
        started = time.perf_counter()
        try:
            store.rollover()
            store.drain_alerts()
            if sealing:
                with span("stream.seal"):
                    store.seal()
            if compacting:
                with span("stream.compact"):
                    store.compact()
        except Exception as exc:  # a failed write leaves the store unknown: stop
            outcome.fail(f"day close {day} raised {type(exc).__name__}: {exc}")
            return False
        loop.add("rollover", time.perf_counter() - started)
        outcome.check(True, "day close")
        model.rollover()
        if sealing:
            state["seals"] += 1
            model.seal()
        if compacting:
            model.compact()
            if traced and in_prefix:
                tally["compactions"] += 1
                tally["compact_bytes"] += sum(
                    os.path.getsize(os.path.join(directory, f)) for f in store.segment_files()
                )
        return True

    def search(day: int, traced: bool, in_prefix: bool) -> None:
        query = inputs["z_q"][day % n_queries]
        builds = tracer.calls("stream.index_build") if traced else 0
        with span("engine.query"):
            result, seconds = outcome.timed(f"search day {day}", state["store"].search, query, k=K)
        if result is None:
            return
        answer, stats = result
        loop.add("knn", seconds)
        if tracer:
            (traced_knn if traced else untraced_knn).append(seconds)
        if in_prefix:
            tally["searches"] += 1
            tally["index_builds"] += tracer.calls("stream.index_build") - builds if traced else 0
            tally["bound_computations"] += stats.bound_computations
            tally["full_retrievals"] += stats.full_retrievals
            tally["candidates_pruned"] += stats.candidates_pruned
            tally["results"] += len(answer)
        problem = check_search(answer, stats, model, query)
        outcome.check(problem is None, f"search day {day}: {problem}")

    def restart(day: int, traced: bool, in_prefix: bool) -> bool:
        """Close with a WAL tail, reopen, and compare answers."""
        probes = inputs["z_q"][:PROBES]
        try:
            before = [_answer_key(state["store"].search(q, k=K)[0]) for q in probes]
            state["store"].close()
            started = time.perf_counter()
            state["store"] = StreamStore(directory)
            first = state["store"].search(probes[0], k=K)[0]
            recovery.append(time.perf_counter() - started)
            after = [_answer_key(first)] + [
                _answer_key(state["store"].search(q, k=K)[0]) for q in probes[1:]
            ]
        except Exception as exc:  # a store that cannot reopen cannot serve: stop
            outcome.fail(f"restart on day {day} raised {type(exc).__name__}: {exc}")
            return False
        replayed.append(state["store"].recovery.wal_records)
        outcome.check(before == after, f"reopen on day {day} changed answers")
        if traced and in_prefix:
            tally["reopens"] += 1
        return True

    day = 0
    running = True
    # The prefix always completes, so its counts repeat exactly per seed.
    while running and (day < prefix or loop.running()):
        in_prefix = day < prefix
        loop.tick()
        traced = bool(tracer) and (in_prefix or coin.random() < 0.5)
        if traced:
            tracer.active = True
            obs.enable(counts if in_prefix else obs.MetricsRegistry())
            tally["traced_days"] += 1
        try:
            for name, count in day_events(inputs, day):
                fsyncs, logged = (tracer.calls("os.fsync"), wal_bytes[0]) if traced else (0, 0)
                done, seconds = outcome.timed(f"record day {day}", state["store"].record, name, count)
                if seconds is None:
                    running = False
                    break
                outcome.check(True, "record")
                loop.add("event", seconds)
                model.record(name, count)
                if traced and in_prefix:
                    tally["events"] += 1
                    tally["fsyncs"] += tracer.calls("os.fsync") - fsyncs
                    tally["event_wal_bytes"] += wal_bytes[0] - logged
            running = running and close_day(day, traced, in_prefix)
            if running:
                search(day, traced, in_prefix)
            if running and day % SEAL_EVERY == REOPEN_DAY:
                running = restart(day, traced, in_prefix)
            if traced and day == prefix - 1:
                input_bytes = 8 * (inputs["raw"].size + tally["events"])
                disk_ratio = _dir_bytes(directory) / input_bytes
        finally:
            if traced:
                tracer.active = False
                obs.disable()
        day += 1
        if tracer and day == prefix:
            prefix_trace = tracer.snapshot()
    store = state["store"]

    store.close()
    samples = loop.samples
    e2e = {
        "setup_s": metric(median(setup_times), "s", len(setup_times)),
        **latency_metrics("knn", samples["knn"]),
        "ops_per_s": metric(ratio(loop.op_count, loop.op_seconds(samples)), "1/s", loop.op_count),
        "peak_rss_mb": metric(own_peak_rss_kib() / 1024.0, "MB", 1),
    }
    ops = {
        **latency_metrics("event", samples["event"]),
        **latency_metrics("rollover", samples["rollover"]),
        "recovery_s": metric(median(recovery) if recovery else 0.0, "s", len(recovery)),
    }
    searches = tally["searches"]
    cost_units = {
        "bound_computations_per_query": ratio(tally["bound_computations"], searches),
        "full_retrievals_per_query": ratio(tally["full_retrievals"], searches),
        # Segment reads are counted where a store charges them, which
        # only the traced run watches.
        "read_calls_per_query": None,
        "pages_read_per_query": None,
    }
    layers = {}
    if tracer:
        snap = counts.snapshot()["counters"]
        at = prefix_trace
        read_calls = tracer.counter("storage.read_calls", at=at)
        kernel_calls = tracer.counter("bounds.kernel_calls", at=at)
        cost_units["read_calls_per_query"] = ratio(read_calls, searches)
        cost_units["pages_read_per_query"] = ratio(tracer.counter("storage.pages_read", at=at), searches)
        traced_days = tally["traced_days"]
        n_query = len(traced_knn)
        layers = {
            **{
                name: median([rep[name] for rep in setup_layers])
                for name in setup_layers[0]
            },
            "bounds.self_s_per_query": ratio(tracer.self_s("bounds.kernel"), n_query),
            "index.generate_self_s_per_query": ratio(tracer.self_s("index.generate"), n_query),
            "engine.verify_self_s_per_query": ratio(tracer.self_s("engine.query"), n_query),
            "storage.read_s_per_query": ratio(tracer.self_s("storage.read"), n_query),
            "bounds.kernel_calls_per_query": ratio(kernel_calls, searches),
            "bounds.pairs_per_call": ratio(tracer.counter("bounds.pairs", at=at), kernel_calls),
            "engine.full_retrievals_per_query": cost_units["full_retrievals_per_query"],
            "engine.prune_ratio": ratio(
                tally["candidates_pruned"], tally["candidates_pruned"] + tally["full_retrievals"]
            ),
            "engine.retrievals_per_result": ratio(tally["full_retrievals"], tally["results"]),
            "storage.read_calls_per_retrieval": ratio(read_calls, tally["full_retrievals"]),
            "storage.read_calls_per_query": cost_units["read_calls_per_query"],
            "storage.pages_read_per_query": cost_units["pages_read_per_query"],
            "cost.bound_computations_per_query": cost_units["bound_computations_per_query"],
            "bursts.online_pushes": ratio(snap.get("bursts.online_pushes", 0), prefix),
            "bursts.online_push_s": ratio(tracer.self_s("bursts.online_push"), traced_days),
            "stream.wal_bytes_per_event": ratio(tally["event_wal_bytes"], tally["events"]),
            "stream.fsyncs_per_event": ratio(tally["fsyncs"], tally["events"]),
            "stream.index_builds_per_search": ratio(tally["index_builds"], searches),
            "stream.index_build_s": ratio(
                tracer.total_s("stream.index_build"), tracer.calls("stream.index_build")
            ),
            "stream.seal_s": ratio(tracer.total_s("stream.seal"), tracer.calls("stream.seal")),
            "stream.compact_s": ratio(
                tracer.total_s("stream.compact"), tracer.calls("stream.compact")
            ),
            "stream.compact_bytes_rewritten": ratio(tally["compact_bytes"], tally["compactions"]),
            "stream.wal_records_replayed": ratio(sum(replayed[: tally["reopens"]]), tally["reopens"]),
            "stream.replay_s": ratio(tracer.total_s("stream.replay"), tracer.calls("stream.replay")),
            "stream.disk_bytes_per_input_byte": disk_ratio,
            "resilience.retries": snap.get("resilience.retries", 0),
            "resilience.quarantines": snap.get("resilience.quarantines", 0),
            "obs.trace_overhead_frac": overhead(traced_knn, untraced_knn),
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
            "series": rows,
            "days": day,
            "seals": state["seals"],
            "reopens": len(recovery),
            "events_per_day": EVENTS_PER_DAY,
        },
    }
