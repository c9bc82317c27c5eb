"""Persistent shard workers: long-lived processes over shared memory.

This module is the cluster layer's one parallel transport.  Its workers
live as long as the router because forking fresh workers per call, and
re-pickling warm state each time, ate the entire parallel win (0.43x at
4 shards in ``BENCH_shards.json``).  The Lernaean Hydra evaluations
(PAPERS.md) make the same point about similarity-search benchmarking
generally: honest steady-state numbers require warm, long-lived
execution.

* :class:`ShardWorkerPool` — one **persistent process per populated
  shard**.  A worker attaches the shard's sequence matrix and packed
  sketch blocks as zero-copy read-only views from a
  :class:`~repro.storage.shm.SharedArena` (or opens the shard's
  checksummed page store), builds its engine index **once**, and then
  serves scatter requests over a duplex pipe until told to stop.
* :class:`ShardSpec` — the picklable build recipe a worker (re)builds
  its shard from; respawning a crashed worker replays the spec.
* :class:`ShardStub` — the parent-side stand-in for a pooled shard: it
  answers ``len``/``fetch``/``result_name`` (the verifier runs in the
  parent) and delegates candidate generation to the worker.

Request protocol (one in-flight request per worker, strictly
request/response): ``("ping",)``, ``("knn", query, k)``,
``("range", query, radius)``, ``("batch", queries, k, policy_wire)``,
``("cands", queries, k)``, ``("stop",)``.  Responses are
``("ok", payload)`` / ``("err", reason)``; candidate payloads are
``(CandidateSet, SearchStats, error)`` triples that the router's gather
absorbs, so the answers are bit-identical to the in-process scatter.
``policy_wire`` is the batch's resolved
:meth:`~repro.engine.approx.ApproxPolicy.wire` tuple — shipped
explicitly so a worker never re-reads ``REPRO_APPROX_*`` on its own
(an approximate *batch* never uses ``batch`` anyway: global slack and
patience decisions cannot be made per shard, so the router gathers
``cands`` batches and verifies at the parent — see
``engine/batch.py``).

Failure model (see ``docs/CONCURRENCY.md`` for the full matrix): a
worker death — crash, SIGKILL, OOM — is detected by the collect loop
(pipe EOF or ``is_alive()`` going false), **never hangs the gather**,
and degrades exactly like a generator failure: the shard is served by a
parent-side exhaustive fallback scan (the answer stays *correct*, just
unpruned for that shard), the failure is recorded on the router's
quarantine, and the pool respawns the worker from its spec before the
next request (up to ``max_respawns``; after that the shard stays in
fallback).  With ``RetryPolicy(degrade=False)`` the death raises
:class:`~repro.exceptions.WorkerCrashError` instead.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro import obs
from repro.engine.approx import ApproxPolicy, resolve_policy
from repro.engine.core import CandidateSet
from repro.exceptions import (
    CorruptionError,
    ReproError,
    WorkerCrashError,
)
from repro.index.results import SearchStats
from repro.storage.shm import (
    ArenaMeta,
    MatrixSequenceStore,
    SharedArena,
    SketchBlocksMeta,
    attach_sketch_database,
)
from repro.tools.envparse import parse_env_choice

__all__ = [
    "ShardSpec",
    "ShardStub",
    "ShardWorkerPool",
    "default_start_method",
]

#: Poll granularity of the collect loop, seconds.  Small enough that a
#: worker death is noticed promptly; the loop waits indefinitely while
#: the worker is demonstrably alive and working.
_POLL_S = 0.05

#: Worker join grace before escalating to terminate/kill at shutdown.
_JOIN_S = 2.0


def default_start_method() -> str:
    """Start method from ``REPRO_POOL_START_METHOD``, else fork/spawn.

    ``fork`` is preferred where available: workers inherit the parent's
    imports and (copy-on-write) address space, so spawn latency is
    milliseconds.  ``spawn`` works everywhere the specs pickle.  A value
    this platform does not offer raises
    :class:`~repro.exceptions.ReproError` listing the ones it does.
    """
    import multiprocessing

    available = multiprocessing.get_all_start_methods()
    return parse_env_choice(
        "REPRO_POOL_START_METHOD",
        "fork" if "fork" in available else "spawn",
        available,
    )


@dataclass
class ShardSpec:
    """Everything a worker needs to (re)build one shard, picklable.

    ``write_store`` is ``True`` only for the *first* build of a
    directory-backed shard (the worker writes the checksummed page
    store itself — this is how ``build_sharded`` reuses the pool for
    parallel builds); after a successful warm-up the pool flips it off,
    so a respawned worker reopens the finished file instead of
    rewriting it.
    """

    shard: int
    backend: str
    size: int
    sequence_length: int
    obs_name: str
    names: tuple | None = None
    index_kwargs: dict = field(default_factory=dict)
    store_path: str | None = None
    write_store: bool = False
    matrix_key: str | None = None
    norms_key: str | None = None
    sketch_meta: SketchBlocksMeta | None = None


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def _store_backends() -> frozenset:
    from repro.cluster.build import _STORE_BACKENDS

    return _STORE_BACKENDS


def _build_shard_index(spec: ShardSpec, arena: SharedArena | None):
    """Build the shard's index exactly as the serial builder would.

    Returns ``(index, store)``; the index is constructed from the same
    sub-matrix, sketch view, names and kwargs as an in-parent build, so
    it is bit-identical to one (construction is deterministic under the
    shared seed).
    """
    from repro.engine.registry import get_index
    from repro.storage.pagestore import SequencePageStore

    store = None
    if spec.store_path is not None:
        if spec.write_store:
            sub_matrix = np.asarray(arena.array(spec.matrix_key))
            with obs.span("ingest.store_write"):
                store = SequencePageStore(
                    spec.store_path, spec.sequence_length
                )
                store.append_matrix(sub_matrix)
                # Close-and-reopen so every byte is flushed before the
                # parent (which opens this file the moment we report
                # ready) can read a torn tail out of our write buffer.
                store.close()
                store = SequencePageStore.open(spec.store_path)
            matrix = arena.array(spec.matrix_key)
        else:
            store = SequencePageStore.open(spec.store_path)
            if len(store) != spec.size:
                count = len(store)
                store.close()
                raise CorruptionError(
                    f"shard {spec.shard} store holds {count} sequences, "
                    f"manifest says {spec.size}"
                )
            matrix = store.read_many(range(spec.size))
    else:
        matrix = arena.array(spec.matrix_key)
        store = MatrixSequenceStore(matrix)

    if arena is not None and spec.norms_key is not None:
        # Shared-memory integrity handshake: recompute the per-row
        # squared norms from the attached bytes and compare bitwise
        # with what the parent published.  Same op on the same bytes
        # is bit-equal, so any mismatch means a torn or misattached
        # segment — fail the warm-up instead of serving wrong bounds.
        published = arena.array(spec.norms_key)
        recomputed = np.einsum("ij,ij->i", matrix, matrix)
        if not np.array_equal(published, recomputed):
            raise CorruptionError(
                f"shard {spec.shard}: shared-memory matrix failed the "
                "norm handshake (torn or misattached segment)"
            )

    kwargs = dict(spec.index_kwargs)
    if spec.sketch_meta is not None:
        kwargs["sketch_db"] = attach_sketch_database(
            arena, spec.sketch_meta
        )
    if spec.backend in _store_backends():
        kwargs["store"] = store
    elif spec.store_path is not None and store is not None:
        store.close()  # matrix-backed structure; file stays for reopen
        store = None
    names = list(spec.names) if spec.names is not None else None
    with obs.span("ingest.build"):
        sub = get_index(spec.backend, matrix, names=names, **kwargs)
    sub.obs_name = spec.obs_name
    return sub, store


def _portable_error(exc: BaseException) -> BaseException:
    """An exception that survives the pickle boundary, best effort."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return ReproError(f"{type(exc).__name__}: {exc}")


def _candidate_payload(sub, op: str, query, arg):
    """One shard's generator run, in the router's scatter-triple form.

    Streams are materialised (iterators cannot cross processes; a
    consumed k-NN stream has bounded every member), and a generator
    failure is answered with the shard's exhaustive fallback plus the
    error, so the parent degrades the shard exactly as the in-process
    scatter does.
    """
    from repro.cluster.router import _shard_fallback

    stats = SearchStats()
    try:
        if op == "knn":
            cands = sub.knn_candidates(query, int(arg), stats)
        else:
            cands = sub.range_candidates(query, float(arg), stats)
        if cands.stream is not None:
            entries = list(cands.stream)
            cands = CandidateSet(
                entries=entries,
                generated=len(entries) if op == "knn" else cands.generated,
                sigma_sq=cands.sigma_sq,
                paid=cands.paid,
                top_ubs=cands.top_ubs,
            )
        return cands, stats, None
    except (ReproError, OSError) as exc:
        fallback_stats = SearchStats()
        fallback_stats.degraded = True
        return _shard_fallback(len(sub)), fallback_stats, _portable_error(exc)


def _worker_main(spec: ShardSpec, arena_meta: ArenaMeta | None, conn) -> None:
    """Worker entry point: warm once, then serve until told to stop."""
    from repro.engine.batch import _search_one

    arena = None
    store = None
    sub = None
    try:
        try:
            if arena_meta is not None:
                arena = SharedArena.attach(arena_meta)
            sub, store = _build_shard_index(spec, arena)
            conn.send(("ready", os.getpid(), len(sub)))
        except Exception as exc:
            try:
                conn.send(("failed", f"{type(exc).__name__}: {exc}"))
            except Exception:
                pass
            return
        while True:
            try:
                request = conn.recv()
            except (EOFError, OSError):
                break  # parent went away; die quietly
            op = request[0]
            if op == "stop":
                break
            try:
                if op == "ping":
                    conn.send(("ok", ("pong", os.getpid())))
                elif op in ("knn", "range"):
                    payload = _candidate_payload(
                        sub, op, request[1], request[2]
                    )
                    conn.send(("ok", payload))
                elif op == "batch":
                    queries, k = request[1], int(request[2])
                    policy = ApproxPolicy.from_wire(request[3])
                    sub_k = min(k, len(sub))
                    results = [
                        _search_one(sub, query, sub_k, policy)
                        for query in queries
                    ]
                    conn.send(("ok", results))
                elif op == "cands":
                    queries, k = request[1], int(request[2])
                    payloads = [
                        _candidate_payload(sub, "knn", query, k)
                        for query in queries
                    ]
                    conn.send(("ok", payloads))
                else:
                    conn.send(("err", f"unknown op {op!r}"))
            except Exception as exc:
                try:
                    conn.send(("err", f"{type(exc).__name__}: {exc}"))
                except Exception:
                    break
    finally:
        if store is not None:
            try:
                store.close()
            except Exception:
                pass
        if arena is not None:
            arena.close()
        try:
            conn.close()
        except Exception:
            pass


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
class ShardStub:
    """Parent-side stand-in for a shard whose index lives in a worker.

    The router's verifier runs in the parent, so the stub answers the
    data-plane surface (``fetch``/``result_name``/``store``) from the
    parent's own handle on the shard's bytes — the shared-memory view
    or a read handle on the checksummed page store.  Candidate
    generation delegates to the pool; a dead worker raises
    :class:`WorkerCrashError`, which the engine's degradation machinery
    treats like any generator failure.
    """

    def __init__(
        self,
        shard: int,
        size: int,
        sequence_length: int,
        store,
        names: tuple | None,
        obs_name: str,
        pool: "ShardWorkerPool",
    ) -> None:
        self.shard = shard
        self._size = size
        self._n = sequence_length
        self._store = store
        self._names = names
        self.obs_name = obs_name
        self._pool = pool

    def __len__(self) -> int:
        return self._size

    @property
    def sequence_length(self) -> int:
        return self._n

    @property
    def store(self):
        return self._store

    def fetch(self, seq_id: int) -> np.ndarray:
        return self._store.read(int(seq_id))

    def result_name(self, seq_id: int) -> str | None:
        return self._names[seq_id] if self._names is not None else None

    def _delegate(self, op: str, query, arg, stats: SearchStats):
        cands, sub_stats, error = self._pool.request_candidates(
            self.shard, op, query, arg
        )
        if error is not None:
            raise error
        stats.merge(sub_stats)
        return cands

    def knn_candidates(self, query, k: int, stats: SearchStats):
        return self._delegate("knn", query, k, stats)

    def range_candidates(self, query, radius: float, stats: SearchStats):
        return self._delegate("range", query, radius, stats)

    def close(self) -> None:
        if self._store is not None and hasattr(self._store, "close"):
            self._store.close()


class ShardWorkerPool:
    """One persistent worker process per populated shard.

    Parameters
    ----------
    specs:
        One :class:`ShardSpec` per populated shard.
    arena:
        The sealed :class:`SharedArena` the specs reference (``None``
        when shards are store-backed only).  The pool *owns* it: it is
        closed and unlinked at :meth:`close`.
    shard_count:
        Total shards including empty ones; scatter results are aligned
        to this.
    start_method / max_respawns:
        Process start method (:func:`default_start_method` by default)
        and the per-shard respawn budget after worker deaths.
    """

    def __init__(
        self,
        specs: Sequence[ShardSpec],
        arena: SharedArena | None = None,
        *,
        shard_count: int | None = None,
        start_method: str | None = None,
        max_respawns: int = 2,
    ) -> None:
        self._specs = {spec.shard: spec for spec in specs}
        if len(self._specs) != len(specs):
            raise ReproError("duplicate shard in worker-pool specs")
        self._arena = arena
        self._shard_count = (
            int(shard_count)
            if shard_count is not None
            else (max(self._specs) + 1 if self._specs else 0)
        )
        import multiprocessing

        self._ctx = multiprocessing.get_context(
            start_method or default_start_method()
        )
        self._procs: dict[int, object] = {}
        self._conns: dict[int, object] = {}
        self._dead: list[object] = []  # awaiting a final reaping join
        self._respawns: dict[int, int] = {}
        self._failed: dict[int, str] = {}
        self._max_respawns = int(max_respawns)
        self._started = False
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle: spawn -> warm -> serve -> drain -> shutdown
    # ------------------------------------------------------------------
    @property
    def shard_count(self) -> int:
        return self._shard_count

    @property
    def closed(self) -> bool:
        return self._closed

    def start(self) -> "ShardWorkerPool":
        """Spawn every worker and block until all report warm."""
        if self._started:
            return self
        self._started = True
        try:
            with obs.span("cluster.pool.spawn"):
                for shard in sorted(self._specs):
                    self._spawn(shard)
            with obs.span("cluster.pool.warm"):
                for shard in sorted(self._specs):
                    self._await_ready(shard, initial=True)
        except BaseException:
            self.close()
            raise
        return self

    def _spawn(self, shard: int) -> None:
        spec = self._specs[shard]
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        arena_meta = self._arena.meta if self._arena is not None else None
        proc = self._ctx.Process(
            target=_worker_main,
            args=(spec, arena_meta, child_conn),
            name=f"repro-shard-worker-{shard:02d}",
            daemon=True,
        )
        proc.start()
        child_conn.close()
        self._procs[shard] = proc
        self._conns[shard] = parent_conn
        obs.add("cluster.pool.spawns")
        self._publish_worker_gauge()

    def _await_ready(self, shard: int, initial: bool) -> bool:
        spec = self._specs[shard]
        message = self._collect(shard)
        error_type: type[ReproError] = ReproError
        if message is None:
            reason = f"shard {shard} worker died during warm-up"
        elif message[0] == "failed":
            reason = f"shard {shard} worker failed to build: {message[1]}"
            if str(message[1]).startswith("CorruptionError"):
                # Preserve the error's type across the process boundary:
                # a corrupt store must refuse the open the same way the
                # in-process path does.
                error_type = CorruptionError
        elif message[0] != "ready":
            reason = f"shard {shard} worker sent {message[0]!r} before ready"
        elif int(message[2]) != spec.size:
            reason = (
                f"shard {shard} worker holds {message[2]} members, "
                f"spec says {spec.size}"
            )
        else:
            spec.write_store = False  # respawns reopen, never rewrite
            return True
        self._note_death(shard)
        if initial:
            raise error_type(reason)
        self._failed[shard] = reason
        return False

    def pids(self) -> dict[int, int | None]:
        """Live worker pids by shard (``None`` for dead workers)."""
        return {
            shard: (proc.pid if proc is not None and proc.is_alive() else None)
            for shard, proc in self._procs.items()
        }

    def heartbeat(self) -> dict[int, bool]:
        """Ping every worker; ``False`` marks a dead/unresponsive one.

        Detection only — respawning happens lazily at the next request
        (:meth:`_ensure`), so a heartbeat never blocks on a rebuild.
        """
        alive: dict[int, bool] = {}
        for shard in sorted(self._specs):
            proc = self._procs.get(shard)
            ok = proc is not None and proc.is_alive()
            if ok:
                try:
                    self._conns[shard].send(("ping",))
                    response = self._collect(shard)
                    ok = response is not None and response[0] == "ok"
                except (BrokenPipeError, OSError):
                    self._note_death(shard)
                    ok = False
            alive[shard] = ok
        return alive

    def respawn_count(self, shard: int) -> int:
        return self._respawns.get(shard, 0)

    def close(self) -> None:
        """Drain and stop every worker, then release the shared arena.

        Idempotent, and deterministic even on exception paths: stop is
        offered politely first, then escalated terminate -> kill so the
        call can never leak an orphan process, and the arena segment is
        unlinked last (no ``/dev/shm`` residue).
        """
        if self._closed:
            return
        self._closed = True
        for conn in self._conns.values():
            try:
                conn.send(("stop",))
            except Exception:
                pass
        for proc in list(self._procs.values()) + self._dead:
            if proc is None:
                continue
            proc.join(timeout=_JOIN_S)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=1.0)
            if proc.is_alive():  # pragma: no cover - unkillable worker
                proc.kill()
                proc.join()
        for conn in self._conns.values():
            try:
                conn.close()
            except Exception:
                pass
        self._procs.clear()
        self._conns.clear()
        self._dead.clear()
        if self._arena is not None:
            self._arena.close()
        self._publish_worker_gauge()

    def __enter__(self) -> "ShardWorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------
    # Health plumbing
    # ------------------------------------------------------------------
    def _publish_worker_gauge(self) -> None:
        if obs.is_enabled():
            obs.set_gauge(
                "cluster.pool.workers",
                sum(
                    1
                    for proc in self._procs.values()
                    if proc is not None and proc.is_alive()
                ),
            )

    def _note_death(self, shard: int) -> None:
        obs.add("cluster.pool.deaths")
        proc = self._procs.get(shard)
        if proc is not None:
            proc.join(timeout=0)
            if proc.is_alive():
                # Still exiting (e.g. a failed warm-up unwinding its
                # stack); close() gives it a proper reaping join.
                self._dead.append(proc)
        self._procs[shard] = None
        conn = self._conns.pop(shard, None)
        if conn is not None:
            try:
                conn.close()
            except Exception:
                pass
        self._publish_worker_gauge()

    def _ensure(self, shard: int) -> bool:
        """Worker alive (respawning from spec if budget remains)?"""
        if self._closed:
            raise ReproError("the shard worker pool is closed")
        if shard in self._failed:
            return False
        proc = self._procs.get(shard)
        if proc is not None and proc.is_alive():
            return True
        if proc is not None:
            self._note_death(shard)
        if self._respawns.get(shard, 0) >= self._max_respawns:
            self._failed[shard] = (
                f"shard {shard} exhausted its respawn budget "
                f"({self._max_respawns})"
            )
            return False
        self._respawns[shard] = self._respawns.get(shard, 0) + 1
        obs.add("cluster.pool.respawns")
        with obs.span("cluster.pool.respawn"):
            self._spawn(shard)
            return self._await_ready(shard, initial=False)

    def _collect(self, shard: int):
        """One response from one worker; ``None`` on worker death.

        Polls in small steps and re-checks liveness, so a killed worker
        is reported promptly and a healthy-but-busy one is waited on —
        the gather can stall only behind live work, never a corpse.
        """
        conn = self._conns.get(shard)
        proc = self._procs.get(shard)
        if conn is None or proc is None:
            return None
        while True:
            try:
                if conn.poll(_POLL_S):
                    message = conn.recv()
                    obs.add("cluster.pool.responses")
                    return message
            except (EOFError, OSError):
                self._note_death(shard)
                return None
            if not proc.is_alive():
                try:  # drain race: the reply may already be buffered
                    if conn.poll(0):
                        return conn.recv()
                except (EOFError, OSError):
                    pass
                self._note_death(shard)
                return None

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------
    def _scatter_request(self, make_request) -> dict[int, object]:
        """Send one request per populated shard, then gather replies.

        Requests go out to every live worker *before* any reply is
        awaited, so shard work overlaps; the returned map holds each
        shard's raw response message (dead shards are simply absent).
        """
        sent: list[int] = []
        for shard in sorted(self._specs):
            if not self._ensure(shard):
                continue
            try:
                self._conns[shard].send(make_request(shard))
                obs.add("cluster.pool.requests")
                sent.append(shard)
            except (BrokenPipeError, OSError):
                self._note_death(shard)
        if obs.is_enabled():
            obs.set_gauge("cluster.pool.queue_depth", len(sent))
        responses: dict[int, object] = {}
        for shard in sent:
            message = self._collect(shard)
            if message is not None:
                responses[shard] = message
            if obs.is_enabled():
                obs.set_gauge(
                    "cluster.pool.queue_depth",
                    len(sent) - len(responses),
                )
        return responses

    def _crash_triple(self, spec: ShardSpec, message):
        """The scatter triple for a shard whose worker is gone."""
        from repro.cluster.router import _shard_fallback

        if message is not None and message[0] == "err":
            reason = str(message[1])
        elif spec.shard in self._failed:
            reason = self._failed[spec.shard]
        else:
            reason = "worker process died"
        obs.add("cluster.pool.fallbacks")
        stats = SearchStats()
        stats.degraded = True
        error = WorkerCrashError(
            f"shard {spec.shard} worker unavailable: {reason}"
        )
        return _shard_fallback(spec.size), stats, error

    def scatter_candidates(self, op: str, query, arg) -> list:
        """One ``(candidates, stats, error)`` triple per shard.

        The list is aligned to the full shard range (empty shards get
        empty candidate sets); a dead worker's entry is its shard's
        exhaustive fallback plus a :class:`WorkerCrashError`, exactly
        the shape the router's gather already absorbs.
        """
        with obs.span("cluster.pool.scatter"):
            responses = self._scatter_request(
                lambda shard: (op, query, arg)
            )
        out = []
        for shard in range(self._shard_count):
            spec = self._specs.get(shard)
            if spec is None:
                out.append(
                    (CandidateSet(entries=[], generated=0), SearchStats(), None)
                )
                continue
            message = responses.get(shard)
            if message is not None and message[0] == "ok":
                out.append(message[1])
            else:
                out.append(self._crash_triple(spec, message))
        return out

    def scatter_knn(self, query, k: int) -> list:
        return self.scatter_candidates("knn", query, int(k))

    def scatter_range(self, query, radius: float) -> list:
        return self.scatter_candidates("range", query, float(radius))

    def batch_search(
        self, queries, k: int, policy=None
    ) -> dict[int, list | None]:
        """Whole-batch sub-searches, one per populated shard.

        Each worker runs the full query batch against its warm index at
        ``min(k, shard_size)`` and returns per-query ``(neighbors,
        stats)`` with shard-local ids; the caller merges.  A dead
        worker maps to ``None`` — the caller falls back to the
        per-query scatter path, which serves that shard degraded.  The
        resolved :class:`~repro.engine.approx.ApproxPolicy` travels on
        the wire so workers never consult their own environment; the
        router only routes *exact* batches here (see
        ``engine/batch.py``).
        """
        wire = resolve_policy(policy).wire()
        with obs.span("cluster.pool.batch"):
            responses = self._scatter_request(
                lambda shard: ("batch", queries, int(k), wire)
            )
        out: dict[int, list | None] = {}
        for shard, spec in self._specs.items():
            message = responses.get(shard)
            if message is not None and message[0] == "ok":
                out[shard] = message[1]
            else:
                if message is None or message[0] != "ok":
                    self._crash_triple(spec, message)  # book-keeping only
                out[shard] = None
        return out

    def batch_candidates(self, queries, k: int) -> list[list] | None:
        """Whole-batch candidate scatter: per-query triples per shard.

        Ships the entire batch to every warm worker in one ``cands``
        request; each worker runs its k-NN generator once per query and
        answers with one ``(CandidateSet, SearchStats, error)`` triple
        per query — the same payloads ``scatter_knn`` would produce one
        query at a time, so a parent-side gather over them is
        bit-identical to the per-query scatter.  Returns one
        full-shard-range triple list per query (the
        :meth:`scatter_candidates` shape), or ``None`` when any worker
        died — partial batches are not reasoned about; the caller falls
        back to per-query scatter, which serves the dead shard
        degraded.
        """
        with obs.span("cluster.pool.batch_cands"):
            responses = self._scatter_request(
                lambda shard: ("cands", queries, int(k))
            )
        per_shard: dict[int, list] = {}
        for shard, spec in self._specs.items():
            message = responses.get(shard)
            if message is not None and message[0] == "ok":
                per_shard[shard] = message[1]
            else:
                self._crash_triple(spec, message)  # book-keeping only
                return None
        out: list[list] = []
        for position in range(len(queries)):
            triples = []
            for shard in range(self._shard_count):
                shard_payloads = per_shard.get(shard)
                if shard_payloads is None:
                    triples.append(
                        (
                            CandidateSet(entries=[], generated=0),
                            SearchStats(),
                            None,
                        )
                    )
                else:
                    triples.append(shard_payloads[position])
            out.append(triples)
        return out

    def request_candidates(self, shard: int, op: str, query, arg):
        """One shard's scatter triple (the :class:`ShardStub` path)."""
        spec = self._specs.get(shard)
        if spec is None:
            return CandidateSet(entries=[], generated=0), SearchStats(), None
        if not self._ensure(shard):
            return self._crash_triple(spec, None)
        try:
            self._conns[shard].send((op, query, arg))
            obs.add("cluster.pool.requests")
        except (BrokenPipeError, OSError):
            self._note_death(shard)
            return self._crash_triple(spec, None)
        message = self._collect(shard)
        if message is not None and message[0] == "ok":
            return message[1]
        return self._crash_triple(spec, message)
