"""Shared machinery of the benchmark: timing, tracing, oracles, hygiene.

Everything here sits *outside* the library.  The workloads drive
``repro`` through its public API only; this module supplies what a
measurement needs around those calls:

* :class:`Loop` — the closed-loop run clock (one client, next request
  only after the previous one returned) and per-operation latency
  samples;
* :class:`HostSpeed` — the calibration probe that expresses wall times
  at a fixed host speed;
* :class:`Tracer` — benchmark-side spans and counts around the
  library's layer entry points, with self time (span minus child
  spans), recorded in the workload process and in the pool workers it
  forks; used only by the traced run;
* the oracles — brute-force exact k-NN / range answers computed at
  input-generation time, and the answer checkers every timed operation
  goes through;
* process hygiene — peak memory of the workload plus its worker
  processes, leftover child processes and ``/dev/shm`` segments.
"""

from __future__ import annotations

import contextlib
import inspect
import mmap
import os
import platform
import sys
import time

import numpy as np

#: Relative tolerance between a reported distance and the oracle's.  The
#: engine and the oracle sum squared differences in different orders, so
#: the last bits may differ; real disagreements are many orders larger.
DIST_RTOL = 1e-9

#: Percentile used as the tail: a run must hold at least ten samples of
#: every operation type beyond it (so at least 100 samples).
TAIL_PCT = 90
MIN_SAMPLES = 100

#: A run that has not collected ``MIN_SAMPLES`` of every operation type
#: by ``--seconds`` keeps going, but never past this multiple of it.
MAX_STRETCH = 2.0


class BenchError(Exception):
    """The benchmark cannot run here (missing source, stray knob, ...)."""


# ----------------------------------------------------------------------
# Environment
# ----------------------------------------------------------------------
def refuse_knobs(environ=os.environ) -> None:
    """Refuse to measure while any ``REPRO_*`` knob could change the run."""
    stray = sorted(name for name in environ if name.startswith("REPRO_"))
    if stray:
        raise BenchError(
            "unset these environment variables before benchmarking: "
            + ", ".join(stray)
        )


def fingerprint(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """Host and environment identity attached to every record."""
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def pct(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values) -> float:
    return pct(values, 50)


def metric(value: float, unit: str, samples: int) -> dict:
    return {"value": float(value), "unit": unit, "samples": int(samples)}


def latency_metrics(name: str, samples_s) -> dict:
    """``<name>_p50_ms`` and ``<name>_p90_ms`` from latency samples."""
    n = len(samples_s)
    return {
        f"{name}_p50_ms": metric(1e3 * pct(samples_s, 50), "ms", n),
        f"{name}_p{TAIL_PCT}_ms": metric(1e3 * pct(samples_s, TAIL_PCT), "ms", n),
    }


def wall_metrics(loop, setup_wall) -> dict:
    """Measured wall times, for the record beside the reported ones."""
    out = {"setup_s": metric(median(setup_wall), "s", len(setup_wall))}
    for op, samples in loop.wall.items():
        out.update(latency_metrics(op, samples))
    return out


def ratio(numerator: float, denominator: float) -> float:
    return float(numerator) / denominator if denominator else 0.0


def overhead(traced, untraced) -> float:
    """Traced median latency over the untraced median, minus one."""
    if not traced or not untraced:
        return 0.0
    return median(traced) / median(untraced) - 1.0


# ----------------------------------------------------------------------
# The closed loop
# ----------------------------------------------------------------------
class Loop:
    """Run clock and latency samples for one closed-loop client.

    The client calls :meth:`tick` at the start of every request cycle
    (which runs the host probe, outside every timed region) and
    :meth:`add` for each operation it timed.  The loop runs for
    ``seconds``; if some operation type still has fewer than
    ``min_samples`` samples it keeps going, up to ``MAX_STRETCH`` times
    ``seconds``.  :attr:`samples` are the operations' times at the
    reference host speed (see :class:`HostSpeed`), :attr:`wall` the
    measured wall times.  Only time inside operations is charged to the
    client: answer checks, probes and tracing bookkeeping are not.
    """

    def __init__(self, seconds: float, op_types, host: "HostSpeed",
                 min_samples: int = MIN_SAMPLES):
        self.seconds = float(seconds)
        self.min_samples = int(min_samples)
        self.host = host
        self._timed: dict[str, list[tuple[int, float]]] = {op: [] for op in op_types}
        self.cycles = 0
        self.started = time.perf_counter()

    def running(self) -> bool:
        elapsed = time.perf_counter() - self.started
        if elapsed >= MAX_STRETCH * self.seconds:
            return False
        if elapsed < self.seconds:
            return True
        return min(len(s) for s in self._timed.values()) < self.min_samples

    def tick(self) -> None:
        """Start a request cycle."""
        self.host.probe()
        self.cycles += 1

    def add(self, op: str, seconds: float) -> None:
        self._timed[op].append((self.cycles - 1, seconds))

    @property
    def wall(self) -> dict[str, list[float]]:
        return {op: [s for _, s in timed] for op, timed in self._timed.items()}

    @property
    def samples(self) -> dict[str, list[float]]:
        scales = self.host.cycle_scales()
        return {op: [s * scales[c] for c, s in timed] for op, timed in self._timed.items()}

    @property
    def op_count(self) -> int:
        return sum(len(s) for s in self._timed.values())

    def op_seconds(self, samples: dict[str, list[float]]) -> float:
        return sum(sum(s) for s in samples.values())


#: Probe time that defines the reported time scale: a reported time is
#: the wall time the operation would have taken on a host that runs
#: :meth:`HostSpeed.probe` in exactly this long.  It fixes only the unit
#: of reported times; it is a round figure near the probe's median on a
#: 2-vCPU 2.0 GHz Xeon VM (2.9 to 3.6 ms there, depending on load).
PROBE_REF_S = 2.5e-3

#: Probes run just before and just after each set-up.
SETUP_PROBES = 5

#: A request cycle's time scale is taken from the probes of the cycles
#: up to this many before and after it.
CYCLE_WINDOW = 5


class HostSpeed:
    """A fixed calibration probe run beside the workload.

    Hosts shared with other tenants change speed by up to 2x over tens
    of seconds, which moves every wall-clock figure of a run together.
    The workload runs this probe (about three milliseconds of the kinds
    of work the library does: a vectorised numpy reduction, many small
    numpy calls, and a Python loop) before and after each set-up and at
    the start of each request cycle, outside every timed region.
    Reported times are wall times multiplied by ``PROBE_REF_S`` over the
    median of the probes around them: the set-up's own
    ``2 * SETUP_PROBES`` probes, or the probes of the request cycles
    within ``CYCLE_WINDOW`` of the operation's cycle.  A slow spell of
    the host thus slows probe and operation alike and cancels out,
    while a slower library slows only the operation.  The record line
    keeps the wall times beside the reported ones.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._rows = rng.standard_normal((256, 365))
        self._query = self._rows[0].copy()
        self._small = rng.standard_normal((32, 16))
        self.samples: dict[str, list[float]] = {"setup": [], "loop": []}

    def probe(self, phase: str = "loop", repeat: int = 1) -> None:
        for _ in range(repeat):
            started = time.perf_counter()
            for _ in range(8):
                diff = self._rows - self._query
                np.einsum("ij,ij->i", diff, diff)
            for j in range(150):
                diff = self._small - self._small[j % 32]
                np.einsum("ij,ij->i", diff, diff).argmin()
            total = 0
            for i in range(3000):
                total += i
            self.samples[phase].append(time.perf_counter() - started)

    def scale(self, phase: str) -> float:
        """Reference over measured speed, over a whole phase."""
        samples = self.samples[phase]
        return PROBE_REF_S / median(samples) if samples else 1.0

    def setup_time(self, wall_s: float) -> float:
        """A set-up's wall time at the reference speed, from the probes
        run just before and just after it."""
        return wall_s * PROBE_REF_S / median(self.samples["setup"][-2 * SETUP_PROBES:])

    def cycle_scales(self) -> list[float]:
        """Per request cycle, reference over measured speed."""
        probes = self.samples["loop"]
        return [
            PROBE_REF_S / median(probes[max(0, c - CYCLE_WINDOW): c + CYCLE_WINDOW + 1])
            for c in range(len(probes))
        ]


def at_reference_speed(value: float, unit: str, scale: float) -> float:
    """A measured value expressed at the reference host's speed."""
    if unit in ("s", "ms"):
        return value * scale
    if unit == "1/s":
        return value / scale
    return value


class Outcome:
    """Operation counts and the reasons any of them failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok

    def fail(self, what: str) -> None:
        self.check(False, what)

    def timed(self, what: str, call, *args, **kwargs):
        """``(result, seconds)`` of one operation; ``(None, None)`` and a
        failure when it raised."""
        started = time.perf_counter()
        try:
            result = call(*args, **kwargs)
        except Exception as exc:  # every library error counts as a failed operation
            self.fail(f"{what} raised {type(exc).__name__}: {exc}")
            return None, None
        return result, time.perf_counter() - started


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------
#: Processes a traced run records from: the workload process (slot 0)
#: and the pool workers it forks, one slot each in fork order.
SLOTS = 16
#: Distinct span and counter names one run may use.
NAMES = 64


class Tracer:
    """Benchmark-side spans and counts around library entry points.

    :meth:`wrap` replaces an attribute (function, method, classmethod,
    staticmethod) with a timing wrapper and :meth:`count` with a
    counting one; :meth:`restore` puts every original back.  Wrappers
    record only while :attr:`active` is set.  Each completed span adds
    its duration to its name's total and its duration minus its child
    spans to the name's self time.

    Records live in an anonymous shared memory map, one slot per
    process: a pool worker forked after the wrappers went in inherits
    them, records into its own slot, and the workload process reads
    every slot.  The :attr:`active` switch lives there too, so turning
    tracing on or off reaches the workers.
    """

    def __init__(self) -> None:
        self._buffer = mmap.mmap(-1, 8 * (1 + SLOTS * NAMES * 3))
        table = np.frombuffer(self._buffer, dtype=np.float64)
        self._switch = table[:1]
        self._table = table[1:].reshape(SLOTS, NAMES, 3)  # total, self, calls
        self._cells = memoryview(self._buffer).cast("d")
        self._names: dict[str, int] = {}
        self._children: list[float] = []
        self._patches: list[tuple[object, str, object]] = []
        self.slot = 0
        self._forks = 0
        os.register_at_fork(before=self._before_fork, after_in_child=self._in_child)

    def _before_fork(self) -> None:
        self._forks += 1

    @property
    def forks(self) -> int:
        """Processes forked so far; the latest one records in this slot."""
        return self._forks

    def _in_child(self) -> None:
        self.slot = self._forks if self._forks < SLOTS else -1
        self._children = []

    @property
    def active(self) -> bool:
        return bool(self._switch[0])

    @active.setter
    def active(self, on: bool) -> None:
        self._switch[0] = 1.0 if on else 0.0

    def _index(self, name: str) -> int:
        index = self._names.get(name)
        if index is None:
            if self.slot != 0 or len(self._names) >= NAMES:
                return -1  # names are registered in the workload process only
            index = self._names[name] = len(self._names)
        return index

    def _cell(self, index: int) -> int:
        return 1 + 3 * (self.slot * NAMES + index)

    # -- span bookkeeping ------------------------------------------------
    def _open(self) -> float:
        self._children.append(0.0)
        return time.perf_counter()

    def _close(self, index: int, started: float) -> None:
        duration = time.perf_counter() - started
        children = self._children.pop()
        if self.slot >= 0 and index >= 0:
            cell, cells = self._cell(index), self._cells
            cells[cell] += duration
            cells[cell + 1] += duration - children
            cells[cell + 2] += 1
        if self._children:
            self._children[-1] += duration

    def declare(self, *names: str) -> None:
        """Register names that only forked workers record under."""
        for name in names:
            self._index(name)

    def begin(self) -> float | None:
        """Open a span by hand; ``None`` while tracing is off."""
        return self._open() if self.active else None

    def end(self, name: str, started: float | None) -> None:
        """Close a span :meth:`begin` opened."""
        if started is not None:
            self._close(self._index(name), started)

    def add(self, name: str, amount: float = 1) -> None:
        """Add ``amount`` to counter ``name`` (while active)."""
        index = self._index(name)
        if self.active and self.slot >= 0 and index >= 0:
            cell = self._cell(index)
            self._cells[cell] += amount
            self._cells[cell + 2] += 1

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a call the benchmark makes itself."""
        if not self.active:
            yield
            return
        index = self._index(name)
        started = self._open()
        try:
            yield
        finally:
            self._close(index, started)

    # -- wrapping --------------------------------------------------------
    def _timed(self, fn, name: str):
        tracer, index = self, self._index(name)

        def wrapper(*args, **kwargs):
            if not tracer._switch[0]:
                return fn(*args, **kwargs)
            started = tracer._open()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(index, started)

        wrapper.__name__ = getattr(fn, "__name__", "wrapped")
        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, fn, counts: dict):
        tracer = self
        for name in counts:
            self._index(name)

        def wrapper(*args, **kwargs):
            if tracer._switch[0]:
                for name, amount in counts.items():
                    tracer.add(name, amount(*args, **kwargs))
            return fn(*args, **kwargs)

        wrapper.__name__ = getattr(fn, "__name__", "wrapped")
        wrapper.__wrapped__ = fn
        return wrapper

    def _replace(self, owner, attr: str, make) -> None:
        original = inspect.getattr_static(owner, attr)
        if isinstance(original, classmethod):
            replacement = classmethod(make(original.__func__))
        elif isinstance(original, staticmethod):
            replacement = staticmethod(make(original.__func__))
        else:
            replacement = make(original)
        self.patch(owner, attr, replacement)

    def wrap(self, owner, attr: str, name: str) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``."""
        self._replace(owner, attr, lambda fn: self._timed(fn, name))

    def count(self, owner, attr: str, counts: dict) -> None:
        """On every call of ``owner.attr``, add ``amount(*args)`` to the
        counter ``name`` for each ``name: amount`` of ``counts``."""
        self._replace(owner, attr, lambda fn: self._counted(fn, counts))

    def patch(self, owner, attr: str, replacement) -> None:
        """Replace ``owner.attr`` until :meth:`restore`."""
        self._patches.append((owner, attr, inspect.getattr_static(owner, attr)))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading ---------------------------------------------------------
    def snapshot(self) -> np.ndarray:
        """A copy of every slot's records, to read later with ``at=``."""
        return self._table.copy()

    def _read(self, name: str, column: int, where, at) -> float:
        index = self._names.get(name)
        if index is None:
            return 0.0
        if isinstance(where, int):
            rows = slice(where, where + 1)
        else:
            rows = {"all": slice(None), "parent": slice(0, 1), "workers": slice(1, None)}[where]
        table = self._table if at is None else at
        return float(table[rows, index, column].sum())

    def total_s(self, name: str, where="all", at=None) -> float:
        """Summed span time of ``name`` in ``where``: ``"all"`` slots,
        the ``"parent"``, the ``"workers"`` or one slot number."""
        return self._read(name, 0, where, at)

    def self_s(self, name: str, where="all", at=None) -> float:
        return self._read(name, 1, where, at)

    def calls(self, name: str, where="all", at=None) -> int:
        return int(self._read(name, 2, where, at))

    def counter(self, name: str, where="all", at=None) -> int:
        return int(self._read(name, 0, where, at))

    def reset(self) -> None:
        self._table[:] = 0.0


def spanner(tracer: Tracer | None):
    """``tracer.span``, or a no-op span maker when the run is untraced."""
    if tracer is None:
        return lambda _name: contextlib.nullcontext()
    return tracer.span


def wrap_common_layers(tracer: Tracer) -> None:
    """Wrap the layers every workload crosses: compression, bounds,
    candidate generation, page-store I/O and ``fsync``.

    Counters: ``bounds.kernel_calls`` / ``bounds.pairs`` at the batch
    bound kernel, ``storage.read_calls`` / ``storage.pages_read`` where
    a store charges a read to its ``IOStats``.
    """
    import repro.bounds.batch as bounds_batch
    from repro.compression import SketchDatabase
    from repro.index.flat import FlatSketchIndex
    from repro.index.vptree import VPTreeIndex
    from repro.storage.pagestore import IOStats, SequencePageStore

    kernel = type(bounds_batch.get_batch_kernel("best_min_error_safe"))
    tracer.wrap(SketchDatabase, "from_matrix", "compression.compress")
    tracer.wrap(kernel, "__call__", "bounds.kernel")
    tracer.count(kernel, "__call__", {
        "bounds.kernel_calls": lambda kernel, batch, db: 1,
        "bounds.pairs": lambda kernel, batch, db: len(db),
    })
    for index_class in (VPTreeIndex, FlatSketchIndex):
        tracer.wrap(index_class, "knn_candidates", "index.generate")
        tracer.wrap(index_class, "range_candidates", "index.generate")
    tracer.wrap(SequencePageStore, "append_matrix", "storage.write")
    tracer.wrap(SequencePageStore, "read_many", "storage.read")
    tracer.wrap(SequencePageStore, "read", "storage.read")
    tracer.count(IOStats, "charge", {
        "storage.read_calls": lambda stats, first, pages: 1,
        "storage.pages_read": lambda stats, first, pages: pages,
    })
    tracer.wrap(os, "fsync", "os.fsync")


# ----------------------------------------------------------------------
# Oracles and checks
# ----------------------------------------------------------------------
def exact_neighbours(matrix: np.ndarray, queries: np.ndarray, k: int):
    """Canonical brute-force k-NN: ``(ids, distances, next)`` per query.

    Neighbours are the ``k`` smallest ``(distance, id)`` pairs.  A
    matrix-product screen keeps the ``k + 33`` nearest rows per query,
    whose distances are then recomputed exactly from differences.
    ``next`` is the ``(k+1)``-th exact distance, which the range
    queries use to place their radius between the ``k``-th and
    ``(k+1)``-th neighbour.
    """
    norms = np.einsum("ij,ij->i", matrix, matrix)
    keep = min(len(matrix), k + 33)
    out = []
    for start in range(0, len(queries), 64):
        block = queries[start : start + 64]
        approx = (
            norms[None, :]
            + np.einsum("ij,ij->i", block, block)[:, None]
            - 2.0 * block @ matrix.T
        )
        for row, query in zip(approx, block):
            screen = np.argpartition(row, keep - 1)[:keep]
            diff = matrix[screen] - query
            d_sq = np.einsum("ij,ij->i", diff, diff)
            order = np.lexsort((screen, d_sq))
            ids = screen[order]
            dists = np.sqrt(d_sq[order])
            out.append((ids[:k].tolist(), dists[:k].tolist(), float(dists[k])))
    return out


def query_mix(gen, raw: np.ndarray, rng, count: int) -> np.ndarray:
    """``count`` raw-count queries alternating between the two kinds.

    Even positions come from ``queries_outside_database`` (the paper's
    "sequences not found in the database"); odd positions are database
    members with multiplicative noise (``exp(0.1 * N(0, 1))`` per day).
    Alternating keeps the mix at one half however many queries a run
    gets through.
    """
    outside = gen.queries_outside_database(count - count // 2).as_matrix()
    members = rng.choice(len(raw), size=count // 2, replace=False)
    noise = np.exp(0.1 * rng.standard_normal((len(members), raw.shape[1])))
    mixed = np.empty((count, raw.shape[1]))
    mixed[0::2] = outside
    mixed[1::2] = raw[members] * noise
    return mixed


def close(a: float, b: float) -> bool:
    return abs(a - b) <= DIST_RTOL * max(1.0, abs(a), abs(b))


def check_knn(answer, truth_ids, truth_dists, true_distance) -> str | None:
    """``None`` when ``answer`` is an exact k-NN answer, else the reason.

    The answer must list ``k`` distinct members in ``(distance, id)``
    order, each with its true distance, and its distance profile must
    equal the oracle's.  Members may differ from the oracle's only where
    distances tie within :data:`DIST_RTOL`.
    """
    ids = [n.seq_id for n in answer]
    dists = [n.distance for n in answer]
    if len(ids) != len(truth_ids):
        return f"knn returned {len(ids)} neighbours, expected {len(truth_ids)}"
    if len(set(ids)) != len(ids):
        return "knn returned a member twice"
    if ids == list(truth_ids) and all(map(close, dists, truth_dists)):
        return None
    for seq_id, dist in zip(ids, dists):
        if not close(dist, true_distance(seq_id)):
            return f"knn reported distance {dist} for {seq_id}"
    if not all(map(close, dists, truth_dists)):
        return "knn distance profile differs from the oracle"
    return None


def check_invariant(stats, size: int) -> str | None:
    """The engine's pruning invariant on one query's ``SearchStats``."""
    total = (
        stats.candidates_pruned
        + stats.full_retrievals
        + stats.quarantined
        + stats.skipped_approx
    )
    if total != size:
        return f"pruning invariant broken: {total} != {size}"
    if stats.degraded or stats.approximate:
        return "answer flagged degraded or approximate"
    return None


# ----------------------------------------------------------------------
# Memory and process hygiene
# ----------------------------------------------------------------------
def _status_kib(pid: int | str, field: str) -> int:
    with contextlib.suppress(OSError, ValueError, IndexError):
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    return 0


def reset_peak_rss() -> None:
    """Restart this process's peak-RSS count (``VmHWM``) from now.

    Called once the inputs and oracles exist, so ``peak_rss_mb`` covers
    set-up and serving, not the benchmark's own input generation.  A
    kernel that refuses leaves the count running from process start.
    """
    with contextlib.suppress(OSError):
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")


def own_peak_rss_kib() -> int:
    return _status_kib("self", "VmHWM")


def private_kib(pid: int) -> int:
    """Memory only ``pid`` holds (private clean + dirty pages), in KiB.

    A forked worker shares its parent's pages until it writes them;
    counting only its private pages keeps the parent's memory from
    being counted once per worker.
    """
    total = 0
    with contextlib.suppress(OSError, ValueError, IndexError):
        with open(f"/proc/{pid}/smaps_rollup") as handle:
            for line in handle:
                if line.startswith(("Private_Clean:", "Private_Dirty:")):
                    total += int(line.split()[1])
    return total


def child_pids() -> list[int]:
    """Live child processes of this process (all threads)."""
    pids: list[int] = []
    task_dir = f"/proc/{os.getpid()}/task"
    with contextlib.suppress(OSError):
        for tid in os.listdir(task_dir):
            with contextlib.suppress(OSError):
                with open(f"{task_dir}/{tid}/children") as handle:
                    pids.extend(int(p) for p in handle.read().split())
    return pids


def stop_resource_tracker() -> None:
    """Stop the helper process ``multiprocessing`` starts to track shared
    memory, if this process started one, and wait for it to exit."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def shm_entries() -> set[str]:
    with contextlib.suppress(OSError):
        return set(os.listdir("/dev/shm"))
    return set()


class Hygiene:
    """Checks that a workload leaves no child process or shm segment."""

    def __init__(self) -> None:
        self.shm_before = shm_entries()

    def problems(self) -> list[str]:
        found = []
        deadline = time.monotonic() + 5.0
        while child_pids() and time.monotonic() < deadline:
            time.sleep(0.05)
        if child_pids():
            found.append(f"child processes left running: {child_pids()}")
        leaked = shm_entries() - self.shm_before
        if leaked:
            found.append(f"/dev/shm segments left behind: {sorted(leaked)}")
        return found


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)
