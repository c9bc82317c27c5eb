"""Ingest-throughput experiment: the fast build path vs the reference.

The paper's database exists *before* any query runs: up to :math:`2^{15}`
sequences of length 1024 are transformed, sketched and persisted, and the
Lernaean Hydra evaluations (Echihabi et al.) show that at this scale the
build dominates end-to-end time.  This experiment times the two halves of
the fast ingest pipeline against their per-row references:

* **compression** — :meth:`SketchDatabase.from_matrix` (one batched
  transform + vectorised top-k selection) vs
  :meth:`SketchDatabase.from_matrix_scalar` (one ``Spectrum`` and one
  sketch object per row);
* **store write** — the bulk :meth:`SequencePageStore.append_matrix`
  (one encode pass, one ``write`` syscall) vs a loop of per-row
  :meth:`SequencePageStore.append` calls.

Equivalence is asserted inside the experiment, not assumed: the batch
database must compare equal array-for-array with the scalar one, and the
bulk-written file must be byte-identical to the per-row file.  A third
section times :func:`repro.cluster.build_sharded` in process vs on the
persistent worker pool (whose warm-up is the parallel build), when a
shard count is requested.
"""

from __future__ import annotations

import filecmp
import os
import time
from dataclasses import dataclass

import numpy as np

from repro.compression.database import SketchDatabase
from repro.evaluation.reporting import format_table
from repro.storage.pagestore import SequencePageStore

__all__ = [
    "IngestResult",
    "IngestRow",
    "databases_equal",
    "ingest_experiment",
]


@dataclass(frozen=True)
class IngestRow:
    """One timed ingest configuration.

    ``cpu_seconds`` (:func:`time.process_time`: user + system time of
    this process) is the headline cost and the basis of every speedup:
    it charges exactly the work the code path performs — including its
    own syscalls — while staying immune to CPU-quota throttling,
    scheduler steal and background writeback, none of which the code
    imposes.  ``wall_seconds`` is recorded alongside for context.
    """

    path: str
    wall_seconds: float
    cpu_seconds: float
    sequences_per_second: float


@dataclass(frozen=True)
class IngestResult:
    """Timings for the per-row reference and the batched ingest path."""

    database_size: int
    sequence_length: int
    compress_scalar: IngestRow
    compress_batch: IngestRow
    store_scalar: IngestRow
    store_bulk: IngestRow
    shard_serial_seconds: float | None
    shard_parallel_seconds: float | None
    shard_count: int | None
    equivalent: bool

    @property
    def compress_speedup(self) -> float:
        return self.compress_scalar.cpu_seconds / max(
            self.compress_batch.cpu_seconds, 1e-12
        )

    @property
    def store_speedup(self) -> float:
        return self.store_scalar.cpu_seconds / max(
            self.store_bulk.cpu_seconds, 1e-12
        )

    @property
    def ingest_speedup(self) -> float:
        """End-to-end (compress + persist) batch-over-scalar speedup."""
        scalar = (
            self.compress_scalar.cpu_seconds + self.store_scalar.cpu_seconds
        )
        batch = self.compress_batch.cpu_seconds + self.store_bulk.cpu_seconds
        return scalar / max(batch, 1e-12)

    @property
    def shard_build_speedup(self) -> float | None:
        if self.shard_serial_seconds is None:
            return None
        return self.shard_serial_seconds / max(
            self.shard_parallel_seconds, 1e-12
        )

    def rows(self) -> tuple[IngestRow, ...]:
        return (
            self.compress_scalar,
            self.compress_batch,
            self.store_scalar,
            self.store_bulk,
        )

    def as_table(self) -> str:
        body = [
            (
                row.path,
                row.cpu_seconds,
                row.wall_seconds,
                row.sequences_per_second,
            )
            for row in self.rows()
        ]
        table = format_table(
            ("ingest path", "cpu s", "wall s", "seq/s"),
            body,
            title=(
                f"ingest pipeline, {self.database_size} seqs x "
                f"{self.sequence_length} days"
            ),
            digits=3,
        )
        lines = [
            table,
            f"speedups: compress {self.compress_speedup:.1f}x, "
            f"store {self.store_speedup:.1f}x, "
            f"end-to-end {self.ingest_speedup:.1f}x",
        ]
        if self.shard_serial_seconds is not None:
            lines.append(
                f"shard build ({self.shard_count} shards): serial "
                f"{self.shard_serial_seconds:.3f}s, "
                f"worker pool {self.shard_parallel_seconds:.3f}s "
                f"({self.shard_build_speedup:.1f}x)"
            )
        lines.append(
            "batch/scalar equivalence: "
            + ("bit-identical" if self.equivalent else "MISMATCH")
        )
        return "\n".join(lines)


def databases_equal(left: SketchDatabase, right: SketchDatabase) -> bool:
    """Exact array-for-array equality of two packed sketch databases."""
    return (
        left.n == right.n
        and left.basis == right.basis
        and left.method == right.method
        and left.names == right.names
        and np.array_equal(left.positions, right.positions)
        and np.array_equal(left.coefficients, right.coefficients)
        and np.array_equal(left.weights, right.weights)
        and np.array_equal(left.errors, right.errors, equal_nan=True)
        and np.array_equal(left.min_powers, right.min_powers, equal_nan=True)
        and np.array_equal(left._widths, right._widths)
    )


def ingest_experiment(
    matrix: np.ndarray,
    tmp_dir,
    compressor=None,
    shards: int | None = None,
    shard_backend: str = "flat",
    repeats: int = 3,
) -> IngestResult:
    """Time batch vs per-row ingest over ``matrix``, asserting equivalence.

    Parameters
    ----------
    matrix:
        The ``(count, n)`` database to ingest.
    tmp_dir:
        Scratch directory for the page-store files.
    compressor:
        Any fixed-k compressor (default ``BestMinErrorCompressor(14)``,
        the paper's headline configuration).
    shards:
        When given, additionally time :func:`repro.cluster.build_sharded`
        into that many shards in process (``worker_pool=False``) vs on
        the persistent worker pool (``worker_pool=True``).
    shard_backend:
        Registry backend for the shard-build timing.  ``"vptree"`` makes
        the per-shard work dominate (tree construction), which is the
        configuration the parallel-build speedup gate measures.
    repeats:
        Each compress/store leg runs this many times and reports its
        *minimum* CPU and wall time — the standard way to separate the
        cost a code path imposes from scheduler and writeback
        interference.
    """
    from repro.compression.best_k import BestMinErrorCompressor

    matrix = np.ascontiguousarray(matrix, dtype=np.float64)
    count, n = matrix.shape
    compressor = compressor or BestMinErrorCompressor(14)

    # One untimed warm-up pass.  The vectorised path's first call pays
    # one-off costs that real ingest amortises — page faults for its
    # large working arrays and pocketfft setup (build_sharded alone
    # invokes it once per shard) — so both paths are timed at steady
    # state, in the same process condition.
    SketchDatabase.from_matrix(matrix, compressor)

    # Every leg is timed ``repeats`` times and reported as the minimum
    # of each clock: the cost the code *imposes*, as opposed to
    # whatever interference (writeback, scheduler steal, CPU-quota
    # throttling) a single run happens to absorb.  The two paths of
    # each pair alternate within a repeat so that both sample the same
    # host conditions.  Each store repeat writes a fresh file after
    # draining outstanding writeback (``os.sync``): on slow disks a
    # leg's wall time would otherwise be inflated by an earlier leg's
    # dirty pages still flushing — a measurement artefact, not an
    # ingest cost.
    def _timed(leg) -> tuple[float, float]:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        leg()
        return time.perf_counter() - wall0, time.process_time() - cpu0

    def _merge(best: tuple[float, float], sample: tuple[float, float]):
        return min(best[0], sample[0]), min(best[1], sample[1])

    inf = float("inf")
    scalar_store = bulk_store = (inf, inf)
    # One file per path, overwritten on every repeat: reusing the same
    # blocks keeps the experiment's footprint flat instead of growing
    # by two matrices per repeat.
    scalar_path = os.path.join(tmp_dir, "ingest-scalar.pages")
    bulk_path = os.path.join(tmp_dir, "ingest-bulk.pages")
    for repeat in range(repeats):
        with SequencePageStore(scalar_path, n) as store:
            os.sync()

            def _per_row_leg(store=store):
                for row in matrix:
                    store.append(row)

            scalar_store = _merge(scalar_store, _timed(_per_row_leg))
        with SequencePageStore(bulk_path, n) as store:
            os.sync()
            bulk_store = _merge(
                bulk_store,
                _timed(lambda store=store: store.append_matrix(matrix)),
            )

    scalar_compress = batch_compress = (inf, inf)
    scalar_db = batch_db = None
    for _ in range(repeats):

        def _scalar_leg():
            nonlocal scalar_db
            scalar_db = SketchDatabase.from_matrix_scalar(matrix, compressor)

        def _batch_leg():
            nonlocal batch_db
            batch_db = SketchDatabase.from_matrix(matrix, compressor)

        scalar_compress = _merge(scalar_compress, _timed(_scalar_leg))
        batch_compress = _merge(batch_compress, _timed(_batch_leg))

    equivalent = databases_equal(scalar_db, batch_db) and filecmp.cmp(
        scalar_path, bulk_path, shallow=False
    )

    shard_serial = shard_parallel = None
    if shards is not None:
        from repro.cluster.build import build_sharded

        def _timed_build(label: str, worker_pool: bool) -> float:
            os.sync()
            started = time.perf_counter()
            router = build_sharded(
                matrix,
                directory=os.path.join(tmp_dir, f"shards-{label}"),
                shards=shards,
                backend=shard_backend,
                compressor=compressor,
                worker_pool=worker_pool,
            )
            elapsed = time.perf_counter() - started
            router.close()
            return elapsed

        shard_serial = _timed_build("serial", False)
        shard_parallel = _timed_build("pool", True)

    def row(path: str, timing: tuple[float, float]) -> IngestRow:
        wall, cpu = timing
        return IngestRow(path, wall, cpu, count / max(cpu, 1e-12))

    return IngestResult(
        database_size=count,
        sequence_length=n,
        compress_scalar=row("compress per-row", scalar_compress),
        compress_batch=row("compress batch", batch_compress),
        store_scalar=row("store per-row append", scalar_store),
        store_bulk=row("store bulk append_matrix", bulk_store),
        shard_serial_seconds=shard_serial,
        shard_parallel_seconds=shard_parallel,
        shard_count=shards,
        equivalent=equivalent,
    )
