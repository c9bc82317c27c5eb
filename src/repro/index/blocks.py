"""Block-batched bounding for the vantage-point trees.

The fig. 11 traversal meets one vantage point or one small leaf at a
time.  Calling the bound kernel at every node pays the kernel's fixed
cost hundreds of times per query for a handful of rows each.  This
module removes that overhead without changing what the traversal
computes:

* **Layout.**  :meth:`BlockLayout.placed` lays a tree's sketches out in
  depth-first member order and cuts the tree into *blocks*: maximal
  subtrees of at most :data:`BLOCK_ROWS` members (a larger leaf is a
  block of its own).  Every block is one contiguous, zero-copy
  :meth:`~repro.compression.database.SketchDatabase.view` of the single
  sketch database, norms included.  The few vantage points above block
  level come first in the layout and form one more view.
* **Query.**  A :class:`SubtreeWalk` bounds the top vantage points with
  one kernel call, and a whole block with one call the first time the
  traversal enters the block's root.  Every node then reads its LB/UB
  from those arrays.  The bound kernels are row-local, so these are the
  bounds a per-node call would return, bitwise.
* **Bookkeeping.**  A leaf's upper bounds fold into the running
  :math:`\\sigma_{UB}` with one partition
  (:meth:`~repro.engine.core.SigmaTracker.offer_many`), and survivors
  are sorted with one ``lexsort`` on ``(LB², id)``.

Traversal order, pruning rules, :math:`\\sigma_{UB}` values and the
candidate list stay exactly those of the per-node traversal.
``SearchStats.bound_computations`` keeps counting the rows the traversal
consumes (the paper's fig. 22 unit); the ``bounds.kernel_calls`` /
``bounds.pairs`` counters report the physical kernel work, which
includes the rows of an entered block that pruning never reached.

Each tree node carries its layout position in ``pos`` and, when it
roots a block, the block's index in ``block``.  The annotations travel
with the nodes, so pickled and deep-copied trees keep working.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.bounds.batch import BatchBounds
from repro.compression.database import SketchDatabase
from repro.engine.core import CandidateSet, SigmaTracker
from repro.index.results import SearchStats
from repro.spectral.dft import Spectrum

__all__ = ["BLOCK_ROWS", "BlockLayout", "SubtreeWalk"]

#: Largest subtree (in members) bounded by one kernel call.
BLOCK_ROWS = 256

#: ``members(node) -> (own ids, children)`` for one tree node.
Members = Callable[[object], tuple[Sequence[int], Sequence[object]]]


class BlockLayout:
    """A tree's sketch rows in depth-first member order, cut into blocks.

    ``ids[p]`` is the sequence id of database row ``p``.  An *unplaced*
    layout (fresh, or after an append) holds the rows in whatever order
    they arrived; :meth:`placed` returns the laid-out version.  Rows the
    tree no longer references (tombstones dropped by a leaf rebuild)
    sit after the last block, so the database always keeps every row.
    """

    def __init__(
        self,
        db: SketchDatabase,
        ids: np.ndarray | None = None,
        top: int = 0,
        spans: tuple[tuple[int, int], ...] | None = None,
    ) -> None:
        self.db = db
        self.ids = np.arange(len(db), dtype=np.intp) if ids is None else ids
        self.top = top
        self.spans = spans
        self.pos_of = np.empty_like(self.ids)
        self.pos_of[self.ids] = np.arange(self.ids.size, dtype=np.intp)
        self.live: np.ndarray | None = None
        self.views: list[SketchDatabase] = []
        if spans is not None:
            self.views = [db.view(lo, hi) for lo, hi in spans]
            self.top_view = db.view(0, top) if top else None

    def __reduce__(self):
        # Views would pickle as copies; rebuild them on the other side.
        return (_restore, (self.db, self.ids, self.top, self.spans, self.live))

    def appended(self, sketch, seq_id: int) -> "BlockLayout":
        """An unplaced layout with one more row."""
        return BlockLayout(
            self.db.appended(sketch), np.append(self.ids, seq_id)
        )

    def placed(
        self, root, members: Members, deleted=frozenset()
    ) -> "BlockLayout":
        """The laid-out version of this layout for the tree at ``root``.

        Annotates every node with ``pos`` (and block roots with
        ``block``), reorders the database rows to match, and marks the
        rows of ``deleted`` sequence ids dead.
        """
        if self.spans is not None:
            return self
        order, top, spans = _place(root, members)
        stray = np.setdiff1d(self.ids, order, assume_unique=True)
        order = np.concatenate((order, stray)).astype(np.intp)
        db = self.db.take(self.pos_of[order])
        layout = BlockLayout(db, order, top, spans)
        for seq_id in deleted:
            layout.drop(seq_id)
        return layout

    def drop(self, seq_id: int) -> None:
        """Mark a tombstoned sequence's row dead (no-op when unplaced)."""
        if self.spans is None:
            return
        if self.live is None:
            self.live = np.ones(self.ids.size, dtype=bool)
        self.live[self.pos_of[seq_id]] = False

    def id_ordered(self) -> SketchDatabase:
        """The sketch database with row ``i`` holding sequence ``i``."""
        return self.db.take(self.pos_of)


def _restore(db, ids, top, spans, live) -> BlockLayout:
    layout = BlockLayout(db, ids, top, spans)
    layout.live = live
    return layout


def _place(root, members: Members):
    """Depth-first member order, top vantage points first.

    Returns ``(order, top, spans)``: the sequence ids in layout order,
    the number of top rows, and each block's ``(start, stop)``.
    """
    sizes: dict[int, int] = {}

    def size(node) -> int:
        own, children = members(node)
        total = len(own) + sum(size(child) for child in children)
        sizes[id(node)] = total
        return total

    size(root)
    top_nodes: list[object] = []
    block_roots: list[object] = []

    def split(node) -> None:
        _, children = members(node)
        if not children or sizes[id(node)] <= BLOCK_ROWS:
            block_roots.append(node)
            return
        top_nodes.append(node)
        for child in children:
            split(child)

    split(root)
    order: list[Sequence[int]] = []
    cursor = 0
    for node in top_nodes:
        own, _ = members(node)
        node.pos, node.block = cursor, None
        order.append(own)
        cursor += len(own)
    top = cursor

    def lay(node) -> None:
        nonlocal cursor
        own, children = members(node)
        node.pos, node.block = cursor, None
        order.append(own)
        cursor += len(own)
        for child in children:
            lay(child)

    spans = []
    for block, node in enumerate(block_roots):
        start = cursor
        lay(node)
        node.block = block
        spans.append((start, cursor))
    flat = np.concatenate([np.asarray(own, dtype=np.intp) for own in order])
    return flat, top, tuple(spans)


class SubtreeWalk:
    """Per-query bound arrays and candidate bookkeeping over a layout.

    The tree's traversal calls :meth:`enter` on every node it visits,
    then :meth:`vantage` for each vantage point and :meth:`leaf` for a
    leaf's rows; it reads :meth:`sigma` for its pruning rules and ends
    with :meth:`knn_candidates` or :meth:`range_candidates`.
    """

    def __init__(
        self,
        layout: BlockLayout,
        kernel,
        query: np.ndarray,
        stats: SearchStats,
        k: int | None = None,
    ) -> None:
        self._layout = layout
        self._kernel = kernel
        self._batch = BatchBounds(Spectrum.from_series(query))
        self._stats = stats
        self._live = layout.live
        self._tracker = SigmaTracker(k) if k is not None else None
        rows = layout.ids.size
        self._lower = np.empty(rows)
        self._upper = np.empty(rows)
        self._consumed = np.zeros(rows, dtype=bool)
        if layout.top:
            self._bound(layout.top_view, 0, layout.top)

    def _bound(self, view: SketchDatabase, start: int, stop: int) -> None:
        lower, upper = self._kernel(self._batch, view)
        self._lower[start:stop] = lower
        self._upper[start:stop] = upper

    def enter(self, node) -> None:
        """Bound ``node``'s whole block if ``node`` roots one."""
        block = node.block
        if block is not None:
            start, stop = self._layout.spans[block]
            if stop > start:
                self._bound(self._layout.views[block], start, stop)

    def vantage(self, pos: int) -> tuple[float, float]:
        """Consume one vantage point's row; returns its ``(LB, UB)``.

        A tombstoned vantage point keeps routing but is no candidate.
        """
        self._stats.bound_computations += 1
        self._consumed[pos] = True
        lower, upper = float(self._lower[pos]), float(self._upper[pos])
        if self._tracker is not None and (
            self._live is None or self._live[pos]
        ):
            self._tracker.offer(upper)
        return lower, upper

    def leaf(self, pos: int, count: int) -> None:
        """Consume a leaf's ``count`` rows starting at ``pos``."""
        self._stats.bound_computations += count
        stop = pos + count
        self._consumed[pos:stop] = True
        if self._tracker is not None:
            upper = self._upper[pos:stop]
            if self._live is not None:
                upper = upper[self._live[pos:stop]]
            self._tracker.offer_many(upper)

    def sigma(self) -> float:
        """The k-th smallest upper bound consumed so far."""
        return self._tracker.sigma()

    def _consumed_rows(self) -> np.ndarray:
        mask = self._consumed
        if self._live is not None:
            mask = mask & self._live
        return np.flatnonzero(mask)

    def _entries(self, rows: np.ndarray) -> list[tuple[float, int]]:
        """``(LB², id)`` pairs for ``rows``, sorted ascending."""
        lower = self._lower[rows]
        ids = self._layout.ids[rows]
        lower_sq = lower * lower
        order = np.lexsort((ids, lower_sq))
        return list(zip(lower_sq[order].tolist(), ids[order].tolist()))

    def knn_candidates(self) -> CandidateSet:
        """The SUB-filtered candidate set of a k-NN traversal."""
        rows = self._consumed_rows()
        sigma = self._tracker.sigma()
        survivors = rows[self._lower[rows] <= sigma]
        return CandidateSet(
            entries=self._entries(survivors),
            generated=int(rows.size),
            sigma_sq=sigma * sigma,
            top_ubs=self._tracker.values(),
        )

    def range_candidates(self, bound: float) -> CandidateSet:
        """Consumed rows whose lower bound does not exceed ``bound``."""
        rows = self._consumed_rows()
        survivors = rows[~(self._lower[rows] > bound)]
        return CandidateSet(entries=self._entries(survivors), generated=None)
