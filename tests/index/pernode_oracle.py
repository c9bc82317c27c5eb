"""The per-node fig. 11 traversal, kept as a test oracle.

Before the vantage-point trees bounded whole subtree blocks with one
kernel call (:mod:`repro.index.blocks`), they called the kernel at every
node they visited, over that node's rows gathered by sequence id, and
fed the upper bounds one at a time into a :class:`SigmaTracker`.  This
module preserves that algorithm verbatim over the same trees, so tests
can check that the block-batched traversal returns the same candidates,
the same ``SearchStats`` and the same answers.

:class:`PerNodeOracle` wraps a built ``VPTreeIndex`` or
``MVPTreeIndex`` and satisfies the engine's index protocol, so
``execute_knn(PerNodeOracle(index), ...)`` runs a full search through
the old traversal.
"""

from __future__ import annotations

import numpy as np

from repro.bounds.batch import BatchBounds
from repro.engine.core import RANGE_SLACK, CandidateSet, SigmaTracker
from repro.index.mvptree import MVPTreeIndex, _Leaf
from repro.index.vptree import _LeafNode
from repro.spectral.dft import Spectrum


class PerNodeOracle:
    """An index whose candidate generator is the per-node traversal."""

    def __init__(self, index) -> None:
        self._index = index
        self._mvp = isinstance(index, MVPTreeIndex)
        # Rows addressed by sequence id, as the per-node code took them.
        self._sketch_db = index._layout.id_ordered()
        self._deleted = set(getattr(index, "_deleted", ()))

    def __len__(self) -> int:
        return len(self._index)

    def __getattr__(self, name):
        return getattr(self._index, name)

    def _note(self, batch, rows, stats):
        rows = np.asarray(rows, dtype=np.intp)
        lower, upper = self._index._kernel(batch, self._sketch_db.take(rows))
        stats.bound_computations += int(rows.size)
        return rows, lower, upper

    # ------------------------------------------------------------------
    # k-NN
    # ------------------------------------------------------------------
    def knn_candidates(self, query, k, stats) -> CandidateSet:
        batch = BatchBounds(Spectrum.from_series(query))
        tracker = SigmaTracker(k)
        candidates: list[tuple[float, int]] = []

        def note(rows):
            rows, lower, upper = self._note(batch, rows, stats)
            for seq_id, lb, ub in zip(rows, lower, upper):
                if int(seq_id) in self._deleted:
                    continue
                candidates.append((float(lb), int(seq_id)))
                tracker.offer(float(ub))
            return lower, upper

        def vp_traverse(node) -> None:
            stats.nodes_visited += 1
            if isinstance(node, _LeafNode):
                note(node.rows)
                return
            lower_arr, upper_arr = note([node.vantage_id])
            lower, upper = float(lower_arr[0]), float(upper_arr[0])
            sigma = tracker.sigma()
            visit_left = lower <= node.median + sigma
            visit_right = upper >= node.median - sigma
            if not visit_left and not visit_right:
                visit_left = True
            order = []
            if visit_left:
                order.append(node.left)
            if visit_right:
                order.append(node.right)
            stats.subtrees_pruned += 2 - len(order)
            if len(order) == 2 and self._index._guided:
                left_overlap = min(upper, node.median) - lower
                right_overlap = upper - max(lower, node.median)
                if right_overlap > left_overlap:
                    order.reverse()
            for child in order:
                vp_traverse(child)

        def mvp_traverse(node) -> None:
            stats.nodes_visited += 1
            if isinstance(node, _Leaf):
                note(node.rows)
                return
            lowers, uppers = note([node.first_id, node.second_id])
            lb1, ub1 = float(lowers[0]), float(uppers[0])
            lb2, ub2 = float(lowers[1]), float(uppers[1])
            for quadrant in node.quadrants:
                sigma = tracker.sigma()
                by_first = self._side(
                    lb1, ub1, node.first_median, quadrant.first_side_low
                )
                by_second = self._side(
                    lb2, ub2, quadrant.second_median, quadrant.second_side_low
                )
                if max(by_first, by_second) > sigma:
                    stats.subtrees_pruned += 1
                    continue
                mvp_traverse(quadrant.child)

        (mvp_traverse if self._mvp else vp_traverse)(self._index._root)
        sigma = tracker.sigma()
        survivors = sorted(
            (lb * lb, seq_id) for lb, seq_id in candidates if lb <= sigma
        )
        return CandidateSet(
            entries=survivors,
            generated=len(candidates),
            sigma_sq=sigma * sigma,
            top_ubs=tracker.values(),
        )

    # ------------------------------------------------------------------
    # Range
    # ------------------------------------------------------------------
    def range_candidates(self, query, radius, stats) -> CandidateSet:
        batch = BatchBounds(Spectrum.from_series(query))
        bound = radius + RANGE_SLACK
        to_verify: list[tuple[float, int]] = []

        def consider(rows):
            rows, lower, upper = self._note(batch, rows, stats)
            for seq_id, lb in zip(rows, lower):
                seq_id = int(seq_id)
                if seq_id in self._deleted or lb > bound:
                    continue
                to_verify.append((float(lb) ** 2, seq_id))
            return lower, upper

        def vp_traverse(node) -> None:
            stats.nodes_visited += 1
            if isinstance(node, _LeafNode):
                consider(node.rows)
                return
            lower_arr, upper_arr = consider([node.vantage_id])
            lower, upper = float(lower_arr[0]), float(upper_arr[0])
            if lower - node.median <= bound:
                vp_traverse(node.left)
            else:
                stats.subtrees_pruned += 1
            if node.median - upper <= bound:
                vp_traverse(node.right)
            else:
                stats.subtrees_pruned += 1

        def mvp_traverse(node) -> None:
            stats.nodes_visited += 1
            if isinstance(node, _Leaf):
                consider(node.rows)
                return
            lowers, uppers = consider([node.first_id, node.second_id])
            lb1, ub1 = float(lowers[0]), float(uppers[0])
            lb2, ub2 = float(lowers[1]), float(uppers[1])
            for quadrant in node.quadrants:
                by_first = self._side(
                    lb1, ub1, node.first_median, quadrant.first_side_low
                )
                by_second = self._side(
                    lb2, ub2, quadrant.second_median, quadrant.second_side_low
                )
                if max(by_first, by_second) > bound:
                    stats.subtrees_pruned += 1
                    continue
                mvp_traverse(quadrant.child)

        (mvp_traverse if self._mvp else vp_traverse)(self._index._root)
        return CandidateSet(entries=sorted(to_verify), generated=None)

    @staticmethod
    def _side(lower, upper, median, side_low) -> float:
        return lower - median if side_low else median - upper
