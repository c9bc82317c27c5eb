"""Row-locality contract of the batch bound kernels.

The vantage-point trees bound a whole subtree block with one kernel call
over a contiguous view of their sketch database, and read each node's
LB/UB from the result (``repro.index.blocks``).  That is only exact if
every kernel is *row-local*: the bounds it returns for a row depend on
that row alone, not on which other rows share the call.  These tests pin
the property bitwise, for every registered kernel, over contiguous views
and over gathered (``take``) subsets — including duplicated rows,
constant and near-constant series, and 1-row blocks.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bounds.batch import _KERNELS, BatchBounds
from repro.compression import (
    AdaptiveEnergyCompressor,
    BestErrorCompressor,
    BestMinCompressor,
    BestMinErrorCompressor,
    GeminiCompressor,
    SketchDatabase,
    WangCompressor,
)
from repro.spectral import Spectrum

#: A compressor whose sketches carry what each kernel reads.
COMPRESSORS = {
    "gemini": lambda k: GeminiCompressor(k),
    "wang": lambda k: WangCompressor(k),
    "best_error": lambda k: BestErrorCompressor(k),
    "best_min": lambda k: BestMinCompressor(k),
    "best_min_error": lambda k: BestMinErrorCompressor(k),
    "adaptive_best_min_error": lambda k: AdaptiveEnergyCompressor(0.9),
    "best_min_error_safe": lambda k: BestMinErrorCompressor(k),
}


def test_every_kernel_has_a_compressor():
    assert set(COMPRESSORS) == set(_KERNELS)


def _row(kind: int, n: int, rng: np.random.Generator) -> np.ndarray:
    if kind == 0:
        return rng.normal(size=n)
    if kind == 1:
        return np.cumsum(rng.normal(size=n))
    if kind == 2:
        return np.full(n, rng.normal())  # constant
    return np.full(n, 3.0) + 1e-12 * rng.normal(size=n)  # near-constant


@st.composite
def cases(draw):
    n = draw(st.integers(8, 48))
    kinds = draw(st.lists(st.integers(0, 3), min_size=1, max_size=14))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    rows = [_row(kind, n, rng) for kind in kinds]
    # Duplicate some rows verbatim.
    for source in draw(st.lists(st.integers(0, len(rows) - 1), max_size=4)):
        rows.append(rows[source].copy())
    matrix = np.array(rows)
    count = len(matrix)
    start = draw(st.integers(0, count - 1))
    stop = draw(st.integers(start + 1, count))
    picks = draw(
        st.lists(st.integers(0, count - 1), min_size=1, max_size=2 * count)
    )
    query = _row(draw(st.integers(0, 3)), n, rng)
    return {
        "matrix": matrix,
        "query": query,
        "span": (start, stop),
        "picks": np.array(picks, dtype=np.intp),
        "k": draw(st.integers(1, max(1, n // 4))),
    }


def _bits(array: np.ndarray) -> bytes:
    return np.ascontiguousarray(array).tobytes()


def _assert_bitwise(got, whole, rows) -> None:
    for part, full in zip(got, whole):
        assert _bits(part) == _bits(full[rows])


@settings(max_examples=60, deadline=None)
@given(case=cases(), method=st.sampled_from(sorted(_KERNELS)))
def test_subset_bounds_equal_whole_database_bounds(case, method):
    db = SketchDatabase.from_matrix(
        case["matrix"], COMPRESSORS[method](case["k"])
    )
    batch = BatchBounds(Spectrum.from_series(case["query"]))
    kernel = _KERNELS[method]
    whole = kernel(batch, db)

    start, stop = case["span"]
    picks = case["picks"]
    _assert_bitwise(
        kernel(batch, db.view(start, stop)), whole, slice(start, stop)
    )
    _assert_bitwise(kernel(batch, db.take(picks)), whole, picks)
    for row in (start, stop - 1):  # 1-row blocks, both ways
        _assert_bitwise(kernel(batch, db.view(row, row + 1)), whole, [row])
        _assert_bitwise(kernel(batch, db.take([row])), whole, [row])


def test_view_is_zero_copy_with_sliced_norms():
    rng = np.random.default_rng(3)
    db = SketchDatabase.from_matrix(
        rng.normal(size=(20, 32)), BestMinErrorCompressor(6)
    )
    view = db.view(5, 12)
    blocks = view.soa_blocks()
    for field in SketchDatabase.SOA_FIELDS:
        assert np.shares_memory(blocks[field], db.soa_blocks()[field])
        assert blocks[field].flags.c_contiguous
    assert np.shares_memory(blocks["norms"], db.norms_sq)
    assert _bits(blocks["norms"]) == _bits(db.norms_sq[5:12])
