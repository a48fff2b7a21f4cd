"""Packed bit-matrix acceleration for covering solvers.

The covering loops spend most of their time answering one vector
question — *how many uncovered rows does each column still cover?* —
once per selection round and once per improvement pass.  With columns
as Python ints that is one big-int ``&`` + ``bit_count`` per column per
round; with thousands of columns the interpreter loop dominates.

:class:`BitMatrix` packs the column masks once, **word-major**, into a
``(words, columns)`` ``uint64`` array.  EPPP covering matrices have a
few hundred rows at most (2–3 words) and thousands of columns, so every
question the greedy path asks runs as ``words`` contiguous passes over
``columns`` elements: the gain vector (:meth:`BitMatrix.gains`), the
feasibility and light-reduction no-op proofs, the connectivity closure
and the warm path's row retirement (:meth:`BitMatrix.delete_rows`).  A
column-major layout would reduce over an axis only 2–3 words wide
instead, which measured 3–7× slower per gain vector.

NumPy is an *optional* accelerator: when it is missing (``HAVE_NUMPY``
is False) the solvers keep the pure-Python CELF heap path, and both
paths are pinned bit-for-bit equivalent by
``tests/minimize/test_lazy_greedy.py`` and
``tests/minimize/test_covering.py`` — the key arithmetic
(``gain / cost`` in IEEE-754 double) and the tie-break order (key, then
lowest column index) are identical by construction.
"""

from __future__ import annotations

import os
from collections.abc import Sequence

try:  # gated: the container may lack numpy; solvers fall back to heaps
    import numpy as _np

    HAVE_NUMPY = hasattr(_np, "bitwise_count")
except ImportError:  # pragma: no cover — exercised via the fallback path
    _np = None
    HAVE_NUMPY = False

# ``REPRO_NO_NUMPY=1`` pins the pure-Python paths fleet-wide — the same
# switch ``kernels.gf2mat`` honours — so one env var exercises every
# fallback at once (the CI fallback-parity leg relies on this).
if os.environ.get("REPRO_NO_NUMPY"):
    HAVE_NUMPY = False

__all__ = ["HAVE_NUMPY", "BitMatrix", "select_greedy"]

# Below this column count the per-call numpy overhead (packing aside,
# each round is ~10 vector dispatches) beats the heap's constant factor
# only marginally; the heap path also keeps tiny problems allocation-free.
MIN_COLUMNS_FOR_VECTOR = 192


class BitMatrix:
    """Column masks packed word-major into a ``(words, num_columns)``
    uint64 array.

    ``words = max(ceil(num_rows / 64), 1)``; bit ``r`` of column ``j``
    lives in ``matrix[r // 64, j] >> (r % 64)``, so each row of the
    array is one 64-row slice of every column, contiguous across
    columns.  Costs are carried alongside as an int64 vector so
    selection keys are computed without touching the Python cost list.
    Instances are never modified after construction: a matrix may be
    shared by threads (delta contexts pin their base problem's).
    """

    __slots__ = ("num_rows", "num_columns", "words", "matrix", "costs", "universe")

    def __init__(self, matrix, costs, num_rows: int) -> None:
        self.num_rows = num_rows
        self.words, self.num_columns = matrix.shape
        self.matrix = matrix
        self.costs = costs
        self.universe = self.pack(((1 << num_rows) - 1) if num_rows else 0)

    @classmethod
    def from_masks(
        cls, masks: Sequence[int], costs: Sequence[int], num_rows: int
    ) -> BitMatrix:
        """Pack Python-int column masks (bit ``r`` = row ``r``)."""
        if not HAVE_NUMPY:  # pragma: no cover — guarded by callers
            raise RuntimeError("BitMatrix requires numpy with bitwise_count")
        words = max((num_rows + 63) // 64, 1)
        nbytes = words * 8
        packed = b"".join(m.to_bytes(nbytes, "little") for m in masks)
        by_column = _np.frombuffer(packed, dtype="<u8").reshape(len(masks), words)
        matrix = _np.ascontiguousarray(by_column.T, dtype=_np.uint64)
        return cls(matrix, _np.asarray(costs, dtype=_np.int64), num_rows)

    def pack(self, mask: int):
        """One Python int mask → a writable ``(words,)`` uint64 vector."""
        return _np.frombuffer(
            mask.to_bytes(self.words * 8, "little"), dtype="<u8"
        ).astype(_np.uint64)

    def masks(self, columns: Sequence[int] | None = None) -> list[int]:
        """Columns as Python int masks — every column by default (the
        inverse of :meth:`from_masks`), else those listed in
        ``columns`` — unpacked from one column-major buffer."""
        matrix = self.matrix if columns is None else self.matrix.take(columns, axis=1)
        by_column = _np.ascontiguousarray(matrix.T, dtype="<u8")
        cells = by_column.view(_np.dtype((_np.void, self.words * 8))).ravel()
        from_bytes = int.from_bytes
        return [from_bytes(cell, "little") for cell in cells.tolist()]

    def union(self, columns: Sequence[int]):
        """The rows covered by ``columns``, as a writable ``(words,)``
        vector."""
        if not columns:
            return _np.zeros(self.words, dtype=_np.uint64)
        return _np.bitwise_or.reduce(self.matrix.take(columns, axis=1), axis=1)

    def covers(self, covered) -> bool:
        """Whether the ``(words,)`` vector ``covered`` holds every row."""
        return bool((covered == self.universe).all())

    def gains(self, covered):
        """Per-column count of rows outside ``covered`` (a ``(words,)``
        vector) that each column covers."""
        uncovered = ~covered
        return _np.bitwise_count(self.matrix & uncovered[:, None]).sum(
            axis=0, dtype=_np.int64
        )

    def is_feasible(self) -> bool:
        """Whether the columns together cover every row."""
        union = _np.bitwise_or.reduce(self.matrix, axis=1)
        return bool((union == self.universe).all())

    def light_reduction_is_noop(self) -> bool:
        """Whether the light reduction (essential columns, empty
        columns) would eliminate nothing: every column covers some row
        and every row is covered by at least two columns.

        ``twice`` collects the rows a column shares with an earlier
        column, read off a prefix-OR accumulate along the columns; the
        rows covered once but not twice are the ones with a unique
        (essential) column.
        """
        matrix = self.matrix
        if not matrix.any(axis=0).all():
            return False
        prefix = _np.bitwise_or.accumulate(matrix, axis=1)
        twice = _np.bitwise_or.reduce(matrix[:, 1:] & prefix[:, :-1], axis=1)
        return not (prefix[:, -1] & ~twice).any()

    def is_connected(self) -> bool:
        """Whether the rows form one component (two rows are connected
        when some column covers both).

        A frontier closure from row 0: each step takes every unused
        column touching the rows reached last, and adds the rows they
        cover.  Rows no column covers stay unreached.
        """
        matrix = self.matrix
        reached = self.pack(1)
        frontier = reached
        unused = _np.ones(self.num_columns, dtype=bool)
        while True:
            hit = unused & (matrix & frontier[:, None]).any(axis=0)
            if not hit.any():
                break
            unused &= ~hit
            grown = _np.bitwise_or.reduce(matrix[:, hit], axis=1)
            frontier = grown & ~reached
            if not frontier.any():
                break
            reached |= grown
        return bool((reached == self.universe).all())

    def delete_rows(self, positions: Sequence[int]) -> tuple[BitMatrix, list[int] | None]:
        """The matrix with rows ``positions`` deleted (higher rows shift
        down) and the columns left empty dropped.

        Returns ``(matrix, kept)``: ``kept`` lists the surviving column
        indices, or is None when every column survived.  Each deleted
        row costs a few word shifts across all columns, highest
        position first so the lower positions stay valid.
        """
        matrix = self.matrix.copy()
        one = _np.uint64(1)
        top = _np.uint64(63)
        for pos in sorted(positions, reverse=True):
            w, b = divmod(pos, 64)
            low = _np.uint64((1 << b) - 1)
            matrix[w] = (matrix[w] & low) | ((matrix[w] >> one) & ~low)
            for k in range(w, self.words - 1):
                matrix[k] |= matrix[k + 1] << top  # carry the next word's low bit
                matrix[k + 1] >>= one
        num_rows = self.num_rows - len(positions)
        matrix = matrix[: max((num_rows + 63) // 64, 1)]
        costs = self.costs
        nonempty = matrix.any(axis=0)
        kept = None
        if not nonempty.all():
            kept = _np.flatnonzero(nonempty)
            matrix = _np.ascontiguousarray(matrix[:, kept])
            costs = costs[kept]
            kept = kept.tolist()
        return BitMatrix(matrix, costs, num_rows), kept


def select_greedy(
    bm: BitMatrix,
    strategy: str,
    forbidden: int,
    covered,
    budget=None,
) -> list[int]:
    """Eager greedy selection rounds on the packed matrix.

    Starting from the rows in ``covered`` (a ``(words,)`` vector, left
    unmodified), selects columns until the cover is complete and
    returns their indices in selection order.  Bit-for-bit equivalent
    to the CELF heap in :func:`repro.minimize.covering._heap_select`:
    the ``ratio`` strategy maximises ``(gain / cost, gain, -index)`` and
    the ``gain`` strategy ``(gain, -cost, -index)``, with the division
    done in the same IEEE-754 double arithmetic as the Python path.

    ``budget`` is ticked once per selection round; raises ``ValueError``
    when no usable column covers a remaining row (infeasible, matching
    the heap path).
    """
    covered = covered.copy()
    matrix = bm.matrix
    costs = bm.costs
    ratio = strategy == "ratio"
    picked: list[int] = []
    while not bm.covers(covered):
        if budget is not None:
            budget.tick()
        gains = bm.gains(covered)
        if 0 <= forbidden < gains.shape[0]:
            gains[forbidden] = 0
        gain_max = int(gains.max(initial=0))
        if gain_max == 0:
            raise ValueError("covering problem is infeasible")
        if ratio:
            key = gains / costs
            cand = _np.flatnonzero(key == key.max())
            if cand.size > 1:
                g = gains[cand]
                cand = cand[g == g.max()]
        else:
            cand = _np.flatnonzero(gains == gain_max)
            if cand.size > 1:
                c = costs[cand]
                cand = cand[c == c.min()]
        j = int(cand[0])
        picked.append(j)
        covered |= matrix[:, j]
    return picked
