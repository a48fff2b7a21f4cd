"""Bit-packed GF(2) linear algebra — the batched counterpart of
:mod:`repro.core.gf2`.

Every GF(2) vector over ``B^n`` with ``n <= 64`` fits one ``uint64``,
so a *batch* of vectors is a 1-D uint64 array and a *batch of bases* is
a 2-D ``(batch, rank)`` uint64 matrix — row ``r`` of basis ``b`` lives
in ``mat[b, r]``.  The generation front-end only ever holds bases of
one uniform rank per step (every degree-``k`` pseudocube has a
rank-``k`` direction space), which is what makes whole-step batching
practical: one ``(groups, degree)`` matrix per step, no padding, no
ragged rows.

The generation step uses three kernels, pinned against the scalar
loops they replace by ``tests/kernels/test_gf2mat.py``: ``pair_rows``
decodes a step's pair stream into item indices, ``basis_literals``
counts the literals of a batch of bases, and ``columns_reach`` is the
bit-sliced width test of the bounded lane.  The single-basis
operations stay scalar, in :mod:`repro.core.gf2`.  NumPy is an
*optional* accelerator: ``AVAILABLE`` is False when
numpy (with ``bitwise_count``) is missing **or** the ``REPRO_NO_NUMPY``
environment variable is set, and every caller keeps the pure-Python
path as the pinned fallback, so outputs are unchanged to the bit either
way.  Every function here is pure: no module state, so concurrent
generations on several threads cannot interfere.
"""

from __future__ import annotations

import os

try:  # gated: the container may lack numpy; callers fall back to core.gf2
    import numpy as _np

    _HAVE = hasattr(_np, "bitwise_count")
except ImportError:  # pragma: no cover — exercised via the fallback path
    _np = None
    _HAVE = False

#: Runtime gate consulted per call site (monkeypatchable in tests);
#: ``REPRO_NO_NUMPY=1`` pins the pure-Python ``core.gf2`` path fleet-wide.
AVAILABLE = _HAVE and not os.environ.get("REPRO_NO_NUMPY")

#: Widest function the packed generation front-end takes: its sort key
#: packs a delta and an anchor into one uint64.
MAX_PACKED_N = 32

__all__ = [
    "AVAILABLE",
    "MAX_PACKED_N",
    "basis_literals",
    "pair_rows",
    "columns_reach",
]


# ----------------------------------------------------------------------
# The generation-step kernels (uniform-rank batches)
# ----------------------------------------------------------------------

def basis_literals(mat, n: int):
    """Literal count of any pseudocube with each basis — batched
    ``_basis_literals``: ``sum(popcount(row) - 1) + (n - rank)``.

    ``mat`` is ``(batch, rank)`` with **uniform** rank (no padding), the
    layout of one generation step.
    """
    if mat.ndim == 1:
        mat = mat[None, :]
    rank = mat.shape[1]
    if rank == 0:
        return _np.full(mat.shape[0], n, dtype=_np.int64)
    weights = _np.bitwise_count(mat).sum(axis=1, dtype=_np.int64)
    return weights - rank + (n - rank)


def pair_rows(sizes, limit: int | None = None):
    """Every same-group pair of a whole batch of groups, as item indices.

    Items are numbered group after group (``sizes`` gives each group's
    size), and item ``i`` of a group whose last item is ``e`` owns the
    row of pairs ``(i, i+1), ..., (i, e)``.  Returns ``(group, left,
    right, row_ends)``: per pair its group and both item indices, in the
    order of the nested scalar loops (groups in order, rows in order),
    and the stream length at the end of each non-empty row.

    ``limit`` (at least 1) keeps only the shortest prefix of whole rows
    that holds at least ``limit`` pairs, so a capped step decodes
    O(cap) pairs, not O(pairs), and still ends on a row end like the
    scalar loop's early break.
    """
    sizes = _np.asarray(sizes, dtype=_np.int64)
    m = int(sizes.sum())
    item = _np.arange(m, dtype=_np.int64)
    group_of = _np.arange(sizes.size, dtype=_np.int64).repeat(sizes)
    lengths = sizes.cumsum()[group_of] - item - 1
    row_ends = lengths.cumsum()
    if limit is not None and m and limit < int(row_ends[-1]):
        rows = int(_np.searchsorted(row_ends, limit)) + 1
        item, group_of = item[:rows], group_of[:rows]
        lengths, row_ends = lengths[:rows], row_ends[:rows]
    total = int(row_ends[-1]) if m else 0
    starts = row_ends - lengths
    # The pair at stream position k in the row of item i, which starts
    # at position s, is (i, i + 1 + k - s).
    right = _np.arange(total, dtype=_np.int64) + (item + 1 - starts).repeat(lengths)
    return group_of.repeat(lengths), item.repeat(lengths), right, row_ends[lengths > 0]


def columns_reach(rows, bound: int):
    """Whether some bit position is set in at least ``bound`` of
    ``rows``, a list of equal-length uint64 arrays read element-wise.

    Bit-sliced counting: ``level[t]`` holds the positions set in more
    than ``t`` of the rows seen so far, so each row costs ``2 * bound``
    word ops per element however many positions it holds.  Fed the
    rows of RREF bases without their pivots, it is the bounded lane's
    width test: a basis whose pseudocubes have an EXOR factor wider
    than ``B`` is exactly one with some non-pivot column in at least
    ``B`` rows.
    """
    levels = [_np.zeros_like(rows[0]) for _ in range(bound)]
    for row in rows:
        for t in range(bound - 1, 0, -1):
            levels[t] |= levels[t - 1] & row
        levels[0] |= row
    return levels[-1] != 0
