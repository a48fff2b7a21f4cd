"""Bit-packed GF(2) linear algebra — the batched counterpart of
:mod:`repro.core.gf2`.

The packed generation front-end takes functions of ``n <=
MAX_PACKED_N = 16`` variables, so every GF(2) vector over ``B^n`` fits
one ``uint32``: a *batch* of vectors is a 1-D uint32 array and a *batch
of bases* is a 2-D ``(batch, rank)`` uint32 matrix — row ``r`` of basis
``b`` lives in ``mat[b, r]``.  The generation front-end only ever holds
bases of one uniform rank per step (every degree-``k`` pseudocube has a
rank-``k`` direction space), which is what makes whole-step batching
practical: one ``(groups, degree)`` matrix per step, no padding, no
ragged rows.  Only its sort key, ``(group, Δ, anchor)``, needs a
``uint64``, and fits one for every level of int32-indexed items.

The generation step uses four kernels, pinned against the scalar
loops they replace by ``tests/kernels/test_gf2mat.py``:
``row_lengths`` lays a step's pair stream out as one row of pairs per
item, ``pair_block`` decodes a block of those rows into int32 item
indices, ``basis_literals`` counts the literals of a batch of bases,
and ``columns_reach`` is the bit-sliced width test of the bounded lane.
The single-basis operations stay scalar, in :mod:`repro.core.gf2`.
NumPy is an *optional* accelerator: ``AVAILABLE`` is False when numpy
(with ``bitwise_count``) is missing **or** the ``REPRO_NO_NUMPY``
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
#: packs a group index (under 2^31: items are int32-indexed), a delta
#: and an anchor into one uint64.  The widest registered function, amd,
#: has 14 inputs; wider ones run the scalar loop.
MAX_PACKED_N = 16

__all__ = [
    "AVAILABLE",
    "MAX_PACKED_N",
    "basis_literals",
    "row_lengths",
    "pair_block",
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


def row_lengths(sizes):
    """The pair rows of a whole batch of groups: items are numbered
    group after group (``sizes`` gives each group's size), and item
    ``i`` of a group whose last item is ``e`` owns the row of pairs
    ``(i, i+1), ..., (i, e)``.  Returns each item's row length, int64;
    rows in item order are the nested scalar loops' pair order."""
    sizes = _np.asarray(sizes, dtype=_np.int64)
    return sizes.cumsum().repeat(sizes) - _np.arange(int(sizes.sum())) - 1


def pair_block(lengths, start: int, stop: int):
    """The pairs of item rows ``start..stop-1`` as int32 item indices
    ``(left, right)``, in row order (``lengths`` from `row_lengths`).

    A generation step decodes its stream one block of whole rows at a
    time, so it never holds more than one block of pairs.
    """
    lens = lengths[start:stop]
    ends = lens.cumsum()
    item = _np.arange(start, stop, dtype=_np.int32)
    # The pair at block position k in the row of item i, which starts
    # at position s, is (i, i + 1 + k - s).
    shift = (item + 1 - (ends - lens)).astype(_np.int32)
    total = int(ends[-1]) if lens.size else 0
    right = _np.arange(total, dtype=_np.int32) + shift.repeat(lens)
    return item.repeat(lens), right


def columns_reach(rows, bound: int):
    """Whether some bit position is set in at least ``bound`` of
    ``rows``, a list of equal-length unsigned integer arrays read
    element-wise.

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
