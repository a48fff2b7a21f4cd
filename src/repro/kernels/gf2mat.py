"""Bit-packed GF(2) linear algebra — the batched counterpart of
:mod:`repro.core.gf2`.

Every GF(2) vector over ``B^n`` with ``n <= 64`` fits one ``uint64``,
so a *batch* of vectors is a 1-D uint64 array and a *batch of bases* is
a 2-D ``(batch, rank)`` uint64 matrix — row ``r`` of basis ``b`` lives
in ``mat[b, r]``, padded with zero rows past each basis' rank when
ranks are mixed.  The generation front-end only ever holds bases of one
uniform rank per step (every degree-``k`` pseudocube has a rank-``k``
direction space), which is what makes whole-step batching practical:
one ``(groups, degree)`` matrix per step, no padding, no ragged rows.

The single-basis functions mirror the :mod:`repro.core.gf2` API —
``rref``, ``insert_vector``, ``reduce_vectors``, ``pivot_masks``,
``span_points``, ``intersect_spaces`` — and are pinned bit-identical
to it by ``tests/kernels/test_gf2mat.py``.  The generation step uses
three kernels: ``pair_rows`` decodes a step's pair stream into item
indices, ``basis_literals`` counts the literals of a batch of bases,
and ``columns_reach`` is the bit-sliced width test of the bounded
lane.  NumPy is an *optional* accelerator: ``AVAILABLE`` is False when
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
    "pack_vectors",
    "unpack_vectors",
    "pack_basis",
    "unpack_basis",
    "rref",
    "insert_vector",
    "reduce_vectors",
    "pivot_masks",
    "basis_literals",
    "span_points",
    "intersect_spaces",
    "pair_rows",
    "columns_reach",
]

_U64 = "uint64"


def _u(x):
    return _np.uint64(x)


# ----------------------------------------------------------------------
# Packing
# ----------------------------------------------------------------------

def pack_vectors(vectors):
    """A sequence of int vectors as a uint64 array."""
    return _np.array(list(vectors), dtype=_U64)


def unpack_vectors(arr) -> list[int]:
    """Inverse of :func:`pack_vectors` (Python ints)."""
    return [int(v) for v in arr.tolist()]


def pack_basis(basis: tuple[int, ...]):
    """One RREF basis tuple as a ``(rank,)`` uint64 row vector."""
    return _np.array(basis, dtype=_U64)


def unpack_basis(row, rank: int | None = None) -> tuple[int, ...]:
    """A packed basis row back to the canonical tuple form."""
    vals = row.tolist()
    if rank is not None:
        vals = vals[:rank]
    return tuple(int(v) for v in vals if v)


# ----------------------------------------------------------------------
# Single-basis operations (API mirror; the batched forms are below)
# ----------------------------------------------------------------------

def _lowbit(arr):
    """Lowest set bit of each element (0 stays 0)."""
    return arr & (_np.uint64(0) - arr)


def rref(vectors) -> tuple[int, ...]:
    """Canonical RREF basis of the span — packed
    :func:`repro.core.gf2.rref`.

    The elimination is sequential in the input vectors (RREF is), but
    each insertion updates the whole basis in one vector op.
    """
    rows = _np.zeros(0, dtype=_U64)
    for v in _np.asarray(vectors, dtype=_U64):
        rows = _insert_one(rows, v)
    return tuple(int(b) for b in rows.tolist())


def _insert_one(rows, v):
    """Insert ``v`` into a packed RREF basis; returns the new row array
    (the same array when ``v`` was dependent)."""
    if rows.size:
        # Reduce v by every row whose pivot it contains.
        piv = _lowbit(rows)
        for b, p in zip(rows.tolist(), piv.tolist()):
            if int(v) & p:
                v = v ^ _u(b)
    if int(v) == 0:
        return rows
    low = int(v) & -int(v)
    if rows.size:
        rows = _np.where((rows & _u(low)) != 0, rows ^ v, rows)
        pos = int(_np.count_nonzero(_lowbit(rows) < _u(low)))
    else:
        pos = 0
    return _np.concatenate([rows[:pos], _np.array([v], dtype=_U64), rows[pos:]])


def insert_vector(basis: tuple[int, ...], v: int) -> tuple[int, ...]:
    """Packed :func:`repro.core.gf2.insert_vector` (same contract: the
    input tuple is returned unchanged when ``v`` is in the span)."""
    rows = pack_basis(basis)
    out = _insert_one(rows, _u(v))
    if out is rows:
        return basis
    return tuple(int(b) for b in out.tolist())


def reduce_vectors(basis: tuple[int, ...], vectors):
    """Batched :func:`repro.core.gf2.reduce_vector`: reduce every
    element of ``vectors`` modulo ``span(basis)`` at once.

    One pass per basis row (rank passes total), each a whole-batch
    vector op.
    """
    vs = _np.asarray(vectors, dtype=_U64).copy()
    for b in basis:
        low = _u(b & -b)
        vs ^= _np.where((vs & low) != 0, _u(b), _u(0))
    return vs


def pivot_masks(mat):
    """Pivot-position mask of each basis in a ``(batch, rank)`` matrix —
    batched :func:`repro.core.gf2.pivot_mask`.  Padding zero rows
    contribute nothing."""
    if mat.ndim == 1:
        mat = mat[None, :]
    if mat.shape[1] == 0:
        return _np.zeros(mat.shape[0], dtype=_U64)
    return _np.bitwise_or.reduce(_lowbit(mat), axis=1)


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


def span_points(basis: tuple[int, ...], offset: int = 0):
    """The coset ``offset + span(basis)`` in the exact Gray-code order
    of :func:`repro.core.gf2.span_points`, as a uint64 array.

    Built by subset-XOR doubling, then reindexed through the Gray code
    ``i ^ (i >> 1)`` so element ``i`` matches the generator's ``i``-th
    yield.
    """
    combos = _np.array([offset], dtype=_U64)
    for b in basis:
        combos = _np.concatenate([combos, combos ^ _u(b)])
    idx = _np.arange(combos.size, dtype=_np.uint64)
    return combos[idx ^ (idx >> _u(1))]


def intersect_spaces(
    basis_a: tuple[int, ...], basis_b: tuple[int, ...], n: int
) -> tuple[int, ...]:
    """Packed Zassenhaus — :func:`repro.core.gf2.intersect_spaces`.

    Pairs ``(v, v)`` / ``(w, 0)`` are packed into single uint64 words
    (first component in the low ``n`` bits), so this requires
    ``2n <= 64``.
    """
    if 2 * n > 64:
        raise ValueError(f"intersect_spaces needs 2n <= 64, got n={n}")
    rows = _np.zeros(0, dtype=_U64)
    for v in basis_a:
        rows = _insert_one(rows, _u(v | (v << n)))
    for w in basis_b:
        rows = _insert_one(rows, _u(w))
    low_mask = _u((1 << n) - 1)
    inter = rows[(rows & low_mask) == 0] >> _u(n)
    return rref(inter)


# ----------------------------------------------------------------------
# The generation-step kernels (uniform-rank batches)
# ----------------------------------------------------------------------

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
