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

The functions here mirror the :mod:`repro.core.gf2` API — ``rref``,
``insert_vector``/``insert_reduced_batch``, ``reduce_vectors``,
``pivot_masks``, ``span_points``, ``intersect_spaces`` — and are pinned
bit-identical to it by ``tests/kernels/test_gf2mat.py``.  NumPy is an
*optional* accelerator: ``AVAILABLE`` is False when numpy (with
``bitwise_count``) is missing **or** the ``REPRO_NO_NUMPY`` environment
variable is set, and every caller keeps the pure-Python path as the
pinned fallback, so outputs are unchanged to the bit either way.
"""

from __future__ import annotations

import os
import threading

try:  # gated: the container may lack numpy; callers fall back to core.gf2
    import numpy as _np

    _HAVE = hasattr(_np, "bitwise_count")
except ImportError:  # pragma: no cover — exercised via the fallback path
    _np = None
    _HAVE = False

#: Runtime gate consulted per call site (monkeypatchable in tests);
#: ``REPRO_NO_NUMPY=1`` pins the pure-Python ``core.gf2`` path fleet-wide.
AVAILABLE = _HAVE and not os.environ.get("REPRO_NO_NUMPY")

#: Vectors wider than this cannot share a uint64 with a tag in the
#: packed dedup keys; the generation front-end falls back past it.
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
    "insert_reduced_batch",
    "pivot_masks",
    "basis_literals",
    "basis_factor_width",
    "span_points",
    "intersect_spaces",
    "pair_split",
    "unique_sorted_first",
    "unique_with_inverse",
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


def basis_factor_width(mat, n: int):
    """Widest EXOR factor of any pseudocube with each basis — batched
    ``_basis_factor_width``: one plus the most rows sharing a non-pivot
    column, 0 at full rank.

    ``mat`` is ``(batch, rank)`` with uniform rank, like
    :func:`basis_literals`.  The per-column counts come from unpacking
    each row's non-pivot bits; the byte order of the unpacked columns is
    the same for every row, so it cannot change a column maximum.
    """
    if mat.ndim == 1:
        mat = mat[None, :]
    batch, rank = mat.shape
    if rank == n:
        return _np.zeros(batch, dtype=_np.int64)
    if rank == 0:
        return _np.ones(batch, dtype=_np.int64)
    rest = _np.ascontiguousarray(mat & (mat - _u(1)))
    bits = _np.unpackbits(rest.view(_np.uint8), axis=1).reshape(batch, rank, 64)
    # rank < n <= 64, so a column count always fits one byte.
    return bits.sum(axis=1, dtype=_np.uint8).max(axis=1).astype(_np.int64) + 1


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

def insert_reduced_batch(parents, deltas):
    """Insert one **already-reduced** nonzero vector into each parent
    basis of a uniform-rank batch.

    ``parents`` is ``(batch, rank)`` (rows in RREF, pivots increasing
    along the row axis); ``deltas`` is ``(batch,)`` with every delta
    reduced modulo its parent (zero on the parent's pivot positions)
    and nonzero.  Returns the ``(batch, rank + 1)`` child bases, again
    in RREF with increasing pivots — exactly
    ``gf2.insert_vector(parent, delta)`` row for row.
    """
    rank = parents.shape[1] if parents.ndim == 2 else 0
    if rank == 0:
        return deltas[:, None].copy()
    pivot = _lowbit(deltas)
    # Rows containing the delta's pivot position absorb the delta; row
    # pivots are unchanged (a row's own pivot is below any absorbed bit).
    cleaned = _np.where(
        (parents & pivot[:, None]) != 0, parents ^ deltas[:, None], parents
    )
    # Append the delta, then sort each row set by pivot value: parent
    # pivots are already increasing and all rank+1 pivots are distinct,
    # so the row-wise argsort is exactly the RREF insertion slot.  The
    # gather uses flat take — np.take_along_axis's broadcasting wrapper
    # costs more than this whole function at generation-step sizes.
    combo = _np.concatenate([cleaned, deltas[:, None]], axis=1)
    order = _lowbit(combo).argsort(axis=1)
    width = rank + 1
    flat_base = _np.arange(0, deltas.shape[0] * width, width)[:, None]
    return combo.take(order + flat_base)


# pair_split is a pure function of (sizes, limit) and step shapes repeat
# heavily — the bench repeats each function and real traffic is mostly
# near-duplicate functions — so small decoded streams are memoized.
# Entries are immutable by convention: callers only read the arrays.
# Insertion and eviction hold ``_PAIR_LOCK``: serving threads generate
# concurrently, and two evictions must not race on the oldest key.
_PAIR_CACHE: dict[tuple[bytes, int | None], tuple] = {}
_PAIR_LOCK = threading.Lock()
_PAIR_CACHE_MAX = 128
_PAIR_CACHE_MAX_PAIRS = 1 << 16


def pair_split(sizes, limit: int | None = None):
    """Row-major upper-triangle pair indices for a whole batch of
    groups at once.

    Given group sizes ``[g_0, g_1, ...]`` returns ``(group, i, j)``
    arrays of length ``sum g*(g-1)/2``, ordered exactly like the nested
    scalar loops: groups in order, within a group ``(0,1), (0,2), ...,
    (0,g-1), (1,2), ...`` — the order the pinned pure-Python path
    visits pairs in, which is what makes first-occurrence dedup
    reproduce its insertion order.

    ``limit`` truncates the stream to its first ``limit`` pairs without
    materializing the rest — the generation front-end passes its
    comparison-cap bound so an overflowing step costs O(cap), not
    O(pairs), exactly like the scalar loop's early break.

    Callers must treat the returned arrays as read-only (they may be
    served from a small memo keyed on the size vector).
    """
    sizes = _np.asarray(sizes, dtype=_np.int64)
    key = (sizes.tobytes(), limit)
    cached = _PAIR_CACHE.get(key)
    if cached is not None:
        return cached
    out = _pair_split_compute(sizes, limit)
    if out[0].size <= _PAIR_CACHE_MAX_PAIRS:
        with _PAIR_LOCK:
            if len(_PAIR_CACHE) >= _PAIR_CACHE_MAX:
                _PAIR_CACHE.pop(next(iter(_PAIR_CACHE)), None)
            _PAIR_CACHE[key] = out
    return out


def _pair_split_compute(sizes, limit: int | None):
    counts = sizes * (sizes - 1) // 2
    cum = _np.cumsum(counts)
    total = int(cum[-1]) if cum.size else 0
    take = counts
    if limit is not None and limit < total:
        ngroups = int(_np.searchsorted(cum, limit, side="left")) + 1
        take = counts[:ngroups].copy()
        take[ngroups - 1] -= int(cum[ngroups - 1]) - limit
        total = limit
    group = _np.repeat(_np.arange(take.shape[0], dtype=_np.int64), take)
    offsets = _np.concatenate([_np.zeros(1, dtype=_np.int64), _np.cumsum(take)])
    r = _np.arange(total, dtype=_np.int64) - offsets[group]
    g = sizes[group]
    b = 2 * g - 1
    # Row i starts at rank i*(b-i)/2; invert the quadratic with a float
    # sqrt, then correct the (at most off-by-one) rounding exactly.
    i = ((b - _np.sqrt((b * b - 8 * r).astype(_np.float64))) // 2).astype(_np.int64)
    i = _np.clip(i, 0, g - 2)
    too_big = i * (b - i) // 2 > r
    i = _np.where(too_big, i - 1, i)
    nxt = (i + 1) * (b - i - 1) // 2
    i = _np.where(nxt <= r, i + 1, i)
    j = r - i * (b - i) // 2 + i + 1
    return group, i, j


# Dense first-occurrence dedup scratch.  For narrow keys a direct
# scatter into a table beats any sort: write positions back-to-front so
# the lowest (first) stream position wins, then one linear scan of the
# table yields the distinct keys in sorted order with their first
# occurrences.  The table is epoch-tagged (entries below the thread's
# ``base`` are stale) so it is reused across calls without clearing.
# Each thread owns its table: concurrent generations in one process
# (the serving tier's request threads) would otherwise overwrite each
# other's entries between the scatter and the scan.
_DENSE_MAXVAL = 1 << 16
_DENSE = threading.local()


def _dense_scatter(keys, maxval: int):
    """Scatter stream positions into this thread's scratch table,
    back-to-front.  Returns ``(view, base)``: ``view[k] - base`` is the
    first stream position of key ``k`` wherever ``view >= base``;
    smaller entries are stale leftovers from earlier calls."""
    scratch = _DENSE
    table = getattr(scratch, "table", None)
    if table is None or table.size < maxval:
        table = scratch.table = _np.zeros(max(maxval, 1 << 12), dtype=_np.int64)
        scratch.base = 1
    size = int(keys.size)
    base = scratch.base
    scratch.base = base + size
    table[keys[::-1]] = _np.arange(base + size - 1, base - 1, -1, dtype=_np.int64)
    return table[:maxval], base


def _dense_first(keys, maxval: int):
    """(sorted distinct keys, first occurrence index of each) by direct
    scatter — no sort.  Requires ``maxval <= _DENSE_MAXVAL``."""
    view, base = _dense_scatter(keys, maxval)
    fresh = view >= base
    uniq = fresh.nonzero()[0].astype(_U64)
    return uniq, view[fresh] - base


def dense_first_inverse(keys, maxval: int):
    """(first occurrence index per sorted distinct key, inverse map
    from each stream position to its key's dense rank) — the
    ``np.unique(..., return_index=True, return_inverse=True)`` pair for
    narrow keys, with no sort."""
    view, base = _dense_scatter(keys, maxval)
    fresh = view >= base
    rank = fresh.cumsum()
    return view[fresh] - base, rank[keys] - 1


def _argsort_keys(keys, maxval: int | None):
    """Argsort of integer keys, choosing the cheapest kind.

    numpy's stable sort on (u)int16 is a radix sort — ~3× faster than
    the uint64 quicksort at generation-step sizes — so keys known to be
    narrow are downcast first.  Returns ``(order, stable)``: when
    ``stable`` is False, equal keys appear in arbitrary order.
    """
    if maxval is not None and maxval < (1 << 16):
        return keys.astype(_np.uint16).argsort(kind="stable"), True
    return keys.argsort(), False


def unique_sorted_first(keys, maxval: int | None = None):
    """``np.unique(keys, return_index=True)``, cheaper.

    With narrow keys (``maxval < 2**16``) a radix argsort is stable and
    first occurrences fall out of the sorted order directly; otherwise
    a plain quicksort loses the tie order and each key's first
    occurrence is recovered as a per-run minimum over original
    positions — both beat the stable uint64 argsort ``np.unique``
    needs for ``return_index``.  Narrower still (``maxval`` at most
    2**16) skips sorting entirely via the dense scatter table.
    """
    if not keys.size:
        return keys, _np.zeros(0, dtype=_np.int64)
    if (
        maxval is not None
        and 0 < maxval <= _DENSE_MAXVAL
        and maxval <= max(4096, int(keys.size) << 5)
    ):
        return _dense_first(keys, maxval)
    order, stable = _argsort_keys(keys, maxval)
    sk = keys[order]
    run_start = _np.empty(sk.size, dtype=bool)
    run_start[0] = True
    _np.not_equal(sk[1:], sk[:-1], out=run_start[1:])
    run_idx = run_start.nonzero()[0]
    if stable:
        return sk[run_idx], order[run_idx]
    return sk[run_idx], _np.minimum.reduceat(order, run_idx)


def unique_with_inverse(keys, maxval: int | None = None):
    """``np.unique(keys, return_inverse=True)``, cheaper (radix argsort
    for narrow keys, no wrapper overhead)."""
    order, _ = _argsort_keys(keys, maxval)
    sk = keys[order]
    run_start = _np.empty(sk.size, dtype=bool)
    run_start[0] = True
    _np.not_equal(sk[1:], sk[:-1], out=run_start[1:])
    inv = _np.empty(keys.size, dtype=_np.int64)
    inv[order] = run_start.cumsum() - 1
    return sk[run_start.nonzero()[0]], inv
