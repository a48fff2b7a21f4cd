"""EPPP set construction — steps 1 and 2 of Algorithm 2.

Starting from the degree-0 pseudoproducts (the single points of the
function), each step unifies all pairs of same-structure pseudoproducts
of degree ``k`` into pseudoproducts of degree ``k+1`` (Theorem 1
guarantees every such pair unifies, so no comparison is wasted), and
retains a degree-``k`` pseudoproduct unless some union covering it has
no more literals (Definition 3's *extended prime pseudoproducts*).

One union step (``_union_step``) serves every scalar generation; the
backends differ only in how each level is grouped into structures:

* ``"index"`` — each level is a dict keyed by the direction basis,
  sorted by (basis, anchor) (the fast default).  Within a group all
  pairs with the same anchor difference ``delta`` produce unions with
  the same direction space, so basis insertion and literal counting
  are cached per ``delta``, and the new anchor is a single conditional
  XOR.  When :mod:`repro.kernels.gf2mat` is available and ``n <=
  MAX_PACKED_N``, every step of the generation instead runs as packed
  array ops over blocks of its pair stream (see ``_generate_packed``),
  so its memory follows the block and level sizes, not the pair count;
  the scalar loop is the pinned reference (``REPRO_NO_NUMPY=1`` forces
  it) and serves wider functions.
* ``"trie"`` — each level is regrouped through a
  :class:`repro.trie.PartitionTrie`, the paper's data structure node
  for node, and read back in trie order.  As in the paper every union
  is inserted, not only the canonical one below.

The structure classes of the trie are exactly the basis groups, so both
produce the same EPPP set and the same step counters; the ablation
benchmark measures what the trie's regrouping costs.

A degree-``k+1`` union arises from ``2^(k+1) - 1`` pairs, one per
hyperplane of its direction space.  The index backend builds it from
one of them only, its *canonical* pair: the pair whose parents span the
union's RREF rows minus the highest-pivot row.  In the parent group's
terms the delta's lowest set bit lies above the top pivot and in no
basis row, so the child basis is the parent basis with the delta
appended.  Every other pair still counts as a comparison (a
``duplicates`` tick) and still decides Definition 3 retention.  Each
level is complete (every pseudocube of its degree in the care set), so
every union's canonical pair is in the stream, and every level comes
out sorted by ``(basis, anchor)`` — candidate order is a pure function
of the care set.

A *factor-width bound* ``B`` (``factor_width``) turns the same step into
the bounded family: a union whose CEX has an EXOR factor of more than
``B`` literals counts as a comparison but is neither kept nor allowed to
retire its parents, so the search walks exactly the ``B``-bounded
pseudoproduct lattice.  ``B = 1`` is Quine–McCluskey (an SP form),
``B = 2`` the 2-SPP forms of :mod:`repro.minimize.bounded`, and
``B >= n`` is Algorithm 2 unchanged.  Dropping a union's top row only
shrinks its factors, so a union that fits ``B`` has a canonical pair
that fits too, and the bounded levels stay complete.

Instrumentation: each step records the number of pair unifications
performed (``Σ_j |X_j|·(|X_j|-1)/2`` over the groups) next to the
``|X|·(|X|-1)/2`` an ungrouped algorithm would pay — the exact
quantities discussed in Section 3.3 of the paper.
"""

from __future__ import annotations

import operator
import time
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import repeat

from repro.boolfunc.function import BoolFunc
from repro.budget import Budget
from repro.core import gf2
from repro.core.pseudocube import Pseudocube
from repro.kernels import gf2mat
from repro.kernels.intern import BasisInterner
from repro.minimize.covering import LazySequence
from repro.trie.partition_trie import PartitionTrie

__all__ = [
    "StepStats",
    "EpppColumns",
    "EpppResult",
    "GenerationBudgetExceeded",
    "generate_eppp",
]


class GenerationBudgetExceeded(RuntimeError):
    """The pseudoproduct budget was exhausted (``on_limit="raise"``)."""


@dataclass
class StepStats:
    """Counters for one generation step (one degree level)."""

    degree: int
    pseudoproducts: int
    groups: int
    comparisons: int
    naive_comparisons: int
    generated: int
    duplicates: int
    retained: int
    seconds: float


class EpppColumns(LazySequence):
    """The packed lane's EPPP set, held as columns and read as a
    sequence of :class:`Pseudocube`.

    Each entry of ``levels`` is one degree's retained items as
    ``(anchors, sizes, rows, lits)``: the uint32 anchors grouped by
    basis, each group's size (int64, none zero), its RREF basis as one
    row of the ``(groups, degree)`` uint32 matrix ``rows``, and its
    literal count (int64).  Levels ascend in degree, groups in basis
    order and anchors within a group, so the sequence is the scalar
    lane's list in its (degree, basis, anchor) order.

    The covering kernel (:func:`repro.kernels.coverage.build_problem`)
    reads the columns directly.  A ``Pseudocube`` is built only when
    its item is first indexed or iterated, and kept, so every read of
    an item returns the same object: a cover of a few columns builds a
    few objects.  ``len``, indexing, slicing (a list), iteration and
    ``==`` with a list behave as on the list.
    """

    __slots__ = ("n", "levels", "_starts", "_group_ends", "_items", "_complete")

    def __init__(self, n: int) -> None:
        self.n = n
        self.levels: list[tuple] = []
        self._starts = [0]  # first item of each level, then the length
        self._group_ends: list = []  # per level, cumulative group sizes
        self._items: list[Pseudocube | None] | None = None  # built so far
        self._complete = False

    def append_level(self, anchors, sizes, rows, lits) -> None:
        """Append one degree's items; empty groups are dropped."""
        count = int(anchors.size)
        if not count:
            return
        used = sizes.nonzero()[0]
        if used.size < sizes.size:
            sizes, rows, lits = sizes[used], rows[used], lits[used]
        self.levels.append((anchors, sizes, rows, lits))
        self._group_ends.append(sizes.cumsum())
        self._starts.append(self._starts[-1] + count)
        if self._items is not None:
            self._items += [None] * count
        self._complete = False

    def materialize(self, budget: Budget | None = None) -> list[Pseudocube]:
        """Every item as a ``Pseudocube`` (a new list), the ones not
        read yet built in chunks with a ``budget`` check before each."""
        if not self._complete:
            built: list[Pseudocube] = []
            for anchors, sizes, rows, _ in self.levels:
                built += _materialize(self.n, anchors, sizes, rows, budget)
            if self._items is not None:
                built = [new if old is None else old for old, new in zip(self._items, built)]
            self._items = built
            self._complete = True
        return list(self._items)

    def __len__(self) -> int:
        return self._starts[-1]

    def _item(self, i: int) -> Pseudocube:
        items = self._items
        if items is None:
            items = self._items = [None] * len(self)
        pc = items[i]
        if pc is None:
            level = bisect_right(self._starts, i) - 1
            anchors, _, rows, _ = self.levels[level]
            j = i - self._starts[level]
            group = int(self._group_ends[level].searchsorted(j, side="right"))
            pc = Pseudocube._unsafe(self.n, int(anchors[j]), tuple(rows[group].tolist()))
            items[i] = pc
        return pc

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._item(i) for i in range(*index.indices(len(self)))]
        i = operator.index(index)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError("EPPP index out of range")
        return self._item(i)

    def __iter__(self):
        return iter(self.materialize())

    def __repr__(self) -> str:
        return f"EpppColumns(n={self.n}, items={len(self)}, levels={len(self.levels)})"


@dataclass
class EpppResult:
    """The EPPP candidate set plus per-step instrumentation.

    ``eppps`` is a list of pseudocubes, except for an untruncated
    packed generation, which holds them as :class:`EpppColumns` (a
    sequence that builds each pseudocube only when it is read).  A
    truncated generation keeps every level seen as a list, built in
    chunks with a budget check before each.
    """

    n: int
    eppps: Sequence[Pseudocube]
    steps: list[StepStats] = field(default_factory=list)
    truncated: bool = False

    @property
    def total_comparisons(self) -> int:
        return sum(s.comparisons for s in self.steps)

    @property
    def total_naive_comparisons(self) -> int:
        return sum(s.naive_comparisons for s in self.steps)

    @property
    def total_generated(self) -> int:
        return sum(s.pseudoproducts for s in self.steps)

    @property
    def seconds(self) -> float:
        return sum(s.seconds for s in self.steps)

    @property
    def max_degree(self) -> int:
        return max((s.degree for s in self.steps), default=0)


def generate_eppp(
    func: BoolFunc,
    *,
    backend: str = "index",
    discard_equal: bool = True,
    factor_width: int | None = None,
    max_pseudoproducts: int | None = None,
    on_limit: str = "raise",
    budget: Budget | None = None,
) -> EpppResult:
    """Generate the EPPP candidate set of ``func``.

    Pseudoproducts are subsets of the *care* set (on ∪ dc), so
    don't-cares enlarge them exactly as in SP minimization; the covering
    step later only targets the on-set.

    ``factor_width`` bounds the width of every EXOR factor (see the
    module docstring); ``None`` generates the unrestricted EPPP set.  A
    step whose unions are all too wide ends generation.

    ``max_pseudoproducts`` bounds the total number of distinct
    pseudoproducts generated across all degrees, enforced *within*
    steps (one degree level of an XOR-rich function can produce tens of
    millions of unions).  When exceeded, ``on_limit="raise"`` aborts
    with :class:`GenerationBudgetExceeded`; ``on_limit="stop"`` returns
    every pseudoproduct seen so far (still a sound cover superset —
    every discarded pseudoproduct's coverer was kept — but no longer
    guaranteed to contain a minimum-literal cover; the result is
    flagged ``truncated``).

    ``budget`` is a cooperative :class:`~repro.budget.Budget`, ticked
    one unit per pair from inside the pairing loops (per row in the
    scalar lane, per block of rows in the packed one): a blown deadline
    or a cancellation raises :class:`repro.errors.BudgetExceeded` /
    :class:`repro.errors.Cancelled` promptly even mid-step (the
    generation's explosive phase), on any thread.
    """
    if on_limit not in ("raise", "stop"):
        raise ValueError(f"unknown on_limit {on_limit!r}")
    if factor_width is not None and factor_width < 1:
        raise ValueError("factor width bound must be >= 1")
    args = (func, discard_equal, factor_width, max_pseudoproducts, on_limit, budget)
    if backend == "index":
        # Checked at call time (not import time) so REPRO_NO_NUMPY /
        # monkeypatched AVAILABLE select the pinned scalar fallback.
        if gf2mat.AVAILABLE and func.n <= gf2mat.MAX_PACKED_N:
            return _generate_packed(*args)
        return _fast_steps(*args)
    if backend == "trie":
        return _fast_steps(*args, trie=True)
    raise ValueError(f"unknown store backend {backend!r}")


# ----------------------------------------------------------------------
# Scalar path: dict-of-dicts buckets, per-delta caching
# ----------------------------------------------------------------------

#: One degree level: basis -> {anchor: None}.  The index lane's levels
#: are sorted by (basis, anchor), the trie lane's in trie order; the
#: heuristic's stores keep insertion order.
Buckets = dict[tuple[int, ...], dict[int, None]]


def _basis_literals(n: int, basis: tuple[int, ...]) -> int:
    """Literal count of any pseudocube with this direction basis."""
    return sum(b.bit_count() - 1 for b in basis) + (n - len(basis))


def _basis_factor_width(n: int, basis: tuple[int, ...]) -> int:
    """Widest EXOR factor of any pseudocube with this RREF direction
    basis (0 at full rank, where the CEX has no factors).

    The factor of a non-canonical variable ``j`` holds ``j`` plus the
    pivot of every basis row with bit ``j`` set; RREF rows carry their
    non-pivot bits on non-canonical columns only.
    """
    if len(basis) == n:
        return 0
    counts: dict[int, int] = {}
    for vec in basis:
        rest = vec & (vec - 1)  # the row without its pivot
        while rest:
            low = rest & -rest
            rest ^= low
            counts[low] = counts.get(low, 0) + 1
    return 1 + max(counts.values(), default=0)


def _canonical_bits(basis: tuple[int, ...]) -> int:
    """The bits above the top pivot of ``basis`` and in none of its rows.

    A pair of the group whose delta has its lowest set bit here is its
    union's canonical pair: inserting the delta leaves every row as it
    is and appends the delta as the new top row.
    """
    if not basis:
        return -1
    rows = 0
    for vec in basis:
        rows |= vec
    return ~rows & -((basis[-1] & -basis[-1]) << 1)


def _sorted_level(level: Buckets) -> Buckets:
    """``level`` reordered by (basis, anchor)."""
    return {basis: dict.fromkeys(sorted(level[basis])) for basis in sorted(level)}


# Items inserted into a regroup trie between two budget checks in
# `_trie_level`.  An insert costs 15-28 us on a 2-core x86 host (the
# EPPP sets of dist[1], life[0] and adr4[3], best of 5), so a chunk
# takes 60-115 ms, near a `_MATERIALIZE_CHUNK` build's 70 ms.
_REGROUP_CHUNK = 1 << 12


def _trie_level(n: int, level: Buckets, budget: Budget | None) -> Buckets:
    """``level`` regrouped through a :class:`PartitionTrie` (Section
    3.2) and read back in the trie's group order, each group's anchors
    in insertion order.  Its structure classes are exactly the basis
    buckets.  The items are inserted in chunks of ``_REGROUP_CHUNK``
    with a ``budget`` check (not a tick) before each, as a truncated
    level can hold millions, and the walk ticks ``budget`` once per trie
    node; an empty level builds no trie."""
    trie = PartitionTrie()
    items = [(anchor, basis) for basis, anchors in level.items() for anchor in anchors]
    for start in range(0, len(items), _REGROUP_CHUNK):
        if budget is not None:
            budget.check()
        for anchor, basis in items[start : start + _REGROUP_CHUNK]:
            trie.insert(Pseudocube._unsafe(n, anchor, basis))
    if not trie:
        return {}
    return {
        group[0].basis: dict.fromkeys(pc.anchor for pc in group)
        for group in trie.groups(budget=budget)
    }


def _union_step(
    n: int,
    buckets: Buckets,
    target: Buckets,
    interner: BasisInterner,
    discard_equal: bool,
    factor_width: int | None,
    budget: Budget | None,
    complete: bool,
    max_generated: int | None = None,
    max_comparisons: int | None = None,
) -> tuple[list[tuple[tuple[int, ...], list[int]]], int, int, int, bool]:
    """One union step: unify every same-structure pair of ``buckets``
    into ``target``, merging with whatever ``target`` already holds.

    Returns ``(retained, comparisons, generated, duplicates, overflow)``:
    the pseudoproducts of ``buckets`` that no union with at most their
    literal count covers (Definition 3), as ``(basis, anchors)`` groups
    in bucket order with no group empty, the pairs unified, the unions
    new to ``target``, the ones it already held, and whether a cap
    tripped.  Caps are checked after each row — the granularity of the
    budget ticks — and an overflowing step stops there, leaving
    ``retained`` incomplete.

    Within a group all pairs with the same anchor difference ``delta``
    produce unions with the same direction space, so basis insertion,
    the width filter, literal counting and the canonical test run once
    per delta, and the new anchor is one conditional XOR.

    ``complete`` says ``buckets`` holds every pseudocube of its degree
    in the care set (the exact and bounded levels of `_fast_steps`), so
    each union's canonical pair is in the stream: only canonical pairs
    are inserted, and every other pair is a duplicate without a lookup.
    The heuristic's stores are pre-filled and incomplete, so it inserts
    every pair and deduplicates by dict.
    """
    comparisons = generated = duplicates = 0
    retained: list[tuple[tuple[int, ...], list[int]]] = []
    for basis, anchors in buckets.items():
        anchor_list = list(anchors)
        g = len(anchor_list)
        if g < 2:
            if g:
                retained.append((basis, anchor_list))
            continue
        parent_literals = _basis_literals(n, basis)
        canonical_bits = _canonical_bits(basis)
        # delta -> (child basis, pivot bit, covers parents?, canonical?),
        # or () when the union is wider than factor_width.
        delta_cache: dict[int, tuple] = {}
        covered: set[int] = set()
        for i in range(g - 1):
            if budget is not None:
                # One tick per union in this row keeps cancellation
                # latency bounded even inside a single huge group.
                budget.tick(g - 1 - i)
            ai = anchor_list[i]
            for j in range(i + 1, g):
                aj = anchor_list[j]
                # Anchors are zero on the parent pivots, hence so is
                # delta: it is already reduced modulo `basis`.
                delta = ai ^ aj
                info = delta_cache.get(delta)
                if info is None:
                    child_basis = gf2.insert_vector(basis, delta)
                    if (
                        factor_width is not None
                        and _basis_factor_width(n, child_basis) > factor_width
                    ):
                        info = ()
                    else:
                        child_literals = _basis_literals(n, child_basis)
                        pivot_bit = delta & -delta
                        info = (
                            interner.intern(child_basis),
                            pivot_bit,
                            child_literals < parent_literals
                            or (discard_equal and child_literals == parent_literals),
                            not complete or bool(pivot_bit & canonical_bits),
                        )
                    delta_cache[delta] = info
                comparisons += 1
                if not info:
                    continue
                child_basis, pivot_bit, covers, insert = info
                if not insert:
                    duplicates += 1  # its canonical pair inserts this union
                else:
                    # New anchor: parents share it; one conditional XOR.
                    anchor = ai ^ delta if ai & pivot_bit else ai
                    bucket = target.get(child_basis)
                    if bucket is None:
                        target[child_basis] = {anchor: None}
                        generated += 1
                    elif anchor in bucket:
                        duplicates += 1
                    else:
                        bucket[anchor] = None
                        generated += 1
                if covers:
                    covered.add(ai)
                    covered.add(aj)
            if (max_generated is not None and generated > max_generated) or (
                max_comparisons is not None and comparisons > max_comparisons
            ):
                return retained, comparisons, generated, duplicates, True
        kept = [a for a in anchor_list if a not in covered]
        if kept:
            retained.append((basis, kept))
    return retained, comparisons, generated, duplicates, False


def _keep_groups(result: EpppResult, groups) -> None:
    """Append one step's retained ``(basis, anchors)`` groups to
    ``result`` as pseudocubes."""
    n = result.n
    result.eppps.extend(
        Pseudocube._unsafe(n, a, basis) for basis, anchors in groups for a in anchors
    )


def _keep_truncated(result: EpppResult, levels, budget: Budget | None) -> None:
    """Mark ``result`` truncated and append every item of ``levels``
    (bucket dicts).  The items are built in chunks with a ``budget``
    check before each: a truncated level can hold millions."""
    for level in levels:
        anchors = [a for group in level.values() for a in group]
        bases = [basis for basis, group in level.items() for _ in group]
        result.eppps += _build_chunked(result.n, anchors, bases, budget)
    result.truncated = True


def _fast_steps(
    func: BoolFunc,
    discard_equal: bool,
    factor_width: int | None,
    max_pseudoproducts: int | None,
    on_limit: str,
    budget: Budget | None = None,
    *,
    trie: bool = False,
) -> EpppResult:
    """The scalar step loop, from the care set up.

    The index lane (``trie=False``) sorts each level by (basis, anchor);
    its levels are complete, so `_union_step` inserts only canonical
    pairs.  The trie lane regroups each level through a
    :class:`PartitionTrie` and inserts every pair, as the paper inserts
    every union into the trie.
    """
    n = func.n
    if trie:
        def regroup(level: Buckets) -> Buckets:
            return _trie_level(n, level, budget)
    else:
        regroup = _sorted_level
    # The raw union work per step is bounded as well as the distinct
    # pseudoproducts: an XOR-rich step makes 2^{k+1}-1 pairs per union.
    capped = max_pseudoproducts is not None
    comparison_cap = 8 * max_pseudoproducts if capped else None
    # The degree-0 basis is (); interning makes the bucket probes
    # identity-hits with one tuple per distinct basis.
    interner = BasisInterner()
    buckets = regroup({(): dict.fromkeys(sorted(func.care_set))})
    result = EpppResult(n, [])
    degree = 0
    total = len(func.care_set)

    while buckets:
        t0 = time.perf_counter()
        next_buckets: Buckets = {}
        size = sum(len(b) for b in buckets.values())
        retained, comparisons, generated, duplicates, overflow = _union_step(
            n,
            buckets,
            next_buckets,
            interner,
            discard_equal,
            factor_width,
            budget,
            complete=not trie,
            max_generated=max_pseudoproducts - total if capped else None,
            max_comparisons=comparison_cap,
        )
        if overflow:
            if on_limit == "raise":
                raise GenerationBudgetExceeded(
                    f"generated more than {max_pseudoproducts} pseudoproducts"
                )
            # Keep everything seen at this degree and below: sound
            # superset (every discarded pseudoproduct's coverer kept).
            _keep_truncated(result, (buckets, regroup(next_buckets)), budget)
        else:
            _keep_groups(result, retained)
        result.steps.append(
            StepStats(
                degree=degree,
                pseudoproducts=size,
                groups=len(buckets),
                comparisons=comparisons,
                naive_comparisons=size * (size - 1) // 2,
                generated=generated,
                duplicates=duplicates,
                retained=size if overflow else sum(len(a) for _, a in retained),
                seconds=time.perf_counter() - t0,
            )
        )
        if overflow:
            return result
        total += generated
        buckets = regroup(next_buckets)
        degree += 1
    return result


# ----------------------------------------------------------------------
# Packed path: blocked array ops over the pair stream (kernels.gf2mat)
# ----------------------------------------------------------------------

# Pairs per block of a packed step (blocks end on row ends, so a block
# holds this many pairs plus at most one row, bar the stream's last).
# A block's arrays, two int32 item indices and a few uint32 words a
# pair, then stay in the core's caches.  Generating the 29-output pool
# on a 2-core x86 host (two interleaved sweeps, best of 4 per function)
# took 0.72-0.76 s at 2^14 and 2^15 pairs, 0.76-0.80 s at 2^16,
# 0.81-0.82 s at 2^13, 0.79-0.88 s at 2^17 and 0.91 s at 2^12: smaller
# blocks pay more per-block array calls, larger ones miss the cache.
_BLOCK_PAIRS = 1 << 15


def _tick(budget: Budget, count: int, n: int) -> None:
    """Tick ``count`` pairs in one call, unless a tick cap would trip
    inside them: then in chunks of at most ``2^n`` (the scalar loop's
    longest row), so the overshoot past the cap stays bounded the same
    way it is for the pairwise loop."""
    if budget.max_ticks is None or budget.ticks + count <= budget.max_ticks:
        budget.tick(count)
    else:
        chunk = 1 << n
        for start in range(0, count, chunk):
            budget.tick(min(chunk, count - start))


def _generate_packed(
    func: BoolFunc,
    discard_equal: bool,
    factor_width: int | None,
    max_pseudoproducts: int | None,
    on_limit: str,
    budget: Budget | None = None,
) -> EpppResult:
    """The index lane with every step computed as packed array ops.

    Per-step state is columnar: ``anchors`` (one uint32 per pseudocube,
    grouped by bucket; ``n <= MAX_PACKED_N = 16``), ``sizes`` (bucket
    sizes), ``rows`` — one ``(groups, degree)`` uint32 matrix holding
    every bucket's RREF basis (uniform rank: every degree-``k``
    pseudocube has ``k`` direction rows) — and ``lits``, each bucket's
    literal count.  Buckets are in basis order and anchors ascend
    within a bucket.  A step walks its pair stream in blocks of whole
    rows, about ``_BLOCK_PAIRS`` pairs each, so its memory follows the
    block size and the level sizes, not the pair count.  Per block:

    1. decode the block's rows into int32 item indices
       (``gf2mat.pair_block``) and take each pair's delta
       ``Δ = a_i ^ a_j`` and its lowest set bit ``p``;
    2. classify each pair by bit tests on its parent rows, building no
       child basis; a row's pairs share their left item, so its group's
       rows are repeated along the row, not gathered per pair.  In the
       child a parent row ``r`` holding ``p``
       becomes ``r ^ Δ``, the other rows stay and ``Δ`` joins as a row,
       so the popcount total of those rows decides Definition 3
       coverage, and under a width bound their bit-sliced column counts
       decide whether the union fits ``B``;
    3. keep the canonical pairs: ``p`` above the parent's top pivot and
       in no parent row.  Inserting such a ``Δ`` changes no row and
       appends ``Δ`` as the top row, so the child basis is the parent
       rows followed by ``Δ``.  A child has one RREF basis, so only the
       pair whose parents span its rows minus the top row passes (and
       that pair does: its delta is the top row).  Every level is
       complete, so that pair is in the stream;
    4. mark the covered parents: one ``logical_or.reduceat`` over the
       block's rows for the left items (``left`` ascends, one run per
       row) and one scatter of the right items, sent to a sink slot
       where the pair covers nothing;
    5. emit the canonical pairs' sort keys ``(parent group, Δ,
       anchor)`` — the anchor is the parent with bit ``p`` clear.

    One sort of the step's keys builds the next level: parent groups
    are in basis order, so this is (child basis, anchor) order, and the
    runs of equal ``(group, Δ)`` are its buckets.  Items are int32
    indices, so a level has fewer than 2^31 groups and the key fits 64
    bits with ``n <= 16``.

    A level with no pairs (no group holds two items) is retained whole
    and ends generation, as the scalar step records it.

    Counters match the scalar lane: every pair is a comparison, the
    fitting canonical pairs are ``generated`` and the other fitting
    pairs ``duplicates``.

    Caps replicate the scalar loop's row-granular check: the block
    whose last row end breaks a cap finds the first row end inside it
    that does (both conditions are monotone in the stream position), and
    the step stops there, keeping the canonical children before it,
    sorted like a full level.  The stream ends at the first row end past
    the comparison cap, so an overflowing step decodes no block beyond
    it.  Each block ticks the budget once it is classified, for the
    pairs up to the row where the step stops, so a deadline or cancel
    lands within a block and every step ticks what the scalar lane
    does: one tick per pair compared, whatever the block size.
    """
    np = gf2mat._np
    n = func.n
    points = sorted(func.care_set)
    result = EpppResult(n, EpppColumns(n))
    degree = 0
    total = len(points)
    capped = max_pseudoproducts is not None
    budget_left = max_pseudoproducts - total if capped else 0
    comparison_cap = 8 * max_pseudoproducts if capped else 0

    zero = np.uint32(0)
    one = np.uint32(1)
    shift = np.uint64(n)
    anchors = np.array(points, dtype=np.uint32)
    sizes = np.array([len(points)], dtype=np.int64)
    rows = np.zeros((1, 0), dtype=np.uint32)
    # Literal count of each group's bases, carried across steps.
    lits = np.full(1, n, dtype=np.int64)

    # Every iteration either returns (no pairs / no union fits /
    # overflow) or installs a non-empty next state of strictly higher
    # degree <= n, mirroring the scalar `while buckets` loop (which
    # always enters: the degree-0 state is one group even for an empty
    # care set).
    while True:
        t0 = time.perf_counter()
        m = int(anchors.size)
        num_groups = int(sizes.size)
        pair_total = int((sizes * (sizes - 1) // 2).sum())
        if not pair_total:
            # No group holds two items: the level is retained whole and
            # generation ends, as in the scalar step.
            result.eppps.append_level(anchors, sizes, rows, lits)
            result.steps.append(
                StepStats(
                    degree=degree,
                    pseudoproducts=m,
                    groups=num_groups,
                    comparisons=0,
                    naive_comparisons=m * (m - 1) // 2,
                    generated=0,
                    duplicates=0,
                    retained=m,
                    seconds=time.perf_counter() - t0,
                )
            )
            return result

        lengths = gf2mat.row_lengths(sizes)
        row_ends = lengths.cumsum()
        # An overflowing step stops at the first row end past the
        # comparison cap, so the stream ends there at the latest.
        stop = pair_total
        if capped and pair_total > comparison_cap:
            stop = int(row_ends[np.searchsorted(row_ends, comparison_cap + 1)])
        # Blocks of whole rows: block k ends on the first row end at or
        # past k * _BLOCK_PAIRS, the last block on the stream's end.
        last = int(np.searchsorted(row_ends, stop)) + 1
        block_ends = []
        if stop > _BLOCK_PAIRS:
            targets = np.arange(_BLOCK_PAIRS, stop, _BLOCK_PAIRS)
            block_ends = np.unique(np.searchsorted(row_ends, targets) + 1).tolist()
        if not block_ends or block_ends[-1] < last:
            block_ends.append(last)

        group_of = np.arange(num_groups, dtype=np.int32).repeat(sizes)
        # Child literals are weight + n - 2(degree + 1): a union covers
        # its parents when that is at most (below) the parents' count.
        weight_cap = (lits + (2 * degree + 2 - n)).astype(np.uint16)
        if degree:
            top = rows[:, -1] & (zero - rows[:, -1])
            free = ~np.bitwise_or.reduce(rows, axis=1) & (zero - (top << one))
            # Per item, its group's rows, cap and canonical bits: a row
            # of pairs shares its left item, so a block repeats these
            # along its rows instead of gathering them per pair.
            item_rows = rows.T.take(group_of, axis=1)
            item_cap = weight_cap.take(group_of)
            item_free = free.take(group_of)
        # A width bound above the child's row count cannot be reached.
        check_width = factor_width is not None and factor_width <= degree + 1
        # Slot m is the sink for the pairs that cover nothing.
        covered = np.zeros(m + 1, dtype=bool)
        row_starts = row_ends - lengths
        row_used = lengths > 0
        keys = []
        generated = inserted = pos = start = 0
        overflow = False
        for end in block_ends:
            left, right = gf2mat.pair_block(lengths, start, end)
            count = int(left.size)
            lens = lengths[start:end]
            # Anchors are zero on the parent pivots, hence so is the
            # delta: it is already reduced modulo the parent basis.
            base = anchors[start:end].repeat(lens)
            delta = base ^ anchors.take(right)
            pivot = delta & (zero - delta)
            # The child's rows: each parent row, XORed with the delta
            # where it holds the pivot bit, then the delta.  Sum their
            # popcounts, and under a width bound keep each without its
            # pivot.
            weight = np.bitwise_count(delta).astype(np.uint16)
            factor_rows = [delta ^ pivot] if check_width else None
            canonical = fits = None
            if degree:
                for column in item_rows:
                    r = column[start:end].repeat(lens)
                    # The delta where r holds the pivot bit (-p covers
                    # every bit of the delta), else 0.
                    r ^= delta & (zero - (r & pivot))
                    weight += np.bitwise_count(r)
                    if check_width:
                        factor_rows.append(r & (r - one))
                cap = item_cap[start:end].repeat(lens)
                canonical = (pivot & item_free[start:end].repeat(lens)) != 0
            else:
                cap = weight_cap[0]  # a degree-1 union has one pair
            covers = weight <= cap if discard_equal else weight < cap
            if check_width:
                fits = ~gf2mat.columns_reach(factor_rows, factor_width)
                covers &= fits
                canonical = fits if canonical is None else canonical & fits
            chosen = None if canonical is None else np.flatnonzero(canonical)
            made = count if chosen is None else int(chosen.size)

            if capped and (
                generated + made > budget_left or pos + count > comparison_cap
            ):
                # Overflow: stop at the first row end of this block where
                # a cap breaks, as the scalar loop does.
                overflow = True
                ends = row_ends[start:end]
                local = ends - pos
                made_at = generated + (
                    local if chosen is None else np.searchsorted(chosen, local)
                )
                hit = int(((made_at > budget_left) | (ends > comparison_cap)).argmax())
                count = int(local[hit])
                made = int(made_at[hit]) - generated
                if chosen is not None:
                    chosen = chosen[:made]
                if fits is not None:
                    fits = fits[:count]
            if budget is not None:
                _tick(budget, count, n)
            if overflow and on_limit == "raise":
                raise GenerationBudgetExceeded(
                    f"generated more than {max_pseudoproducts} pseudoproducts"
                )
            inserted += count if fits is None else int(np.count_nonzero(fits))
            if made:
                pick = slice(made) if chosen is None else chosen
                d = delta[pick]
                b = base[pick]
                # The anchor: the parent with the pivot bit clear.
                key = (d.astype(np.uint64) << shift) | (
                    b ^ (d & (zero - (b & pivot[pick])))
                )
                if num_groups > 1:
                    group = group_of.take(left[pick])
                    key |= group.astype(np.uint64) << (shift + shift)
                keys.append(key)
            generated += made
            pos += count
            if overflow:
                break
            # Definition 3 retention: an item survives unless some
            # union covering it had no more literals.  A block's last
            # row holds pairs, so every row start indexes `covers`; an
            # empty row's reduction reads its successor's first pair
            # and is masked off.
            covered[start:end] |= row_used[start:end] & np.logical_or.reduceat(
                covers, row_starts[start:end] - (pos - count)
            )
            covered[right + (m - right) * ~covers] = True
            start = end

        if overflow:
            # Keep everything seen at this degree and below: sound
            # superset (every discarded pseudoproduct's coverer kept).
            eppps = result.eppps.materialize(budget)
            eppps += _materialize(n, anchors, sizes, rows, budget)
            if generated:
                eppps += _materialize(n, *_next_level(n, rows, keys), budget)
            result.eppps = eppps
            result.truncated = True
            retained = m
        else:
            keep = np.flatnonzero(~covered[:m])
            kept = np.bincount(group_of[keep], minlength=num_groups)
            result.eppps.append_level(anchors[keep], kept, rows, lits)
            retained = int(keep.size)
        result.steps.append(
            StepStats(
                degree=degree,
                pseudoproducts=m,
                groups=num_groups,
                comparisons=pos,
                naive_comparisons=m * (m - 1) // 2,
                generated=generated,
                duplicates=inserted - generated,
                retained=retained,
                seconds=time.perf_counter() - t0,
            )
        )
        if overflow or not generated:
            return result  # capped, or every union was wider than factor_width
        anchors, sizes, rows = _next_level(n, rows, keys)
        lits = gf2mat.basis_literals(rows, n)
        total += generated
        budget_left = max_pseudoproducts - total if capped else 0
        degree += 1


def _next_level(n, rows, keys):
    """The children of a step's canonical pairs, from their packed sort
    keys ``(group, Δ, anchor)``, as next-step ``(anchors, sizes, rows)``
    sorted by (basis, anchor).

    A child's basis is its parent group's rows followed by its delta.
    One sort of the keys orders the children; each run of equal
    ``(group, Δ)`` is one bucket.
    """
    np = gf2mat._np
    shift = np.uint64(n)
    low = np.uint64((1 << n) - 1)
    key = np.concatenate(keys)
    key.sort()
    head = key >> shift
    # Run starts, then the end of the last run.
    edges = np.flatnonzero(np.concatenate(([True], head[1:] != head[:-1], [True])))
    head = head[edges[:-1]]
    parents = rows[(head >> shift).astype(np.intp)]
    return (
        (key & low).astype(np.uint32),
        edges[1:] - edges[:-1],
        np.concatenate([parents, (head & low).astype(np.uint32)[:, None]], axis=1),
    )


# Pseudocubes built between two budget checks in `_materialize`: about
# 70 ms of object construction, while a truncated level holds millions.
_MATERIALIZE_CHUNK = 1 << 16


def _materialize(n, anchors, sizes, rows, budget=None):
    """Pseudocubes for ``anchors`` taken group by group, ``sizes[g]`` of
    them with the basis in row ``g`` of ``rows``.  The items of a group
    share one basis tuple, and a level's bases are distinct, so no
    interning is needed for downstream identity hits.  ``budget`` is
    checked (not ticked) before each chunk of the items."""
    if not anchors.size:
        return []
    np = gf2mat._np
    used = sizes.nonzero()[0]
    bases = list(map(tuple, rows[used].tolist()))
    basis_of = np.arange(used.size).repeat(sizes[used]).tolist()
    return _build_chunked(
        n, anchors.tolist(), list(map(bases.__getitem__, basis_of)), budget
    )


def _build_chunked(n, anchors, bases, budget):
    """``Pseudocube._unsafe(n, anchors[i], bases[i])`` for every ``i``,
    in chunks of ``_MATERIALIZE_CHUNK`` with a ``budget`` check before
    each."""
    out: list[Pseudocube] = []
    for start in range(0, len(anchors), _MATERIALIZE_CHUNK):
        if budget is not None:
            budget.check()
        stop = start + _MATERIALIZE_CHUNK
        out.extend(map(Pseudocube._unsafe, repeat(n), anchors[start:stop], bases[start:stop]))
    return out
