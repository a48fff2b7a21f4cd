"""EPPP set construction — steps 1 and 2 of Algorithm 2.

Starting from the degree-0 pseudoproducts (the single points of the
function), each step unifies all pairs of same-structure pseudoproducts
of degree ``k`` into pseudoproducts of degree ``k+1`` (Theorem 1
guarantees every such pair unifies, so no comparison is wasted), and
retains a degree-``k`` pseudoproduct unless some union covering it has
no more literals (Definition 3's *extended prime pseudoproducts*).

The same-structure grouping is delegated to a pluggable *store*:

* ``"index"`` — hash map keyed by the direction basis (the fast
  default).  Within a group all pairs with the same anchor difference
  ``delta`` produce unions with the same direction space, so basis
  insertion and literal counting are cached per ``delta``, and the new
  anchor is a single conditional XOR.  When :mod:`repro.kernels.gf2mat`
  is available the whole step runs as packed array ops (see
  ``_generate_packed``); the scalar loop is the pinned reference
  (``REPRO_NO_NUMPY=1`` forces it).
* ``"trie"`` — :class:`repro.trie.PartitionTrie`, the paper's data
  structure node for node.

Both produce identical groups, hence identical EPPP sets; the ablation
benchmark measures their constant factors.

A degree-``k+1`` union arises from ``2^(k+1) - 1`` pairs, one per
hyperplane of its direction space.  The index store builds it from one
of them only, its *canonical* pair: the pair whose parents span the
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

import time
from dataclasses import dataclass, field

from repro.boolfunc.function import BoolFunc
from repro.budget import Budget
from repro.core import gf2
from repro.core.pseudocube import Pseudocube
from repro.kernels import gf2mat
from repro.kernels.intern import BasisInterner
from repro.trie.index import StructureIndex
from repro.trie.partition_trie import PartitionTrie

__all__ = [
    "StepStats",
    "EpppResult",
    "GenerationBudgetExceeded",
    "generate_eppp",
    "make_store",
]


class GenerationBudgetExceeded(RuntimeError):
    """The pseudoproduct budget was exhausted (``on_limit="raise"``)."""


def make_store(backend: str):
    """Instantiate a grouping store: ``"index"`` or ``"trie"``."""
    if backend == "index":
        return StructureIndex()
    if backend == "trie":
        return PartitionTrie()
    raise ValueError(f"unknown store backend {backend!r}")


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


@dataclass
class EpppResult:
    """The EPPP candidate set plus per-step instrumentation."""

    n: int
    eppps: list[Pseudocube]
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
    per union row from inside the pairing loops: a blown deadline or a
    cancellation raises :class:`repro.errors.BudgetExceeded` /
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
        return _generate_fast(*args)
    if backend == "trie":
        return _generate_generic(*args)
    raise ValueError(f"unknown store backend {backend!r}")


# ----------------------------------------------------------------------
# Fast path: dict-of-dicts buckets, per-delta caching (index backend)
# ----------------------------------------------------------------------

#: One degree level: basis -> {anchor: None}.  Levels built by
#: `_fast_steps` are sorted by (basis, anchor); the heuristic's stores
#: keep insertion order.
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


def _generate_fast(
    func: BoolFunc,
    discard_equal: bool,
    factor_width: int | None,
    max_pseudoproducts: int | None,
    on_limit: str,
    budget: Budget | None = None,
) -> EpppResult:
    # The degree-0 basis is (); interning makes the bucket probes
    # identity-hits with one tuple per distinct basis.
    buckets: Buckets = {(): {p: None for p in sorted(func.care_set)}}
    return _fast_steps(
        func.n,
        buckets,
        EpppResult(func.n, []),
        0,
        len(buckets[()]),
        BasisInterner(),
        discard_equal,
        factor_width,
        max_pseudoproducts,
        on_limit,
        budget,
    )


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
) -> tuple[list[Pseudocube], int, int, int, bool]:
    """One union step: unify every same-structure pair of ``buckets``
    into ``target``, merging with whatever ``target`` already holds.

    Returns ``(retained, comparisons, generated, duplicates, overflow)``:
    the pseudoproducts of ``buckets`` that no union with at most their
    literal count covers (Definition 3), the pairs unified, the unions
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
    retained: list[Pseudocube] = []
    for basis, anchors in buckets.items():
        anchor_list = list(anchors)
        g = len(anchor_list)
        if g < 2:
            retained.extend(Pseudocube._unsafe(n, a, basis) for a in anchor_list)
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
        retained.extend(
            Pseudocube._unsafe(n, a, basis) for a in anchor_list if a not in covered
        )
    return retained, comparisons, generated, duplicates, False


def _fast_steps(
    n: int,
    buckets: Buckets,
    result: EpppResult,
    degree: int,
    total: int,
    interner: BasisInterner,
    discard_equal: bool,
    factor_width: int | None,
    max_pseudoproducts: int | None,
    on_limit: str,
    budget: Budget | None,
) -> EpppResult:
    """The scalar step loop, resumable from any complete (buckets,
    degree, total) state sorted by (basis, anchor) — both the plain
    fallback entry point and the hand-off target when a packed step
    would be too large to materialize as arrays."""
    # The raw union work per step is bounded as well as the distinct
    # pseudoproducts: an XOR-rich step makes 2^{k+1}-1 pairs per union.
    capped = max_pseudoproducts is not None
    comparison_cap = 8 * max_pseudoproducts if capped else None

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
            complete=True,
            max_generated=max_pseudoproducts - total if capped else None,
            max_comparisons=comparison_cap,
        )
        next_buckets = _sorted_level(next_buckets)
        if overflow:
            if on_limit == "raise":
                raise GenerationBudgetExceeded(
                    f"generated more than {max_pseudoproducts} pseudoproducts"
                )
            # Keep everything seen at this degree and below: sound
            # superset (every discarded pseudoproduct's coverer kept).
            retained = [
                Pseudocube._unsafe(n, a, basis)
                for level in (buckets, next_buckets)
                for basis, anchors in level.items()
                for a in anchors
            ]
            result.truncated = True
        result.eppps.extend(retained)
        result.steps.append(
            StepStats(
                degree=degree,
                pseudoproducts=size,
                groups=len(buckets),
                comparisons=comparisons,
                naive_comparisons=size * (size - 1) // 2,
                generated=generated,
                duplicates=duplicates,
                retained=size if overflow else len(retained),
                seconds=time.perf_counter() - t0,
            )
        )
        if overflow:
            return result
        total += generated
        buckets = next_buckets
        degree += 1
    return result


# ----------------------------------------------------------------------
# Packed path: whole-step array ops over the pair stream (kernels.gf2mat)
# ----------------------------------------------------------------------

# Above this many pairs in one step the packed path hands the remaining
# degrees to the scalar loop instead of materializing the pair arrays.
# A step peaks at about 100 bytes per pair (95-125 B measured on adr4,
# dist and mlp4 outputs: index, delta and row arrays of 8 B a pair plus
# temporaries), so about 1 GB at the cap.
_MAX_PACKED_PAIRS = 1 << 23

# Below this many pairs the scalar dict loop wins, so the tail degrees
# — and tiny functions outright — run scalar.  A packed step costs about
# 0.1 ms before its first pair (some fifty array calls, one sort and the
# state conversions), the scalar loop a few microseconds per pair: a
# lone degree-0 step breaks even near 40 pairs on a 2-core x86 host, and
# on the n=6 proxies every threshold from 0 to 96 times within noise of
# 24.  Tests monkeypatch this to 0 to force every step through the
# packed lanes.
_MIN_PACKED_PAIRS = 24


def _packed_to_buckets(anchors, sizes, rows, interner):
    """Packed step state → the scalar loop's bucket dicts, preserving
    bucket order and within-bucket anchor order exactly."""
    buckets: dict[tuple[int, ...], dict[int, None]] = {}
    anchor_list = anchors.tolist()
    row_list = rows.tolist()  # uniform full rank: no zero padding to strip
    intern = interner.intern
    start = 0
    for g, count in enumerate(sizes.tolist()):
        stop = start + count
        buckets[intern(tuple(row_list[g]))] = dict.fromkeys(anchor_list[start:stop])
        start = stop
    return buckets


def _generate_packed(
    func: BoolFunc,
    discard_equal: bool,
    factor_width: int | None,
    max_pseudoproducts: int | None,
    on_limit: str,
    budget: Budget | None = None,
) -> EpppResult:
    """`_generate_fast` with every step computed as packed array ops.

    Per-step state is columnar: ``anchors`` (one uint64 per pseudocube,
    grouped by bucket), ``sizes`` (bucket sizes), ``rows`` — one
    ``(groups, degree)`` uint64 matrix holding every bucket's RREF basis
    (uniform rank: every degree-``k`` pseudocube has ``k`` direction
    rows) — and ``lits``, each bucket's literal count.  Buckets are in
    basis order and anchors ascend within a bucket.  One step is:

    1. decode every pair of every group into item indices and row ends
       (``pair_rows``) and take each pair's delta ``Δ = a_i ^ a_j`` and
       its lowest set bit ``p``;
    2. classify each pair by bit tests on its parent rows, building no
       child basis.  In the child a parent row ``r`` holding ``p``
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
    4. sort the canonical pairs by ``(parent group, Δ, anchor)`` — the
       anchor is the parent with bit ``p`` clear.  Parent groups are in
       basis order, so this is (child basis, anchor) order, and the runs
       of equal ``(group, Δ)`` are the next level's buckets.

    Counters match the scalar lane: every pair is a comparison, the
    fitting canonical pairs are ``generated`` and the other fitting
    pairs ``duplicates``.

    Overflow replicates the scalar loop's row-granular check: the
    budget condition is evaluated at every row end of the pair stream
    and the step stops at the first hit, keeping the canonical children
    before it, sorted like a full level.  Budget ticks are batched (one
    ``tick(pairs)`` per step instead of one per row): cumulative
    accounting is identical and a packed step is far below any
    cancellation latency target.
    """
    np = gf2mat._np
    n = func.n
    points = sorted(func.care_set)
    interner = BasisInterner()
    result = EpppResult(n, [])
    degree = 0
    total = len(points)
    budget_left = None if max_pseudoproducts is None else max_pseudoproducts - total
    comparison_cap = 0 if max_pseudoproducts is None else 8 * max_pseudoproducts

    zero = np.uint64(0)
    one = np.uint64(1)
    anchors = np.array(points, dtype=np.uint64)
    sizes = np.array([len(points)], dtype=np.int64)
    rows = np.zeros((1, 0), dtype=np.uint64)
    # Literal count of each group's bases, carried across steps.
    lits = np.full(1, n, dtype=np.int64)

    # Every iteration either returns (no pairs / no union fits / overflow
    # / hand-off) or installs a non-empty next state of strictly higher
    # degree <= n, mirroring the scalar `while buckets` loop (which
    # always enters: the degree-0 state is one group even for an empty
    # care set).
    while True:
        t0 = time.perf_counter()
        m = int(anchors.size)
        num_groups = int(sizes.size)
        naive = m * (m - 1) // 2

        pair_total = int((sizes * (sizes - 1) // 2).sum())
        # An overflowing step stops at the first row end past the
        # comparison cap, and a row holds fewer than m pairs.
        stream_bound = (
            pair_total
            if budget_left is None
            else min(pair_total, comparison_cap + m)
        )
        # The sort key (group, Δ, anchor) packs into one uint64 only
        # while bits(groups) + 2n <= 64; wider steps run scalar.
        if (
            stream_bound > _MAX_PACKED_PAIRS
            or pair_total < _MIN_PACKED_PAIRS
            or pair_total == 0
            or (num_groups - 1).bit_length() + 2 * n > 64
        ):
            return _fast_steps(
                n,
                _packed_to_buckets(anchors, sizes, rows, interner),
                result,
                degree,
                total,
                interner,
                discard_equal,
                factor_width,
                max_pseudoproducts,
                on_limit,
                budget,
            )

        group, left, right, row_ends = gf2mat.pair_rows(
            sizes, None if budget_left is None else comparison_cap + 1
        )
        stream = int(left.size)
        if budget is not None:
            # One bulk tick per step, unless a tick cap would trip
            # inside it — then chunk at the scalar loop's granularity
            # (one row, <= 2^n ticks) so the overshoot stays bounded
            # the same way it is for the pairwise loop.
            if budget.max_ticks is None or (
                budget.ticks + stream <= budget.max_ticks
            ):
                budget.tick(stream)
            else:
                chunk = 1 << n
                for start in range(0, stream, chunk):
                    budget.tick(min(chunk, stream - start))

        # Anchors are zero on the parent pivots, hence so is the delta:
        # it is already reduced modulo the parent basis.
        delta = anchors.take(left) ^ anchors.take(right)
        pivot = delta & (zero - delta)
        # The child's rows: each parent row, XORed with the delta where
        # it holds the pivot bit, then the delta.  Sum their popcounts,
        # and under a reachable width bound keep each without its pivot
        # (a bound above the row count cannot be reached).
        weight = np.bitwise_count(delta).astype(np.int64)
        check_width = factor_width is not None and factor_width <= degree + 1
        factor_rows = [delta ^ pivot] if check_width else None
        for column in rows.T.copy():
            r = column.take(group)
            # The delta where r holds the pivot bit (-p covers every bit
            # of the delta), else 0.
            r ^= delta & (zero - (r & pivot))
            weight += np.bitwise_count(r)
            if check_width:
                factor_rows.append(r & (r - one))
        # Child literals are weight + n - 2(degree + 1): a union covers
        # its parents when that is at most (below) the parents' count.
        weight_cap = (lits + (2 * degree + 2 - n)).take(group)
        covers = weight <= weight_cap if discard_equal else weight < weight_cap
        if degree:
            top = rows[:, -1] & (zero - rows[:, -1])
            free = ~np.bitwise_or.reduce(rows, axis=1) & (zero - (top << one))
            canonical = (pivot & free.take(group)) != 0
        else:
            canonical = None  # a degree-1 union has one pair
        fits = None
        if check_width:
            fits = ~gf2mat.columns_reach(factor_rows, factor_width)
            covers &= fits
            canonical = fits if canonical is None else canonical & fits
        chosen = np.arange(stream) if canonical is None else canonical.nonzero()[0]
        generated = int(chosen.size)

        if budget_left is not None and (
            stream > comparison_cap or generated > budget_left
        ):
            # Overflow.  The scalar loop checks after each row and both
            # conditions are monotone in the stream position, so the
            # first row end where one holds is where it broke out; the
            # last row end always qualifies here.
            made = np.searchsorted(chosen, row_ends)
            trigger = (made > budget_left) | (row_ends > comparison_cap)
            hit = int(trigger.argmax())
            processed = int(row_ends[hit])
            if on_limit == "raise":
                raise GenerationBudgetExceeded(
                    f"generated more than {max_pseudoproducts} pseudoproducts"
                )
            chosen = chosen[: int(made[hit])]
            generated = int(chosen.size)
            inserted = processed if fits is None else int(
                np.count_nonzero(fits[:processed])
            )
            # Keep everything seen at this degree and below: sound
            # superset (every discarded pseudoproduct's coverer kept).
            result.eppps.extend(
                _materialize_packed(
                    n, anchors, np.arange(num_groups).repeat(sizes), rows, interner
                )
            )
            if generated:
                next_anchors, next_sizes, next_rows = _next_level(
                    n, anchors, rows, group, left, delta, pivot, chosen
                )
                result.eppps.extend(
                    _materialize_packed(
                        n,
                        next_anchors,
                        np.arange(next_sizes.size).repeat(next_sizes),
                        next_rows,
                        interner,
                    )
                )
            result.truncated = True
            result.steps.append(
                StepStats(
                    degree=degree,
                    pseudoproducts=m,
                    groups=num_groups,
                    comparisons=processed,
                    naive_comparisons=naive,
                    generated=generated,
                    duplicates=inserted - generated,
                    retained=m,
                    seconds=time.perf_counter() - t0,
                )
            )
            return result

        inserted = stream if fits is None else int(np.count_nonzero(fits))
        # Definition 3 retention: an item survives unless some union
        # covering it had no more literals.
        covered = np.zeros(m, dtype=bool)
        covered[left[covers]] = True
        covered[right[covers]] = True
        keep = (~covered).nonzero()[0]
        if keep.size:
            item_group = np.arange(num_groups).repeat(sizes)
            retained = _materialize_packed(
                n, anchors[keep], item_group[keep], rows, interner
            )
        else:
            retained = []

        result.eppps.extend(retained)
        result.steps.append(
            StepStats(
                degree=degree,
                pseudoproducts=m,
                groups=num_groups,
                comparisons=stream,
                naive_comparisons=naive,
                generated=generated,
                duplicates=inserted - generated,
                retained=len(retained),
                seconds=time.perf_counter() - t0,
            )
        )
        if not generated:
            return result  # every union was wider than factor_width
        anchors, sizes, rows = _next_level(
            n, anchors, rows, group, left, delta, pivot, chosen
        )
        lits = gf2mat.basis_literals(rows, n)
        total += generated
        if budget_left is not None:
            budget_left = max_pseudoproducts - total
        degree += 1


def _next_level(n, anchors, rows, group, left, delta, pivot, chosen):
    """The children of the canonical pairs at stream positions
    ``chosen`` as next-step ``(anchors, sizes, rows)``, sorted by
    (basis, anchor).

    A child's basis is its parent group's rows followed by its delta and
    its anchor is the parent with the delta's pivot bit clear.  One sort
    of the packed keys ``(group, Δ, anchor)`` orders them; each run of
    equal ``(group, Δ)`` is one bucket.
    """
    np = gf2mat._np
    shift = np.uint64(n)
    low = np.uint64((1 << n) - 1)
    d = delta[chosen]
    base = anchors[left[chosen]]
    key = (d << shift) | np.where((base & pivot[chosen]) != 0, base ^ d, base)
    if rows.shape[0] > 1:
        key |= group[chosen].astype(np.uint64) << (shift + shift)
    key.sort()
    head = key >> shift
    run_idx = np.flatnonzero(np.concatenate(([True], head[1:] != head[:-1])))
    head = head[run_idx]
    parents = rows[(head >> shift).astype(np.int64)]
    return (
        key & low,
        np.diff(run_idx, append=key.size),
        np.concatenate([parents, (head & low)[:, None]], axis=1),
    )


def _materialize_packed(n, anchors, groups, rows, interner):
    """Pseudocubes for (anchor, group) pairs in array order, unpacking
    each needed basis row once (interned for downstream identity hits)."""
    bases: dict[int, tuple[int, ...]] = {}
    out = []
    row_list = None
    intern = interner.intern
    unsafe = Pseudocube._unsafe
    for a, g in zip(anchors.tolist(), groups.tolist()):
        basis = bases.get(g)
        if basis is None:
            if row_list is None:
                row_list = rows.tolist()
            basis = intern(tuple(row_list[g]))
            bases[g] = basis
        out.append(unsafe(n, a, basis))
    return out


# ----------------------------------------------------------------------
# Generic path: any store exposing insert/groups/items (trie backend)
# ----------------------------------------------------------------------

def _generate_generic(
    func: BoolFunc,
    discard_equal: bool,
    factor_width: int | None,
    max_pseudoproducts: int | None,
    on_limit: str,
    budget: Budget | None = None,
) -> EpppResult:
    store = make_store("trie")
    for p in sorted(func.care_set):
        store.insert(Pseudocube.from_point(func.n, p))

    result = EpppResult(func.n, [])
    degree = 0
    total = len(store)
    budget_left = None if max_pseudoproducts is None else max_pseudoproducts - total
    comparison_cap = 0 if max_pseudoproducts is None else 8 * max_pseudoproducts
    while len(store):
        t0 = time.perf_counter()
        next_store = make_store("trie")
        covered: set[Pseudocube] = set()
        comparisons = 0
        duplicates = 0
        groups = 0
        size = len(store)
        overflow = False
        for group in store.groups(budget=budget):
            g = len(group)
            groups += 1
            if g < 2:
                continue
            parent_literals = group[0].num_literals
            for i in range(g - 1):
                if budget is not None:
                    budget.tick(g - 1 - i)
                gi = group[i]
                for j in range(i + 1, g):
                    gj = group[j]
                    union = gi.union(gj)
                    comparisons += 1
                    if (
                        factor_width is not None
                        and _basis_factor_width(union.n, union.basis) > factor_width
                    ):
                        continue
                    if not next_store.insert(union):
                        duplicates += 1
                    child_literals = union.num_literals
                    if child_literals < parent_literals or (
                        discard_equal and child_literals == parent_literals
                    ):
                        covered.add(gi)
                        covered.add(gj)
                if budget_left is not None and (
                    len(next_store) > budget_left or comparisons > comparison_cap
                ):
                    overflow = True
                    break
            if overflow:
                break
        if overflow:
            if on_limit == "raise":
                raise GenerationBudgetExceeded(
                    f"generated more than {max_pseudoproducts} pseudoproducts"
                )
            retained = [*store.items(), *next_store.items()]
            result.truncated = True
        else:
            retained = [pc for pc in store.items() if pc not in covered]
        result.eppps.extend(retained)
        result.steps.append(
            StepStats(
                degree=degree,
                pseudoproducts=size,
                groups=groups,
                comparisons=comparisons,
                naive_comparisons=size * (size - 1) // 2,
                generated=len(next_store),
                duplicates=duplicates,
                retained=size if overflow else len(retained),
                seconds=time.perf_counter() - t0,
            )
        )
        if overflow:
            return result
        total += len(next_store)
        if budget_left is not None:
            budget_left = max_pseudoproducts - total
        store = next_store
        degree += 1
    return result
