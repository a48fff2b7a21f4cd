"""EPPP set construction — steps 1 and 2 of Algorithm 2.

Starting from the degree-0 pseudoproducts (the single points of the
function), each step unifies all pairs of same-structure pseudoproducts
of degree ``k`` into pseudoproducts of degree ``k+1`` (Theorem 1
guarantees every such pair unifies, so no comparison is wasted), and
retains a degree-``k`` pseudoproduct unless some union covering it has
no more literals (Definition 3's *extended prime pseudoproducts*).

The same-structure grouping is delegated to a pluggable *store*:

* ``"index"`` — hash map keyed by the direction basis (the fast
  default).  This backend additionally exploits that within a group all
  pairs with the same anchor difference ``delta`` produce unions with
  the same direction space: basis insertion and literal counting are
  cached per ``delta``, and the new anchor is a single conditional XOR.
  When :mod:`repro.kernels.gf2mat` is available the whole step runs as
  packed matrix ops (see ``_generate_packed``); the scalar loop is the
  pinned bit-identical fallback (``REPRO_NO_NUMPY=1`` forces it).
* ``"trie"`` — :class:`repro.trie.PartitionTrie`, the paper's data
  structure node for node.

Both produce identical groups, hence identical EPPP sets; the ablation
benchmark measures their constant factors.

A *factor-width bound* ``B`` (``factor_width``) turns the same step into
the bounded family: a union whose CEX has an EXOR factor of more than
``B`` literals counts as a comparison but is neither kept nor allowed to
retire its parents, so the search walks exactly the ``B``-bounded
pseudoproduct lattice.  ``B = 1`` is Quine–McCluskey (an SP form),
``B = 2`` the 2-SPP forms of :mod:`repro.minimize.bounded`, and
``B >= n`` is Algorithm 2 unchanged.

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

#: One degree level: basis -> {anchor: None}, both in insertion order.
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


def _generate_fast(
    func: BoolFunc,
    discard_equal: bool,
    factor_width: int | None,
    max_pseudoproducts: int | None,
    on_limit: str,
    budget: Budget | None = None,
) -> EpppResult:
    # The degree-0 basis is (); equal child bases arrive from
    # independent insert_vector calls, and interning makes the bucket
    # probes identity-hits with one tuple per distinct basis.
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
    the width filter and literal counting run once per delta, and the
    new anchor is one conditional XOR.
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
        # delta -> (child basis, pivot bit, covers parents?), or () when
        # the union is wider than factor_width.
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
                        info = (
                            interner.intern(child_basis),
                            delta & -delta,
                            child_literals < parent_literals
                            or (discard_equal and child_literals == parent_literals),
                        )
                    delta_cache[delta] = info
                comparisons += 1
                if not info:
                    continue
                child_basis, pivot_bit, covers = info
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
    """The scalar step loop, resumable from any (buckets, degree, total)
    state — both the plain fallback entry point and the hand-off target
    when a packed step would be too large to materialize as arrays."""
    # XOR-rich groups regenerate the same union 2^{k+1}-1 times; those
    # duplicates do not count toward the distinct-pseudoproduct budget,
    # so bound the raw union work as well (per step).
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
# Packed path: whole-step batched GF(2) matrix ops (kernels.gf2mat)
# ----------------------------------------------------------------------

# Above this many pairs in one step the packed path hands the remaining
# degrees to the scalar loop instead of materializing the pair arrays
# (~50 MB at the cap; also keeps every dedup key within 63 bits).
_MAX_PACKED_PAIRS = 1 << 23

# Below this many pairs the fixed cost of a packed step (~40 vector
# dispatches plus two sorts) loses to the scalar dict loop, so the tail
# degrees — and tiny functions outright — run scalar.  Tests monkeypatch
# this to 0 to force every step through the packed lanes.
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
    """`_generate_fast` with every step computed as packed matrix ops.

    Per-step state is columnar: ``anchors`` (one uint64 per pseudocube,
    grouped by bucket in bucket order), ``sizes`` (bucket sizes), and
    ``rows`` — one ``(groups, degree)`` uint64 matrix holding every
    bucket's RREF basis (uniform rank: every degree-``k`` pseudocube has
    ``k`` direction rows).  One step is then:

    1. decode all pair indices of all groups at once (``pair_split``);
    2. batch-insert every pair's delta into its parent basis
       (``insert_reduced_batch``), then pack each child basis into one
       uint64 and dedup — one pass subsuming both the scalar path's
       per-group ``delta_cache`` and its cross-group basis unification;
    3. dedup ``(child basis, anchor)`` items by first occurrence in the
       pair stream — the packed form of ``next_buckets`` insertion;
    4. rebuild next-step state ordered by first appearance, which is
       exactly the scalar dict insertion order, so candidate order —
       and therefore covering tie-breaks, SPP forms and costs — is
       bit-identical to the fallback.

    The width filter runs once per distinct child basis
    (``basis_factor_width`` beside ``basis_literals``; at degree 0 the
    width follows from the delta's popcount).  Too-wide pairs stay in
    the stream — they are comparisons and sit on row ends — but drop out
    of step 3 and of the retention mask.

    Overflow replicates the scalar loop's row-granular check: the
    budget condition is evaluated at every row-end position of the pair
    stream and the stream truncated at the first hit, which this path
    proves equal to breaking out of the nested loops.  Budget ticks are
    batched (one ``tick(pairs)`` per step instead of one per row):
    cumulative accounting is identical and a packed step is far below
    any cancellation latency target.
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

    shift = np.uint64(n)
    mask = np.uint64((1 << n) - 1)
    anchors = np.array(points, dtype=np.uint64)
    sizes = np.array([len(points)], dtype=np.int64)
    rows = np.zeros((1, 0), dtype=np.uint64)
    # Literal count of each group's bases, carried across steps (a
    # step's child literals are the next step's parent literals).
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
        # An overflowing step can never proceed past the first row-end
        # at or beyond the comparison cap, and row length is < m.
        stream_limit = (
            pair_total
            if budget_left is None
            else min(pair_total, comparison_cap + m + 1)
        )
        if (
            stream_limit > _MAX_PACKED_PAIRS
            or pair_total < _MIN_PACKED_PAIRS
            or pair_total == 0
            or m.bit_length() + n > 62
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

        gidx, pi, pj = gf2mat.pair_split(
            sizes, None if budget_left is None else stream_limit
        )
        stream = int(gidx.size)
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

        if num_groups == 1:
            left, right = pi, pj
        else:
            starts = sizes.cumsum() - sizes
            left = starts[gidx] + pi
            right = starts[gidx] + pj
        ai = anchors[left]
        aj = anchors[right]
        # Anchors are zero on the parent pivots, hence so is the delta:
        # it is already reduced modulo the parent basis.
        delta = ai ^ aj

        if degree == 0:
            # Degree-0 lane: a pair's child basis IS its delta (one RREF
            # row), so basis identity needs no batched insert and no row
            # dedup — the delta doubles as the child key.  Literals:
            # child popcount-1 + (n-1) vs parent n, so a union covers
            # its parents iff popcount <= 2 (== 1 under strict fewer).
            weight = np.bitwise_count(delta)
            covers_pair = (weight <= 2) if discard_equal else (weight == 1)
            # A one-row basis has 2-literal factors iff the delta has a
            # second bit, so only B = 1 filters at this degree.
            fits = weight == 1 if factor_width == 1 else None
            child_key = delta
            uniq_rows = None
            key2_max = 1 << (2 * n)
        else:
            # Child bases for the whole pair stream in one batched
            # insert (anchors are zero on parent pivots, so each delta
            # is already reduced), then child-basis identity by packing
            # every child basis into one uint64 — its sort order IS the
            # lexicographic row order, so a 1-D dedup replaces both the
            # scalar path's per-group delta_cache and the cross-group
            # basis unification in one pass.
            child_rows_s = gf2mat.insert_reduced_batch(rows[gidx], delta)
            rplus = child_rows_s.shape[1]
            if rplus * n <= 64:
                acc = child_rows_s[:, 0].copy()
                for c in range(1, rplus):
                    acc <<= shift
                    acc |= child_rows_s[:, c]
                maxacc = 1 << (rplus * n)
                if maxacc <= gf2mat._DENSE_MAXVAL and maxacc <= max(
                    4096, stream << 5
                ):
                    # Narrow packed bases: dedup by dense scatter table,
                    # no sort (rank order == sorted acc order, matching
                    # the sort branch bit for bit).
                    rep, child_of_s = gf2mat.dense_first_inverse(acc, maxacc)
                else:
                    order_s = gf2mat._argsort_keys(acc, maxacc)[0]
                    sa = acc[order_s]
                    rs = np.empty(sa.size, dtype=bool)
                    rs[0] = True
                    np.not_equal(sa[1:], sa[:-1], out=rs[1:])
                    rep = order_s[rs.nonzero()[0]]
                    child_of_s = np.empty(sa.size, dtype=np.int64)
                    child_of_s[order_s] = rs.cumsum() - 1
                uniq_rows = child_rows_s[rep]
            else:
                uniq_rows, rep, child_of_s = np.unique(
                    child_rows_s, axis=0, return_index=True, return_inverse=True
                )
                child_of_s = child_of_s.reshape(-1)
            lits_of_child = gf2mat.basis_literals(uniq_rows, n)
            child_lits = lits_of_child[child_of_s]
            if discard_equal:
                covers_pair = child_lits <= lits[gidx]
            else:
                covers_pair = child_lits < lits[gidx]
            fits = None
            if factor_width is not None:
                width = gf2mat.basis_factor_width(uniq_rows, n)
                fits = (width <= factor_width)[child_of_s]
            child_key = child_of_s.astype(np.uint64)
            key2_max = uniq_rows.shape[0] << n

        pivot = delta & (np.uint64(0) - delta)
        # New anchor: ai ^ delta when ai holds the delta's pivot — which
        # is aj; one conditional select instead of an XOR.
        anchor = np.where((ai & pivot) != 0, aj, ai)
        key2 = (child_key << shift) | anchor
        if fits is None:
            uk2, first2 = gf2mat.unique_sorted_first(key2, key2_max)
        else:
            # Too-wide unions neither enter the next step nor retire
            # their parents; first occurrences keep stream positions.
            covers_pair &= fits
            fit_pos = fits.nonzero()[0]
            uk2, first2 = gf2mat.unique_sorted_first(key2[fit_pos], key2_max)
            first2 = fit_pos[first2]
        generated = int(first2.size)

        def build_next(uk2_sel, first2_sel):
            # Items of uk2_sel are key2-sorted, so equal child keys form
            # contiguous runs; a run is one next-step bucket.  Scalar dict
            # insertion orders are reproduced exactly: buckets by first
            # appearance of any of their items in the pair stream, items
            # within a bucket by their own first appearance.
            child_sorted = uk2_sel >> shift
            nitems = int(uk2_sel.size)
            run_start = np.empty(nitems, dtype=bool)
            run_start[0] = True
            np.not_equal(child_sorted[1:], child_sorted[:-1], out=run_start[1:])
            run_idx = run_start.nonzero()[0]
            bucket_first = np.minimum.reduceat(first2_sel, run_idx)
            # bucket_first values are distinct (a bucket's earliest item
            # position belongs to it alone), so no stable sort needed.
            appearance = bucket_first.argsort()
            item_first = bucket_first[run_start.cumsum() - 1]
            # Sort items by (bucket first appearance, own first
            # occurrence): both are distinct stream positions < stream,
            # so the pair order fuses into one integer key — much
            # cheaper than np.lexsort's two stable passes.
            order = (item_first * stream + first2_sel).argsort()
            bucket_child = child_sorted[run_idx][appearance]
            if uniq_rows is None:
                new_rows = bucket_child[:, None].copy()
            else:
                new_rows = uniq_rows[bucket_child.astype(np.int64)]
            # Run sizes without np.diff (its wrapper dominates here).
            run_sizes = np.empty(run_idx.size, dtype=np.int64)
            np.subtract(run_idx[1:], run_idx[:-1], out=run_sizes[:-1])
            run_sizes[-1] = nitems - int(run_idx[-1])
            return (
                (uk2_sel & mask)[order],
                run_sizes[appearance],
                new_rows,
                bucket_child,
            )

        if budget_left is not None and (
            stream > comparison_cap or generated > budget_left
        ):
            # Overflow.  The scalar loop checks after each row; row-end
            # pairs are exactly those with j == group_size - 1 and both
            # conditions are monotone in the stream position, so the
            # first qualifying row-end is where it broke out — and one
            # always exists here (the stream either ends on a row-end
            # or was pre-truncated past the comparison cap).
            is_first = np.zeros(stream, dtype=bool)
            is_first[first2] = True
            trigger = (pj == sizes[gidx] - 1) & (
                (np.cumsum(is_first) > budget_left)
                | (np.arange(1, stream + 1) > comparison_cap)
            )
            processed = int(np.flatnonzero(trigger)[0]) + 1
            if on_limit == "raise":
                raise GenerationBudgetExceeded(
                    f"generated more than {max_pseudoproducts} pseudoproducts"
                )
            # A key first occurring before the truncation point is still
            # a first occurrence after it, so the truncated next state
            # is a subset selection of the full-stream dedup.
            kept = first2 < processed
            generated = int(np.count_nonzero(kept))
            inserted = processed if fits is None else int(
                np.count_nonzero(fits[:processed])
            )
            # Keep everything seen at this degree and below: sound
            # superset (every discarded pseudoproduct's coverer kept).
            result.eppps.extend(
                _materialize_packed(
                    n,
                    anchors,
                    np.repeat(np.arange(num_groups), sizes),
                    rows,
                    interner,
                )
            )
            if generated:
                next_anchors, next_sizes, next_rows, _ = build_next(
                    uk2[kept], first2[kept]
                )
                result.eppps.extend(
                    _materialize_packed(
                        n,
                        next_anchors,
                        np.repeat(np.arange(int(next_sizes.size)), next_sizes),
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

        inserted = stream if fits is None else int(fit_pos.size)
        if generated:
            next_anchors, next_sizes, next_rows, bucket_child = build_next(
                uk2, first2
            )
            if degree == 0:
                # Child basis is a single delta row: popcount - 1 + (n - 1).
                next_lits = np.bitwise_count(bucket_child).astype(np.int64) + (n - 2)
            else:
                next_lits = lits_of_child[bucket_child.astype(np.int64)]

        # Definition 3 retention: an item survives unless some union
        # covering it had no more literals.
        covered = np.zeros(m, dtype=bool)
        covered[left[covers_pair]] = True
        covered[right[covers_pair]] = True
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
        total += generated
        if budget_left is not None:
            budget_left = max_pseudoproducts - total
        anchors, sizes, rows, lits = next_anchors, next_sizes, next_rows, next_lits
        degree += 1


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
