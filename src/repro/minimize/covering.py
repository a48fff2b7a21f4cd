"""Unate set covering — step 3 of Algorithm 2 (and of SP minimization).

Minimal SP/SPP covers are solutions of the set covering problem
``⟨X, Y, R⟩`` of the paper: ``X`` are the on-set points, ``Y`` the prime
implicants / EPPPs, and the cost of a column is its literal count.

Rows are represented as bit positions of Python ints, so a column is a
single int mask and "does this selection cover everything" is one OR
chain.  Every solver first shrinks the matrix with the classical
unate-covering reductions (Quine–McCluskey tradition; see PAPERS.md on
computer codes for the QM method):

* **essential columns** — a row covered by exactly one column forces
  that column into every feasible cover;
* **row dominance** — a row whose covering-column set is a superset of
  another row's is covered for free once the smaller row is, so it is
  dropped;
* **column dominance** — a column whose row set (restricted to the live
  rows) is a subset of a no-more-expensive column's is dropped: any
  cover using it can swap in the dominator at no extra cost.

Iterating them to a fixpoint (:func:`reduce_problem`) leaves the
*cyclic core*, which :func:`split_components` cuts into connected
components that are solved independently; selections lift back to
original column indices, and :attr:`CoveringSolution.stats` reports
what the reduction did.  The solvers:

* :func:`solve_greedy` — the light reduction only (essential and empty
  columns: on EPPP matrices the columns are maximal and dominance almost
  never fires, so its O(columns·rows) passes would cost more than they
  save), then per component the ratio-greedy with reverse-delete and a
  1-removal improvement pass.  On EPPP matrices the light reduction
  itself almost always finds nothing, so the packed path proves that
  first (below) and runs it only when the proof fails.  The paper also
  used covering heuristics ("the numbers … are upper bounds for the
  minimal solution"), so this is the default and the faithful choice.
* :func:`solve_exact` — the full fixpoint, then per component a
  branch-and-bound that re-runs the same essential and dominance passes
  at every node (the classical *mincov* loop) under an independent-row
  lower bound.  A node budget makes it degrade into a heuristic (the
  result flags whether optimality was proved); ``seed`` reuses a known
  cover as a fallback upper bound.
* :func:`solve` — dispatch.  Its ``auto`` mode runs the exact
  per-component loop but searches only components that are small after
  reduction, and covers the rest greedily.

The light reduction finds essential columns with a transpose-free
once/twice accumulator: ``once`` ORs every live column's rows and
``twice`` collects the rows a column shares with the columns before it,
so ``once & ~twice`` is exactly the rows with a unique column.  The
exact path works on a per-row column transpose, built once for the
reduction and once per searched component, and runs the same essential
and dominance passes on both.

When NumPy is available and a problem has at least
``MIN_COLUMNS_FOR_VECTOR`` columns, the greedy path works on the
problem's packed :class:`repro.kernels.bitmat.BitMatrix`
(:meth:`CoveringProblem.packed`, packed once from the masks, or handed
over by the columnar coverage kernel, or derived from the base
problem's by the delta warm patch — those two give no masks at all,
and the greedy path unpacks only the ones it selects).  On it
:func:`solve_greedy` checks feasibility, proves the light reduction a
no-op (every column non-empty, and the same accumulator, with
``twice`` read off a prefix-OR accumulate along the columns, finds no
unique row) and proves the rows connected (a frontier closure from row
0), then greedy-covers the problem in place with a whole gain vector
per selection round instead of a Python heap.  A failed proof falls
back to :func:`reduce_problem` and :func:`split_components`.  The
Python-int reduction, component split and CELF heap remain the path
for smaller problems and the ``REPRO_NO_NUMPY=1`` reference; the two
paths are pinned to the same covers and reports, and the proofs charge
the budget the ticks of the reduction pass they skip.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from typing import Any, Generic, TypeVar

from repro.budget import Budget

__all__ = [
    "CoveringProblem",
    "CoveringSolution",
    "ReducedCore",
    "ReductionStats",
    "build_covering",
    "problem_from_masks",
    "reduce_problem",
    "take_payloads",
    "LazySequence",
    "split_components",
    "solve_greedy",
    "solve_exact",
    "solve",
]

T = TypeVar("T")

# Auto mode solves a component exactly when its (reduced) size is below
# these bounds — tuned against the cyclic core, not the raw matrix, so
# an instance whose core collapses is proved optimal even when the raw
# matrix looks hopeless.
AUTO_EXACT_MAX_ROWS = 96
AUTO_EXACT_MAX_COLUMNS = 2500
AUTO_NODE_LIMIT = 20_000

# Per-node column dominance is O(active columns × rows); above this
# many active columns a node runs only the cheap essential fixpoint.
NODE_DOMINANCE_MAX_COLUMNS = 768


class CoveringProblem(Generic[T]):
    """Rows 0..num_rows-1; column ``i`` covers ``column_masks[i]``.

    ``matrix`` is the problem's packed
    :class:`~repro.kernels.bitmat.BitMatrix` — the greedy path's working
    form, built once by :meth:`packed` (or handed over by its builder:
    the columnar coverage kernel and the delta warm patch) and never
    modified.  A problem handed a matrix may be given no masks
    (``column_masks=None``): they are then unpacked from the matrix on
    first use, by the consumers that work on Python ints — the
    reduction when a packed proof fails, the heap path, the
    branch-and-bound and the exact seed check.  The greedy fast path
    reads only the masks of the columns it selects.

    ``payloads`` may be any sequence; a :class:`LazySequence` (an
    :class:`~repro.minimize.eppp.EpppColumns`, or a
    :func:`take_payloads` view of one) builds an item only when a
    solution reads it, so a solve builds payloads for its selected
    columns alone, and compares with a list, or another lazy sequence,
    by value.  Equality compares rows, masks, costs and payloads, never
    the matrix (a cache of the masks).
    """

    __slots__ = ("num_rows", "_masks", "costs", "payloads", "matrix")

    def __init__(
        self,
        num_rows: int,
        column_masks: list[int] | None,
        costs: list[int],
        payloads: Sequence[T],
        matrix: Any = None,
    ) -> None:
        if column_masks is None and matrix is None:
            raise ValueError("a problem needs column masks or a packed matrix")
        count = len(column_masks) if column_masks is not None else matrix.num_columns
        if not (count == len(costs) == len(payloads)):
            raise ValueError("column arrays must have equal length")
        if costs and min(costs) <= 0:
            raise ValueError("costs must be positive")
        self.num_rows = num_rows
        self._masks = column_masks
        self.costs = costs
        self.payloads = payloads
        self.matrix = matrix

    @property
    def column_masks(self) -> list[int]:
        if self._masks is None:
            # Racing threads unpack equal lists; either store wins.
            self._masks = self.matrix.masks()
        return self._masks

    def packed(self):
        """The packed matrix, or None where the vector path does not
        apply (no numpy, or too few columns to beat the heap)."""
        from repro.kernels import bitmat  # repro.kernels imports this module

        if not bitmat.HAVE_NUMPY or self.num_columns < bitmat.MIN_COLUMNS_FOR_VECTOR:
            return None
        if self.matrix is None:
            # Racing threads build equal matrices; either store wins.
            self.matrix = bitmat.BitMatrix.from_masks(
                self.column_masks, self.costs, self.num_rows
            )
        return self.matrix

    @property
    def universe(self) -> int:
        return (1 << self.num_rows) - 1

    @property
    def num_columns(self) -> int:
        return len(self.costs)

    def is_feasible(self) -> bool:
        mask = 0
        for m in self.column_masks:
            mask |= m
        return mask == self.universe

    def __eq__(self, other) -> bool:
        if not isinstance(other, CoveringProblem):
            return NotImplemented
        return (
            self.num_rows == other.num_rows
            and self.costs == other.costs
            and self.column_masks == other.column_masks
            and list(self.payloads) == list(other.payloads)
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"CoveringProblem(rows={self.num_rows}, columns={self.num_columns})"


class LazySequence(Sequence):
    """A read-only sequence standing in for a list of payloads: equal,
    by value, to a list or another lazy sequence with the same items."""

    __slots__ = ()

    def __eq__(self, other) -> bool:
        if isinstance(other, (list, LazySequence)):
            return len(self) == len(other) and list(self) == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]


class _Taken(LazySequence):
    """``[base[i] for i in index]``, reading ``base`` only when an item
    is read."""

    __slots__ = ("base", "index")

    def __init__(self, base: Sequence, index: list[int]) -> None:
        self.base = base
        self.index = index

    def __len__(self) -> int:
        return len(self.index)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self.base[j] for j in self.index[i]]
        return self.base[self.index[i]]

    def __iter__(self):
        base = self.base
        if isinstance(base, list):
            return map(base.__getitem__, self.index)
        items = list(base)  # one pass over a lazy base, not one read per item
        return map(items.__getitem__, self.index)


def take_payloads(payloads: Sequence[T], index: Sequence[int]) -> Sequence[T]:
    """``[payloads[i] for i in index]``: a list for a list, else a lazy
    view that reads ``payloads`` only for the items a solution reads."""
    index = list(index)
    if isinstance(payloads, list):
        return [payloads[i] for i in index]
    if isinstance(payloads, _Taken):
        return _Taken(payloads.base, [payloads.index[i] for i in index])
    return _Taken(payloads, index)


@dataclass
class ReductionStats:
    """What the reduction fixpoint did to a covering matrix."""

    rows: int
    columns: int
    core_rows: int
    core_columns: int
    essential: int
    dominated_rows: int
    dominated_columns: int
    components: int
    passes: int
    dominance: bool

    def as_dict(self) -> dict[str, Any]:
        return {
            "rows": self.rows,
            "columns": self.columns,
            "core_rows": self.core_rows,
            "core_columns": self.core_columns,
            "essential": self.essential,
            "dominated_rows": self.dominated_rows,
            "dominated_columns": self.dominated_columns,
            "components": self.components,
            "passes": self.passes,
            "dominance": self.dominance,
        }


@dataclass
class CoveringSolution(Generic[T]):
    """A cover: selected column indices, their payloads and total cost.

    ``stats`` is the reduction report (rows/columns eliminated,
    components, cyclic-core size); it is ``None`` only for the empty
    problem, which no reduction ran on.
    """

    selected: list[int]
    cost: int
    optimal: bool
    payloads: list[T] = field(default_factory=list)
    stats: ReductionStats | None = None


@dataclass
class ReducedCore:
    """The cyclic core left by :func:`reduce_problem`.

    ``forced`` are original column indices every feasible cover must
    contain (essential columns, accumulated across fixpoint passes).
    ``row_ids``/``col_ids`` map core positions back to original row
    bits / column indices; ``masks`` are the surviving columns
    re-indexed into core row positions.
    """

    forced: list[int]
    row_ids: list[int]
    col_ids: list[int]
    masks: list[int]
    costs: list[int]
    stats: ReductionStats


def build_covering(
    rows: Sequence[int],
    candidates: Iterable[T],
    covered_rows_of,
    cost_of,
) -> CoveringProblem[T]:
    """Build a problem from domain objects.

    ``rows`` are arbitrary hashable row identifiers (points);
    ``covered_rows_of(candidate)`` yields the row identifiers a
    candidate covers (identifiers outside ``rows`` are ignored — e.g.
    don't-care points of a pseudoproduct); ``cost_of(candidate)`` is its
    positive integer cost.  Candidates covering no rows are dropped.
    """
    index = {row: i for i, row in enumerate(rows)}
    masks: list[int] = []
    costs: list[int] = []
    payloads: list[T] = []
    for cand in candidates:
        mask = 0
        for row in covered_rows_of(cand):
            pos = index.get(row)
            if pos is not None:
                mask |= 1 << pos
        if mask:
            masks.append(mask)
            costs.append(cost_of(cand))
            payloads.append(cand)
    return CoveringProblem(len(rows), masks, costs, payloads)


def problem_from_masks(
    num_rows: int,
    masks: Sequence[int],
    costs: Sequence[int],
    payloads: Sequence[T],
) -> CoveringProblem[T]:
    """Build a problem from precomputed row masks (kernel output),
    dropping zero-coverage columns like :func:`build_covering` does."""
    if 0 not in masks:
        return CoveringProblem(num_rows, list(masks), list(costs), list(payloads))
    keep = [i for i, mask in enumerate(masks) if mask]
    return CoveringProblem(
        num_rows,
        [masks[i] for i in keep],
        [costs[i] for i in keep],
        take_payloads(payloads, keep),
    )


# ---------------------------------------------------------------------------
# Solvers
# ---------------------------------------------------------------------------


def _empty_or_check(problem: CoveringProblem[T]) -> CoveringSolution[T] | None:
    """The empty problem's solution, None for any other feasible
    problem; an infeasible problem raises ``ValueError``."""
    if problem.num_rows == 0:
        return CoveringSolution([], 0, True, [])
    if not problem.is_feasible():
        raise ValueError("covering problem is infeasible")
    return None


def _finish(
    problem: CoveringProblem[T],
    selected: list[int],
    optimal: bool,
    stats: ReductionStats | None,
) -> CoveringSolution[T]:
    cost = sum(problem.costs[i] for i in selected)
    return CoveringSolution(
        selected,
        cost,
        optimal,
        [problem.payloads[i] for i in selected],
        stats=stats,
    )


def solve_greedy(
    problem: CoveringProblem[T], *, budget: Budget | None = None
) -> CoveringSolution[T]:
    """Greedy covering with local improvement.

    The light reduction (essential columns to fixpoint, empty columns)
    runs first and the greedy then covers each connected component of
    the core.  On a packed problem the reduction runs only when it
    cannot be proved a no-op on one component; the proof charges the
    budget and reports exactly what the reduction's one idle pass
    would have.  ``optimal`` is True only when the reduction solved the
    instance outright (essential columns alone form a cover — they are
    members of *every* feasible cover, so their cost is a lower bound
    met with equality).

    The greedy itself runs under two selection criteria (best
    rows-per-cost ratio, most new rows), applies reverse-delete
    redundancy elimination, then a bounded 1-removal improvement pass
    (drop a selected column, re-cover greedily, keep if cheaper), and
    returns the best of everything — the "some heuristics" of the
    paper's covering step.

    ``budget`` is ticked per column scan, so a blown deadline or a
    cancellation surfaces from inside the selection loop.
    """
    if problem.num_rows == 0:
        return CoveringSolution([], 0, True, [])
    bm = problem.packed()
    if not (problem.is_feasible() if bm is None else bm.is_feasible()):
        raise ValueError("covering problem is infeasible")
    if bm is not None and bm.light_reduction_is_noop() and bm.is_connected():
        # Proved: the light reduction's one pass would eliminate nothing
        # and leave one component, so the greedy covers the problem in
        # place.  The tick and the report are that pass's.
        if budget is not None:
            budget.tick(problem.num_columns)
        solution = _greedy_cover(problem, budget=budget)
        solution.stats = ReductionStats(
            rows=problem.num_rows,
            columns=problem.num_columns,
            core_rows=problem.num_rows,
            core_columns=problem.num_columns,
            essential=0,
            dominated_rows=0,
            dominated_columns=0,
            components=1,
            passes=1,
            dominance=False,
        )
        return solution
    core = reduce_problem(problem, budget=budget, dominance=False)
    stats = core.stats
    if not core.row_ids:
        return _finish(problem, list(core.forced), True, stats)
    comps = split_components(len(core.row_ids), core.masks)
    stats.components = len(comps)
    if len(comps) == 1 and not core.forced and len(core.col_ids) == problem.num_columns:
        # Nothing reduced: solve in place.
        solution = _greedy_cover(problem, budget=budget)
        solution.stats = stats
        return solution
    selected = list(core.forced)
    for comp in comps:
        sub = _component_problem(core, comp)
        selected.extend(_greedy_cover(sub, budget=budget).payloads)
    return _finish(problem, selected, False, stats)


def solve_exact(
    problem: CoveringProblem[T],
    node_limit: int = 200_000,
    *,
    budget: Budget | None = None,
    seed: list[int] | None = None,
) -> CoveringSolution[T]:
    """Exact covering: full reduction fixpoint, component split, then a
    branch-and-bound per component that re-runs the fixpoint at every
    node.

    ``optimal`` is True iff every component's search completed within
    the shared ``node_limit``; otherwise the best cover found (never
    worse than greedy, which seeds each component's incumbent) is
    returned with ``optimal=False``.  ``budget`` is ticked once per
    search node, so cancellation and deadlines cut the search short
    from inside the recursion.

    ``seed`` is an optional warm-start cover — column indices into
    ``problem`` known to be feasible (e.g. the previous solution in
    incremental re-minimization, the upper-bound reuse of Riener et
    al.).  It never steers the search itself: reduction may eliminate
    seed columns, and injecting a bound without a witness into a
    component would let pruning discard the optimum unsoundly.  It only
    acts as a fallback incumbent — when the search runs out of nodes
    *and* the seed is a strictly cheaper cover than the best one found,
    the seed is returned (still ``optimal=False``).  A proved result is
    therefore bit-identical with or without a seed, and a seed that
    does not cover the rows is ignored.
    """
    solution = _solve_components(problem, node_limit, budget, auto=False)
    if seed is not None and not solution.optimal:
        covered = 0
        for i in seed:
            covered |= problem.column_masks[i]
        if covered == problem.universe and sum(
            problem.costs[i] for i in seed
        ) < solution.cost:
            return _finish(problem, list(seed), False, solution.stats)
    return solution


def solve(
    problem: CoveringProblem[T],
    mode: str = "auto",
    *,
    budget: Budget | None = None,
    seed: list[int] | None = None,
) -> CoveringSolution[T]:
    """Dispatch: ``greedy``, ``exact``, or ``auto``.

    Auto reduces the matrix once, then picks exact or greedy *per
    component of the cyclic core* — a component is searched (under a
    shared ``AUTO_NODE_LIMIT``) only when its reduced size is within
    ``AUTO_EXACT_MAX_ROWS`` × ``AUTO_EXACT_MAX_COLUMNS``, so instances
    whose core collapses get proved optimal even when the raw matrix
    looks large (mirroring the paper's practice of exact covers on the
    small benchmarks, heuristics on the rest).

    ``seed`` (exact mode only) is a known-feasible warm-start cover
    used as a fallback incumbent when the node budget runs out.
    """
    if mode == "greedy":
        return solve_greedy(problem, budget=budget)
    if mode == "exact":
        return solve_exact(problem, budget=budget, seed=seed)
    if mode == "auto":
        return _solve_components(problem, AUTO_NODE_LIMIT, budget, auto=True)
    raise ValueError(f"unknown covering mode {mode!r}")


def _solve_components(
    problem: CoveringProblem[T],
    node_limit: int,
    budget: Budget | None,
    *,
    auto: bool,
) -> CoveringSolution[T]:
    """Full reduction, then branch-and-bound per core component from a
    greedy incumbent, the components sharing ``node_limit`` nodes.

    With ``auto`` a component too large after reduction, or met once
    the nodes are spent, keeps its greedy cover unsearched.
    """
    empty = _empty_or_check(problem)
    if empty is not None:
        return empty
    core = reduce_problem(problem, budget=budget, dominance=True)
    stats = core.stats
    if not core.row_ids:
        return _finish(problem, list(core.forced), True, stats)
    comps = split_components(len(core.row_ids), core.masks)
    stats.components = len(comps)
    selected = list(core.forced)
    proved = True
    nodes_left = node_limit
    for comp in comps:
        sub = _component_problem(core, comp)
        incumbent = _greedy_cover(sub, budget=budget)
        if auto and not (
            sub.num_rows <= AUTO_EXACT_MAX_ROWS
            and sub.num_columns <= AUTO_EXACT_MAX_COLUMNS
            and nodes_left > 0
        ):
            proved = False
            selected.extend(incumbent.payloads)
            continue
        chosen, comp_proved, used = _branch_and_bound(
            sub, incumbent.selected, nodes_left, budget
        )
        nodes_left = max(nodes_left - used, 0)
        proved = proved and comp_proved
        selected.extend(sub.payloads[i] for i in chosen)
    return _finish(problem, selected, proved, stats)


# ---------------------------------------------------------------------------
# Reductions: essential columns, row/column dominance, components
# ---------------------------------------------------------------------------


def _positions(mask: int) -> list[int]:
    """Set-bit positions of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        mask ^= low
        out.append(low.bit_length() - 1)
    return out


def _row_columns(masks: list[int], num_rows: int) -> list[int]:
    """The transpose: per row, the bitset of column indices covering it."""
    row_cols = [0] * num_rows
    for j, m in enumerate(masks):
        bit = 1 << j
        for r in _positions(m):
            row_cols[r] |= bit
    return row_cols


def _force_essentials(
    rows: int, cols: int, row_cols: list[int], masks: list[int]
) -> tuple[int, int, list[int]] | None:
    """One essential-column pass over the live ``rows`` × ``cols``:
    each row left with a single live column forces that column.

    Returns ``(rows, cols, forced)`` with the forced columns and the
    rows they cover removed, or None when a live row has no live
    column (the submatrix is infeasible).
    """
    forced = []
    m = rows
    while m:
        low = m & -m
        m ^= low
        if not (rows & low):
            continue  # covered by a column forced earlier this pass
        rc = row_cols[low.bit_length() - 1] & cols
        if rc == 0:
            return None
        if rc & (rc - 1) == 0:
            j = rc.bit_length() - 1
            forced.append(j)
            cols &= ~rc
            rows &= ~masks[j]
    return rows, cols, forced


def _drop_dominated(
    rows: int,
    cols: int,
    row_cols: list[int],
    masks: list[int],
    costs: list[int],
    budget: Budget | None = None,
) -> tuple[int, int, int, int]:
    """One row-dominance pass, then one column-dominance pass (which
    also drops columns left covering no live row).

    Returns ``(rows, cols, rows_dropped, cols_dropped)``.  ``budget``
    is ticked once per live column before the column pass.
    """
    # Row dominance: visit rows by increasing column count; a row whose
    # live column set contains a kept row's set is dominated.
    live = []
    m = rows
    while m:
        low = m & -m
        m ^= low
        live.append((low, row_cols[low.bit_length() - 1] & cols))
    live.sort(key=lambda t: t[1].bit_count())
    kept: list[int] = []  # column sets of the surviving rows
    rows_dropped = 0
    for bit, rc in live:
        if any(krc & ~rc == 0 for krc in kept):
            rows &= ~bit
            rows_dropped += 1
        else:
            kept.append(rc)

    # Column dominance on the surviving rows.
    order = _positions(cols)
    if budget is not None:
        budget.tick(max(len(order), 1))
    amask = {j: masks[j] & rows for j in order}
    pcount = {j: amask[j].bit_count() for j in order}
    cols_dropped = 0
    for j in order:
        mj = amask[j]
        if mj == 0:
            cols &= ~(1 << j)
            cols_dropped += 1
            continue
        # Columns covering every row of j: the intersection of the
        # per-row column sets over j's rows.
        dom = cols
        mm = mj
        while mm:
            low = mm & -mm
            mm ^= low
            dom &= row_cols[low.bit_length() - 1]
            if dom & (dom - 1) == 0:
                break  # only j itself can remain
        dom &= ~(1 << j)
        cj = costs[j]
        pj = pcount[j]
        dd = dom
        while dd:
            low = dd & -dd
            dd ^= low
            k = low.bit_length() - 1
            ck = costs[k]
            # Strictly better, or equal cost with strictly more
            # coverage, or a fully tied twin with a lower index
            # (exactly one member of a twin group survives).
            if ck < cj or (
                ck == cj and (pcount[k] > pj or (pcount[k] == pj and k < j))
            ):
                cols &= ~(1 << j)
                cols_dropped += 1
                break
    return rows, cols, rows_dropped, cols_dropped


def reduce_problem(
    problem: CoveringProblem[T],
    *,
    budget: Budget | None = None,
    dominance: bool = True,
) -> ReducedCore:
    """Run the reduction fixpoint and return the cyclic core.

    With ``dominance=False`` only the cheap passes run (essential
    columns and empty columns) — the greedy path's configuration.  The
    problem must be feasible (callers check); on the dominance path an
    infeasible matrix raises ``ValueError``.
    """
    masks = problem.column_masks
    costs = problem.costs
    nrows = problem.num_rows
    ncols = len(masks)
    active_rows = problem.universe
    active_cols = (1 << ncols) - 1
    forced: list[int] = []
    dominated_rows = dominated_cols = 0
    passes = 0

    row_cols: list[int] | None = None
    if dominance:
        # Built once; every pass restricts it with the live columns.
        row_cols = _row_columns(masks, nrows)
        if budget is not None:
            budget.tick(ncols)

    changed = True
    while changed and active_rows:
        changed = False
        passes += 1
        if budget is not None:
            budget.tick(max(active_cols.bit_count(), 1))

        if row_cols is not None:
            step = _force_essentials(active_rows, active_cols, row_cols, masks)
            if step is None:
                raise ValueError("covering problem is infeasible")
            active_rows, active_cols, picked = step
            if picked:
                forced.extend(picked)
                changed = True
        else:
            # Transpose-free detection: ``once`` accumulates rows seen at
            # least once, ``twice`` at least twice; their difference is
            # the rows with a unique covering column.
            once = twice = 0
            m = active_cols
            while m:
                low = m & -m
                m ^= low
                cm = masks[low.bit_length() - 1] & active_rows
                twice |= once & cm
                once |= cm
            unique = once & ~twice
            if unique:
                m = active_cols
                while m:
                    low = m & -m
                    m ^= low
                    j = low.bit_length() - 1
                    if masks[j] & unique & active_rows:
                        forced.append(j)
                        active_cols &= ~low
                        active_rows &= ~masks[j]
                        changed = True

        if not active_rows:
            break

        if row_cols is not None:
            active_rows, active_cols, rows_out, cols_out = _drop_dominated(
                active_rows, active_cols, row_cols, masks, costs, budget
            )
            if rows_out or cols_out:
                dominated_rows += rows_out
                dominated_cols += cols_out
                changed = True
        else:
            # Light path: still drop columns with no remaining coverage
            # so components and greedy never scan them.
            m = active_cols
            while m:
                low = m & -m
                m ^= low
                if masks[low.bit_length() - 1] & active_rows == 0:
                    active_cols &= ~low
                    dominated_cols += 1

    if active_rows == problem.universe and not forced and not dominated_cols:
        # Nothing eliminated: the core IS the problem — skip the per-bit
        # recompression entirely (this is the common case on EPPP
        # matrices, whose columns are maximal, and it keeps the light
        # reduction out of the greedy hot path's budget).
        row_ids, col_ids = list(range(nrows)), list(range(ncols))
        core_masks, core_costs = list(masks), list(costs)
    else:
        # Build the core in a compressed row space.
        row_ids = _positions(active_rows)
        pos_of = {r: i for i, r in enumerate(row_ids)}
        identity_rows = active_rows == problem.universe
        col_ids, core_masks, core_costs = [], [], []
        for j in _positions(active_cols):
            cm = masks[j] & active_rows
            if cm == 0:
                continue
            if identity_rows:
                packed = cm
            else:
                packed = 0
                for r in _positions(cm):
                    packed |= 1 << pos_of[r]
            col_ids.append(j)
            core_masks.append(packed)
            core_costs.append(costs[j])
    stats = ReductionStats(
        rows=nrows,
        columns=ncols,
        core_rows=len(row_ids),
        core_columns=len(col_ids),
        essential=len(forced),
        dominated_rows=dominated_rows,
        dominated_columns=dominated_cols,
        components=1 if row_ids else 0,
        passes=passes,
        dominance=dominance,
    )
    return ReducedCore(forced, row_ids, col_ids, core_masks, core_costs, stats)


def split_components(num_rows: int, masks: list[int]) -> list[int]:
    """Connected components of a core as row bit-masks.

    Two rows are connected when some column covers both; components are
    returned sorted by their lowest row position, and together they
    partition ``range(num_rows)`` exactly (rows touched by no column
    would be infeasible and cannot occur in a core).
    """
    comps: list[int] = []
    for m in masks:
        if m == 0:
            continue
        merged = m
        keep = []
        for c in comps:
            if c & merged:
                merged |= c
            else:
                keep.append(c)
        keep.append(merged)
        comps = keep
    comps.sort(key=lambda c: c & -c)
    return comps


def _component_problem(core: ReducedCore, comp: int) -> CoveringProblem[int]:
    """A core component as its own problem.

    Payloads are *original* column indices, so solutions lift without a
    remap step.
    """
    local_of = {r: i for i, r in enumerate(_positions(comp))}
    masks: list[int] = []
    costs: list[int] = []
    payloads: list[int] = []
    for i, cm in enumerate(core.masks):
        if cm & comp == 0:
            continue
        packed = 0
        for r in _positions(cm):
            packed |= 1 << local_of[r]
        masks.append(packed)
        costs.append(core.costs[i])
        payloads.append(core.col_ids[i])
    return CoveringProblem(len(local_of), masks, costs, payloads)


# ---------------------------------------------------------------------------
# Branch-and-bound
# ---------------------------------------------------------------------------


def _branch_and_bound(
    problem: CoveringProblem[int],
    incumbent: list[int],
    node_limit: int,
    budget: Budget | None,
) -> tuple[list[int], bool, int]:
    """Branch-and-bound on one component.

    Returns ``(selected_local_columns, proved, nodes_used)``.  Each
    node re-runs the reduction fixpoint on its subproblem (essential
    columns always; row/column dominance while the active column count
    stays under ``NODE_DOMINANCE_MAX_COLUMNS``), computes the
    independent-row lower bound with per-row columns pre-sorted by cost
    (cheapest usable column found by early exit; blocked rows skipped
    before any scan), and branches on the hardest row.
    """
    masks = problem.column_masks
    costs = problem.costs
    row_cols = _row_columns(masks, problem.num_rows)
    row_cols_sorted = [
        sorted(_positions(rc), key=lambda j: (costs[j], -masks[j].bit_count(), j))
        for rc in row_cols
    ]

    best_cost = sum(costs[i] for i in incumbent)
    best_sel = list(incumbent)
    nodes = 0
    proved = True
    trail: list[int] = []

    def lower_bound(uncovered: int, active: int) -> int:
        """Independent-row bound: rows whose candidate columns are
        pairwise disjoint; each adds its cheapest column's cost."""
        bound = 0
        blocked = 0
        m = uncovered
        while m:
            low = m & -m
            m ^= low
            if low & blocked:
                continue
            r = low.bit_length() - 1
            cheapest = None
            for j in row_cols_sorted[r]:
                if active >> j & 1:
                    cheapest = costs[j]
                    break
            if cheapest is None:
                return 1 << 60  # infeasible branch
            bound += cheapest
            union = 0
            rc = row_cols[r] & active
            while rc:
                lw = rc & -rc
                rc ^= lw
                union |= masks[lw.bit_length() - 1]
            blocked |= union
        return bound

    def search(uncovered: int, active: int, cost: int) -> None:
        nonlocal nodes, proved, best_cost, best_sel
        nodes += 1
        if budget is not None:
            budget.tick()
        if nodes > node_limit:
            proved = False
            return
        depth = len(trail)
        try:
            # The reduction fixpoint of reduce_problem, on this node.
            run_dominance = active.bit_count() <= NODE_DOMINANCE_MAX_COLUMNS
            while True:
                step = _force_essentials(uncovered, active, row_cols, masks)
                if step is None:
                    return  # some row lost all columns: dead branch
                uncovered, active, forced = step
                trail.extend(forced)
                cost += sum(costs[j] for j in forced)
                if cost >= best_cost:
                    return
                if uncovered == 0:
                    best_cost = cost
                    best_sel = list(trail)
                    return
                changed = bool(forced)
                if run_dominance:
                    uncovered, active, rows_out, cols_out = _drop_dominated(
                        uncovered, active, row_cols, masks, costs
                    )
                    changed = changed or rows_out > 0 or cols_out > 0
                if not changed:
                    break
            if cost + lower_bound(uncovered, active) >= best_cost:
                return
            # Branch on the hardest row (fewest usable columns).
            branch_rc = 0
            branch_n = 1 << 60
            m = uncovered
            while m:
                low = m & -m
                m ^= low
                rc = row_cols[low.bit_length() - 1] & active
                n = rc.bit_count()
                if n < branch_n:
                    branch_rc = rc
                    branch_n = n
                    if n == 2:
                        break
            options = sorted(
                _positions(branch_rc),
                key=lambda j: (costs[j], -(masks[j] & uncovered).bit_count(), j),
            )
            for j in options:
                trail.append(j)
                search(uncovered & ~masks[j], active & ~(1 << j), cost + costs[j])
                trail.pop()
                active &= ~(1 << j)  # tried: exclude from later branches
                if not proved:
                    return
        finally:
            del trail[depth:]

    search(problem.universe, (1 << problem.num_columns) - 1, 0)
    return best_sel, proved, nodes


# ---------------------------------------------------------------------------
# Greedy
# ---------------------------------------------------------------------------


def _greedy_cover(
    problem: CoveringProblem[T], *, budget: Budget | None = None
) -> CoveringSolution[T]:
    """The two-strategy greedy + improvement pass on one (component)
    problem with at least one row."""
    costs = problem.costs
    best: list[int] | None = None
    best_cost = 0
    for strategy in ("ratio", "gain"):
        selected = _greedy_pass(problem, strategy, forbidden=-1, budget=budget)
        # The improvement pass re-runs greedy once per selected column;
        # bound the extra work on very large candidate sets.
        if problem.num_columns * max(len(selected), 1) <= 5_000_000:
            selected = _improve(problem, selected, strategy, budget=budget)
        cost = sum(costs[i] for i in selected)
        if best is None or cost < best_cost:
            best, best_cost = selected, cost
    assert best is not None
    return _finish(problem, best, False, None)


def _greedy_pass(
    problem: CoveringProblem[T],
    strategy: str,
    forbidden: int,
    seed: list[int] | None = None,
    budget: Budget | None = None,
) -> list[int]:
    """One greedy cover; ``forbidden`` column is skipped, ``seed``
    columns are pre-selected.

    Two implementations, selected by :meth:`CoveringProblem.packed` and
    pinned bit-for-bit equivalent by ``tests/minimize/test_lazy_greedy.py``
    and ``tests/minimize/test_covering.py``:

    * vectorized — gains for *all* columns in one packed-uint64
      ``bitwise_count`` per selection round (numpy, large column
      counts); only the selected columns' masks are unpacked, for the
      reverse-delete;
    * lazy (CELF-style) heap — columns live in a max-heap keyed by
      their last-computed selection key.  Because gains only shrink as
      the cover grows (submodularity), a stale key is an upper bound —
      so the popped column's key is recomputed and the column is
      selected outright if it still beats the next heap entry,
      otherwise pushed back with its fresh key.  Heap order is
      ``(negated key, column index)``, matching the eager scan's
      strictly-greater comparison that kept the lowest index among key
      ties.
    """
    costs = problem.costs
    universe = problem.universe
    selected = list(seed) if seed else []
    bm = problem.packed()
    if bm is not None:
        from repro.kernels.bitmat import select_greedy

        covered = bm.union(selected)
        if not bm.covers(covered):
            if budget is not None:
                budget.tick(problem.num_columns)
            selected.extend(select_greedy(bm, strategy, forbidden, covered, budget=budget))
        _drop_redundant(selected, dict(zip(selected, bm.masks(selected))), costs, universe)
        return selected
    masks = problem.column_masks
    covered = 0
    for i in selected:
        covered |= masks[i]
    if covered != universe:
        if budget is not None:
            budget.tick(max(problem.num_columns, 1))
        _heap_select(problem, strategy, forbidden, covered, selected, budget)
    _drop_redundant(selected, masks, costs, universe)
    return selected


def _heap_select(
    problem: CoveringProblem[T],
    strategy: str,
    forbidden: int,
    covered: int,
    selected: list[int],
    budget: Budget | None,
) -> None:
    """The CELF heap selection loop; appends to ``selected`` in place."""
    masks = problem.column_masks
    costs = problem.costs
    universe = problem.universe
    ratio = strategy == "ratio"
    heap: list[tuple[tuple[float, int], int]] = []
    for i in range(problem.num_columns):
        if i == forbidden:
            continue
        gain = (masks[i] & ~covered).bit_count()
        if gain == 0:
            continue
        if ratio:
            neg_key = (-(gain / costs[i]), -gain)
        else:
            neg_key = (-float(gain), costs[i])
        heap.append((neg_key, i))
    heapq.heapify(heap)
    while covered != universe:
        if budget is not None:
            budget.tick()
        if not heap:
            raise ValueError("covering problem is infeasible")
        stale_key, i = heapq.heappop(heap)
        gain = (masks[i] & ~covered).bit_count()
        if gain == 0:
            continue  # gains never recover; drop the column for good
        if ratio:
            neg_key = (-(gain / costs[i]), -gain)
        else:
            neg_key = (-float(gain), costs[i])
        if neg_key == stale_key or not heap or (neg_key, i) <= heap[0]:
            covered |= masks[i]
            selected.append(i)
        else:
            heapq.heappush(heap, (neg_key, i))


def _improve(
    problem: CoveringProblem[T],
    selected: list[int],
    strategy: str,
    budget: Budget | None = None,
) -> list[int]:
    """1-removal local search: drop each chosen column in turn and
    re-cover the hole greedily; keep strict improvements.  Two rounds
    bound the work while catching the common greedy missteps."""
    costs = problem.costs
    for _ in range(2):
        improved = False
        current_cost = sum(costs[i] for i in selected)
        for victim in sorted(selected, key=lambda i: -costs[i]):
            remaining = [i for i in selected if i != victim]
            try:
                candidate = _greedy_pass(
                    problem, strategy, forbidden=victim, seed=remaining,
                    budget=budget,
                )
            except ValueError:
                continue  # victim was the only cover for some row
            cost = sum(costs[i] for i in candidate)
            if cost < current_cost:
                selected = candidate
                current_cost = cost
                improved = True
        if not improved:
            break
    return selected


def _drop_redundant(
    selected: list[int],
    masks: Sequence[int] | Mapping[int, int],
    costs: Sequence[int],
    universe: int,
) -> None:
    """Reverse-delete: drop columns whose rows are covered by the rest,
    trying the most expensive first.  ``masks`` maps at least the
    selected column indices to their masks.

    One pass with prefix/suffix OR accumulators: when victim ``i`` (in
    most-expensive-first order) is considered, the rest of the current
    selection is exactly (survivors so far) | (not-yet-considered), so
    ``kept_or | suffix[i + 1]`` replaces the O(k) rescan per victim —
    bit-for-bit the same drops as the quadratic version.
    """
    if not selected:
        return
    order = sorted(selected, key=lambda i: -costs[i])
    k = len(order)
    suffix = [0] * (k + 1)
    for i in range(k - 1, -1, -1):
        suffix[i] = suffix[i + 1] | masks[order[i]]
    kept_or = 0
    dropped: set[int] = set()
    for i, col in enumerate(order):
        if kept_or | suffix[i + 1] == universe:
            dropped.add(col)
        else:
            kept_or |= masks[col]
    if dropped:
        selected[:] = [i for i in selected if i not in dropped]
