"""Structure-grouped coverage kernels.

Covering problems represent each candidate as an int mask over the row
list (bit ``i`` set iff the candidate covers ``rows[i]``).  The legacy
construction enumerated every candidate's ``2^m`` points through a
generator and probed a dict per point; this module replaces it with a
**structure-grouped** pass, exactly the Theorem 1 grouping one level
down: candidates are bucketed by direction basis, and each group's span
geometry (the XOR combinations of its basis vectors) is computed once
and shared by every member.

Per-group mask construction is specialised by degree:

* ``m <= 4`` — the span's XOR offsets are precomputed per group and the
  per-candidate mask is a single unrolled ``|``-chain of dict probes
  (no generator frames, no per-point loop machinery; this is where the
  measured 2–3× over the legacy path comes from, because real EPPP sets
  are dominated by degree 2–4 candidates);
* ``m >= 5`` — the span offset list is materialised by doubling
  (``span += [s ^ b for s in span]``) and shared across the group.

Degree-0 groups collapse to one dict probe per candidate.  Points
outside the row set (don't-cares) simply miss the dict and contribute
nothing, matching the legacy semantics.

The packed generator's EPPP set arrives as columns
(:class:`~repro.minimize.eppp.EpppColumns`), and :func:`build_problem`
builds its problem's packed matrix straight from them
(:func:`_columnar_problem`): the same span geometry as arrays, no
``Pseudocube`` and no Python-int mask.  The grouped pass stays the
reference it is pinned to, and serves every other caller.

Cubes (the SP side) get a genuinely bit-parallel path: the row list is
transposed once into per-variable bitboards and each cube's mask is an
AND-chain of literal boards — ``O(fixed literals)`` big-int operations
per cube instead of ``2^free`` point probes.

Every kernel takes the cooperative :class:`~repro.budget.Budget` and
ticks it once per group batch (one tick unit per candidate), so
cancellation and deadlines keep firing inside covering construction.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.budget import Budget
from repro.core.pseudocube import Pseudocube
from repro.kernels import bitmat
from repro.minimize.covering import CoveringProblem, problem_from_masks, take_payloads
from repro.minimize.cost import literal_cost
from repro.minimize.qm import Cube

__all__ = [
    "coverage_masks",
    "cube_coverage_masks",
    "build_problem",
    "build_cube_problem",
]


def _masks_and_costs(
    rows: Sequence[int],
    candidates: Sequence[Pseudocube],
    cost_of,
    budget: Budget | None,
) -> tuple[list[int], list[int]]:
    """The shared structure-grouped pass.

    Returns per-candidate ``(masks, costs)`` in candidate order.  When
    ``cost_of`` is None or :func:`~repro.minimize.cost.literal_cost`,
    costs come from the basis-literal formula inlined once per group
    (the cost of a pseudocube's CEX depends on its direction basis
    alone); any other callable is invoked per candidate.
    """
    ncand = len(candidates)
    masks = [0] * ncand
    costs = [0] * ncand
    if not rows or not ncand:
        return masks, costs
    point_bit = {p: 1 << pos for pos, p in enumerate(rows)}
    g = point_bit.get
    fast_cost = cost_of is None or cost_of is literal_cost
    groups: dict[tuple[int, ...], list[int]] = {}
    groups_get = groups.get
    for idx, pc in enumerate(candidates):
        b = pc.basis
        grp = groups_get(b)
        if grp is None:
            groups[b] = [idx]
        else:
            grp.append(idx)
    cands = candidates
    n = cands[0].n
    bit_count = int.bit_count
    for basis, idxs in groups.items():
        if budget is not None:
            budget.tick(len(idxs))
        m = len(basis)
        if fast_cost:
            gcost = n - m
            for b in basis:
                gcost += bit_count(b) - 1
            if gcost < 1:
                gcost = 1
        if m == 0:
            for idx in idxs:
                pc = cands[idx]
                masks[idx] = g(pc.anchor, 0)
                costs[idx] = gcost if fast_cost else cost_of(pc)
        elif m == 1:
            b0 = basis[0]
            for idx in idxs:
                pc = cands[idx]
                a = pc.anchor
                masks[idx] = g(a, 0) | g(a ^ b0, 0)
                costs[idx] = gcost if fast_cost else cost_of(pc)
        elif m == 2:
            b0, b1 = basis
            c3 = b0 ^ b1
            for idx in idxs:
                pc = cands[idx]
                a = pc.anchor
                masks[idx] = g(a, 0) | g(a ^ b0, 0) | g(a ^ b1, 0) | g(a ^ c3, 0)
                costs[idx] = gcost if fast_cost else cost_of(pc)
        elif m == 3:
            b0, b1, b2 = basis
            c3 = b0 ^ b1
            c5 = b0 ^ b2
            c6 = b1 ^ b2
            c7 = c3 ^ b2
            for idx in idxs:
                pc = cands[idx]
                a = pc.anchor
                masks[idx] = (
                    g(a, 0) | g(a ^ b0, 0) | g(a ^ b1, 0) | g(a ^ c3, 0)
                    | g(a ^ b2, 0) | g(a ^ c5, 0) | g(a ^ c6, 0) | g(a ^ c7, 0)
                )
                costs[idx] = gcost if fast_cost else cost_of(pc)
        elif m == 4:
            b0, b1, b2, b3 = basis
            c3 = b0 ^ b1
            c5 = b0 ^ b2
            c6 = b1 ^ b2
            c7 = c3 ^ b2
            c9 = b0 ^ b3
            c10 = b1 ^ b3
            c11 = c3 ^ b3
            c12 = b2 ^ b3
            c13 = c5 ^ b3
            c14 = c6 ^ b3
            c15 = c7 ^ b3
            for idx in idxs:
                pc = cands[idx]
                a = pc.anchor
                masks[idx] = (
                    g(a, 0) | g(a ^ b0, 0) | g(a ^ b1, 0) | g(a ^ c3, 0)
                    | g(a ^ b2, 0) | g(a ^ c5, 0) | g(a ^ c6, 0) | g(a ^ c7, 0)
                    | g(a ^ b3, 0) | g(a ^ c9, 0) | g(a ^ c10, 0) | g(a ^ c11, 0)
                    | g(a ^ c12, 0) | g(a ^ c13, 0) | g(a ^ c14, 0) | g(a ^ c15, 0)
                )
                costs[idx] = gcost if fast_cost else cost_of(pc)
        else:
            span = [0]
            for b in basis:
                span += [s ^ b for s in span]
            for idx in idxs:
                pc = cands[idx]
                a = pc.anchor
                acc = 0
                for s in span:
                    acc |= g(a ^ s, 0)
                masks[idx] = acc
                costs[idx] = gcost if fast_cost else cost_of(pc)
    return masks, costs


def coverage_masks(
    rows: Sequence[int],
    candidates: Sequence[Pseudocube],
    *,
    budget: Budget | None = None,
) -> list[int]:
    """Covering-row masks for pseudocube ``candidates`` over ``rows``.

    ``masks[i]`` has bit ``j`` set iff ``rows[j] in candidates[i]``.
    Rows the candidate does not contain — and candidate points outside
    ``rows`` (e.g. don't-cares) — contribute nothing.
    """
    masks, _ = _masks_and_costs(rows, candidates, None, budget)
    return masks


def build_problem(
    rows: Sequence[int],
    candidates: Sequence[Pseudocube],
    *,
    cost_of=literal_cost,
    budget: Budget | None = None,
) -> CoveringProblem[Pseudocube]:
    """A :class:`CoveringProblem` over ``rows`` with pseudocube columns.

    Produces exactly what ``build_covering(rows, candidates,
    covered_rows_of=points, cost_of=cost_of)`` produced — same column
    order, same dropped zero-coverage candidates.

    Candidates held as columns (a packed generation's
    :class:`~repro.minimize.eppp.EpppColumns`) with literal costs take
    the columnar kernel, :func:`_columnar_problem`, when numpy is
    available and its row tables fit ``_DENSE_TABLE_WORDS``: the
    problem gets its packed matrix straight from the columns, no
    Python-int masks, and its payloads stay lazy, so the solve builds
    pseudocubes for its selected columns only.  Any other candidates,
    or ``REPRO_NO_NUMPY=1``, take the grouped Python-int pass, the
    pinned reference.
    """
    from repro.minimize.eppp import EpppColumns  # eppp imports this package

    if (
        isinstance(candidates, EpppColumns)
        and bitmat.HAVE_NUMPY
        and cost_of in (None, literal_cost)
        and max((len(rows) + 63) // 64, 1) << candidates.n <= _DENSE_TABLE_WORDS
    ):
        return _columnar_problem(rows, candidates, budget)
    if not isinstance(candidates, (list, tuple)):
        candidates = list(candidates)  # one pass over a lazy sequence
    masks, costs = _masks_and_costs(rows, candidates, cost_of, budget)
    return problem_from_masks(len(rows), masks, costs, candidates)


# Candidate points one chunk of the columnar build spans (about 2^16
# uint32 points), however large a level is.
_BUILD_CHUNK_POINTS = 1 << 16

# Widest row lookup table the columnar build allocates, in uint64
# words: one table of ``2^n`` entries per 64-row word.  Every function
# the package ships stays far below it (n <= 9: at most 4,096 words);
# wider inputs take the grouped Python-int pass.
_DENSE_TABLE_WORDS = 1 << 18


def _columnar_problem(rows, columns, budget):
    """:func:`build_problem` on columns, word-major from the start.

    A pseudocube's points are its anchor XOR the span of its basis
    (DESIGN.md §1), so a chunk of items (grouped by basis) doubles its
    groups' rows into their span offsets once and gives its points as
    one ``anchors[:, None] ^ offsets`` array; a chunk holds at most
    ``_BUILD_CHUNK_POINTS`` points, or one item's, however large the
    level.  Each 64-row word then looks the points up in its dense
    ``2^n`` table of row bits and OR-reduces them into the columns'
    word, one word at a time: a chunk costs one pass over its points
    per word and holds one word's lookups.
    Costs are the groups' literal counts (at least 1, as
    :func:`~repro.minimize.cost.literal_cost`), and the zero-coverage
    drop is one column mask.  The budget is ticked once per candidate,
    one chunk at a time, as the scalar pass ticks once per candidate.
    """
    np = bitmat._np
    num_rows = len(rows)
    total = len(columns)
    if not num_rows or not total:
        return CoveringProblem(num_rows, [], [], [])
    words = (num_rows + 63) // 64
    positions = np.arange(num_rows, dtype=np.int64)
    tables = np.zeros((words, 1 << columns.n), dtype=np.uint64)
    tables[positions >> 6, np.asarray(rows, dtype=np.int64)] = np.left_shift(
        np.uint64(1), (positions & 63).astype(np.uint64)
    )
    matrix = np.empty((words, total), dtype=np.uint64)
    costs = np.empty(total, dtype=np.int64)
    base = 0
    for anchors, sizes, basis_rows, lits in columns.levels:
        count = int(anchors.size)
        degree = basis_rows.shape[1]
        group_of = np.arange(sizes.size).repeat(sizes)
        costs[base : base + count] = np.maximum(lits, 1).repeat(sizes)
        step = max(_BUILD_CHUNK_POINTS >> degree, 1)
        for start in range(0, count, step):
            stop = min(start + step, count)
            if budget is not None:
                budget.tick(stop - start)
            # The span offsets of the chunk's groups (a run of at most
            # `step` groups), by doubling: offsets ^ row, per row.
            first = int(group_of[start])
            group_rows = basis_rows[first : int(group_of[stop - 1]) + 1]
            offsets = np.zeros((group_rows.shape[0], 1), dtype=np.uint32)
            for c in range(degree):
                offsets = np.concatenate(
                    [offsets, offsets ^ group_rows[:, c : c + 1]], axis=1
                )
            points = anchors[start:stop, None] ^ offsets[group_of[start:stop] - first]
            for w, table in enumerate(tables):
                matrix[w, base + start : base + stop] = np.bitwise_or.reduce(
                    table.take(points), axis=1
                )
        base += count
    payloads = columns
    nonzero = matrix.any(axis=0)
    if not nonzero.all():
        kept = np.flatnonzero(nonzero)
        matrix = np.ascontiguousarray(matrix[:, kept])
        costs = costs[kept]
        payloads = take_payloads(columns, kept.tolist())
    packed = bitmat.BitMatrix(matrix, costs, num_rows)
    return CoveringProblem(num_rows, None, costs.tolist(), payloads, matrix=packed)


def _row_boards(rows: Sequence[int], n: int) -> list[int]:
    """Transpose the row list: ``boards[v]`` is the bitboard of row
    positions whose point has variable ``v`` set."""
    boards = [0] * n
    for pos, p in enumerate(rows):
        bit = 1 << pos
        while p:
            low = p & -p
            boards[low.bit_length() - 1] |= bit
            p ^= low
    return boards


def cube_coverage_masks(
    rows: Sequence[int],
    cubes: Sequence[Cube],
    n: int,
    *,
    budget: Budget | None = None,
) -> list[int]:
    """Covering-row masks for QM ``cubes``: one AND-chain of literal
    bitboards per cube — ``O(fixed literals)`` big-int ops instead of
    ``2^free`` point probes."""
    ncubes = len(cubes)
    masks = [0] * ncubes
    if not rows or not ncubes:
        return masks
    boards = _row_boards(rows, n)
    universe = (1 << len(rows)) - 1
    inv = [universe ^ b for b in boards]
    for idx, cube in enumerate(cubes):
        if budget is not None:
            budget.tick()
        acc = universe
        values = cube.values
        fixed = ((1 << n) - 1) & ~cube.mask
        while fixed and acc:
            low = fixed & -fixed
            fixed ^= low
            v = low.bit_length() - 1
            acc &= boards[v] if values & low else inv[v]
        masks[idx] = acc
    return masks


def build_cube_problem(
    rows: Sequence[int],
    cubes: Sequence[Cube],
    n: int,
    *,
    cost_of,
    budget: Budget | None = None,
) -> CoveringProblem[Cube]:
    """A :class:`CoveringProblem` with cube columns (the SP baseline),
    column-order compatible with the legacy per-point build."""
    masks = cube_coverage_masks(rows, cubes, n, budget=budget)
    return problem_from_masks(len(rows), masks, [cost_of(c) for c in cubes], cubes)
