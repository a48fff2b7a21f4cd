"""Seeded random-function families for the fuzz harness.

Each family stresses a different corner of the pipeline:

* ``dense`` — on-probability ~1/2; large covering tables, many EPPP
  candidates, exercises the covering reductions and branch-and-bound.
* ``sparse`` — a handful of on-points; degenerate tables where a
  single pseudocube often suffices, exercises the trivial paths.
* ``arith-like`` — parity / carry / majority style functions with
  real EXOR structure, where SPP forms should beat SP decisively
  (the paper's motivating class).
* ``dc-heavy`` — large don't-care sets; exercises dc exploitation in
  generation and covering, and the dc edge cases of the metamorphic
  checks.
* ``near-dup`` — moderate density with a guaranteed non-empty dc set;
  shaped so care-preserving on/dc toggles exist, which is what the
  ``delta-warm`` check needs to exercise the incremental warm path.

Everything is driven by a caller-supplied :class:`random.Random` so a
seed fully determines the corpus.
"""

from __future__ import annotations

import random

from repro.boolfunc.function import BoolFunc

__all__ = ["FAMILIES", "FAMILY_WEIGHTS", "draw_function"]


def _dense(rng: random.Random, n: int) -> BoolFunc:
    space = 1 << n
    on = frozenset(p for p in range(space) if rng.random() < 0.5)
    if not on:
        on = frozenset({rng.randrange(space)})
    return BoolFunc(n, on)


def _sparse(rng: random.Random, n: int) -> BoolFunc:
    space = 1 << n
    k = rng.randint(1, max(2, space // 8))
    on = frozenset(rng.randrange(space) for _ in range(k))
    return BoolFunc(n, on or frozenset({0}))


def _arith_like(rng: random.Random, n: int) -> BoolFunc:
    """Parity-, carry- and majority-flavoured structured functions."""
    mask = rng.randrange(1, 1 << n)
    flavour = rng.randrange(3)
    if flavour == 0:
        # Parity of a random subset of inputs, optionally AND-gated on
        # one more variable — pure EXOR structure.
        gate = 1 << rng.randrange(n)
        fn = lambda p: ((p & mask).bit_count() & 1) and (p & gate or gate == mask)  # noqa: E731
        if rng.random() < 0.5:
            fn = lambda p: (p & mask).bit_count() & 1  # noqa: E731
    elif flavour == 1:
        # Carry-out of adding two halves of the input word.
        half = max(1, n // 2)
        lo_mask = (1 << half) - 1
        fn = lambda p: ((p & lo_mask) + (p >> half)) >> half & 1  # noqa: E731
    else:
        # Majority over the masked bits (threshold at half).
        width = mask.bit_count()
        fn = lambda p: (p & mask).bit_count() * 2 > width  # noqa: E731
    func = BoolFunc.from_lambda(n, fn)
    if not func.on_set:
        return BoolFunc(n, frozenset({rng.randrange(1 << n)}))
    return func


def _dc_heavy(rng: random.Random, n: int) -> BoolFunc:
    space = 1 << n
    on: set[int] = set()
    dc: set[int] = set()
    for p in range(space):
        r = rng.random()
        if r < 0.25:
            on.add(p)
        elif r < 0.6:
            dc.add(p)
    if not on:
        on = {rng.randrange(space)}
        dc -= on
    return BoolFunc(n, frozenset(on), frozenset(dc))


def _near_dup(rng: random.Random, n: int) -> BoolFunc:
    space = 1 << n
    on: set[int] = set()
    dc: set[int] = set()
    for p in range(space):
        r = rng.random()
        if r < 0.35:
            on.add(p)
        elif r < 0.50:
            dc.add(p)
    if not on:
        on = {rng.randrange(space)}
        dc -= on
    if not dc:
        # The delta-warm check toggles on<->dc inside the care set, so
        # draws with some dc mass make both toggle directions reachable.
        pool = sorted(set(range(space)) - on)
        if pool:
            dc = {rng.choice(pool)}
    return BoolFunc(n, frozenset(on), frozenset(dc - on))


FAMILIES = {
    "dense": _dense,
    "sparse": _sparse,
    "arith-like": _arith_like,
    "dc-heavy": _dc_heavy,
    "near-dup": _near_dup,
}

FAMILY_WEIGHTS = {
    "dense": 0.20,
    "sparse": 0.25,
    "arith-like": 0.20,
    "dc-heavy": 0.20,
    "near-dup": 0.15,
}


def draw_function(
    rng: random.Random,
    *,
    n_min: int = 3,
    n_max: int = 6,
    families: list[str] | None = None,
) -> tuple[str, BoolFunc]:
    """Draw ``(family_name, func)`` with ``n`` uniform in the range."""
    names = list(families) if families else list(FAMILIES)
    unknown = [f for f in names if f not in FAMILIES]
    if unknown:
        raise ValueError(f"unknown fuzz families: {', '.join(unknown)}")
    weights = [FAMILY_WEIGHTS.get(f, 0.25) for f in names]
    family = rng.choices(names, weights=weights, k=1)[0]
    n = rng.randint(n_min, n_max)
    return family, FAMILIES[family](rng, n)
