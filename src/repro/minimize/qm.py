"""Quine–McCluskey prime implicant generation (the SP baseline).

The paper's Tables 1 and 3 compare SPP forms against minimal SP forms,
and the heuristic of Section 3.4 is *seeded* with the SP prime
implicants ("the set of prime implicants of the SP minimization of F,
as this set is much faster to obtain than the set of prime
pseudoproducts").  This module provides both.

A cube is ``(values, mask)``: ``mask`` has a bit per *free* ('-')
position, ``values`` holds the fixed bits (zero on free positions).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from repro.boolfunc.function import BoolFunc
from repro.budget import Budget
from repro.core.bitvec import mask_of_width, popcount
from repro.core.pseudocube import Pseudocube

__all__ = ["Cube", "prime_implicants"]


@dataclass(frozen=True, slots=True)
class Cube:
    """A product term (cube) over ``B^n``."""

    values: int
    mask: int

    def __post_init__(self) -> None:
        if self.values & self.mask:
            raise ValueError("values must be zero on free positions")

    def covers(self, point: int) -> bool:
        return (point & ~self.mask) == self.values

    def points(self) -> Iterator[int]:
        """Enumerate the minterms of the cube."""
        free_bits = []
        m = self.mask
        while m:
            low = m & -m
            free_bits.append(low)
            m ^= low
        for combo in range(1 << len(free_bits)):
            p = self.values
            for j, b in enumerate(free_bits):
                if (combo >> j) & 1:
                    p |= b
            yield p

    def num_literals(self, n: int) -> int:
        return n - popcount(self.mask)

    def to_pseudocube(self, n: int) -> Pseudocube:
        """Cubes are pseudocubes whose non-canonical columns are constant."""
        return Pseudocube.from_cube(n, mask_of_width(n) & ~self.mask, self.values)

    def to_string(self, n: int) -> str:
        chars = []
        for i in range(n):
            if (self.mask >> i) & 1:
                chars.append("-")
            else:
                chars.append(str((self.values >> i) & 1))
        return "".join(chars)


def prime_implicants(func: BoolFunc, budget: Budget | None = None) -> list[Cube]:
    """All prime implicants of ``func`` (don't-cares participate in
    expansion, as in standard Quine–McCluskey).

    ``budget`` is ticked once per merge row, one unit per partner the
    row is compared with: the merge work grows about 4× per input on
    wide functions (3^n cubes for the all-dash function).
    """
    care = func.care_set
    if not care:
        return []
    current: set[Cube] = {Cube(p, 0) for p in care}
    primes: list[Cube] = []
    while current:
        combined: set[Cube] = set()
        merged: set[Cube] = set()
        # Group by mask and by popcount of values: only cubes with the
        # same free positions and Hamming-adjacent values can merge.
        groups: dict[tuple[int, int], list[Cube]] = {}
        for cube in current:
            groups.setdefault((cube.mask, popcount(cube.values)), []).append(cube)
        for (mask, ones), cubes in groups.items():
            partners = groups.get((mask, ones + 1), [])
            for a in cubes:
                if budget is not None:
                    budget.tick(len(partners))
                for b in partners:
                    diff = a.values ^ b.values
                    if popcount(diff) == 1:
                        combined.add(Cube(a.values & ~diff, mask | diff))
                        merged.add(a)
                        merged.add(b)
        primes.extend(cube for cube in current if cube not in merged)
        current = combined
    return primes
