"""Boolean functions as point sets of ``B^n``.

The paper treats Boolean functions as sets of points; a
:class:`BoolFunc` is an (on-set, dc-set) pair over ``B^n`` —
*incompletely specified* functions are first-class because the ESPRESSO
benchmark PLAs carry don't-care information, and the minimizers can
exploit it (a pseudoproduct may cover dc-points; only on-points must be
covered).

:class:`MultiBoolFunc` bundles the outputs of a multi-output benchmark;
following the paper, "the different outputs of each function have been
minimized separately" — the minimizers take a single :class:`BoolFunc`.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from functools import cached_property

__all__ = ["BoolFunc", "MultiBoolFunc"]


@dataclass(frozen=True)
class BoolFunc:
    """A single-output, possibly incompletely specified Boolean function."""

    n: int
    on_set: frozenset[int]
    dc_set: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        if self.n <= 0:
            raise ValueError("n must be positive")
        # Checked by shifting, not against 1 << n: a huge n (a PLA's
        # ``.i`` header) must not cost a huge integer.
        for points, kind in ((self.on_set, "on"), (self.dc_set, "dc")):
            if points and (min(points) < 0 or max(points) >> self.n):
                raise ValueError(f"{kind}-set point outside B^n")
        if self.on_set & self.dc_set:
            raise ValueError("on-set and dc-set overlap")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_on_set(cls, n: int, on: Iterable[int], dc: Iterable[int] = ()) -> "BoolFunc":
        return cls(n, frozenset(on), frozenset(dc))

    @classmethod
    def from_lambda(cls, n: int, fn: Callable[[int], object]) -> "BoolFunc":
        """Build a completely specified function by evaluating ``fn`` on
        every point (``fn`` returns a truthy value for on-points)."""
        return cls(n, frozenset(p for p in range(1 << n) if fn(p)))

    @classmethod
    def from_truth_table(cls, bits: str) -> "BoolFunc":
        """Truth table as a string of ``0``/``1``/``-`` with the point
        ``p`` at position ``p`` (so ``bits[0]`` is ``f(0…0)``)."""
        size = len(bits)
        n = size.bit_length() - 1
        if size == 0 or (1 << n) != size:
            raise ValueError("truth table length must be a power of two")
        on = frozenset(i for i, b in enumerate(bits) if b == "1")
        dc = frozenset(i for i, b in enumerate(bits) if b == "-")
        if len(on) + len(dc) + bits.count("0") != size:
            raise ValueError("truth table may only contain 0, 1, -")
        return cls(n, on, dc)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @cached_property
    def off_set(self) -> frozenset[int]:
        size = 1 << self.n
        return frozenset(
            p for p in range(size) if p not in self.on_set and p not in self.dc_set
        )

    @property
    def care_set(self) -> frozenset[int]:
        """Points where a cover is *allowed*: on-set ∪ dc-set."""
        return self.on_set | self.dc_set

    def evaluate(self, point: int) -> int | None:
        """1 / 0 / None (don't care)."""
        if point in self.on_set:
            return 1
        if point in self.dc_set:
            return None
        return 0

    def __call__(self, point: int) -> int | None:
        return self.evaluate(point)

    @property
    def is_completely_specified(self) -> bool:
        return not self.dc_set

    @property
    def is_constant_zero(self) -> bool:
        return not self.on_set

    def __len__(self) -> int:
        return len(self.on_set)

    # ------------------------------------------------------------------
    # Algebra (pointwise; don't-cares propagate pessimistically)
    # ------------------------------------------------------------------

    def _check_compatible(self, other: "BoolFunc") -> None:
        if self.n != other.n:
            raise ValueError("functions over different spaces")

    def __invert__(self) -> "BoolFunc":
        return BoolFunc(self.n, self.off_set, self.dc_set)

    def __and__(self, other: "BoolFunc") -> "BoolFunc":
        self._check_compatible(other)
        on = self.on_set & other.on_set
        dc = (self.care_set & other.care_set) - on - (self.off_set | other.off_set)
        return BoolFunc(self.n, on, dc)

    def __or__(self, other: "BoolFunc") -> "BoolFunc":
        self._check_compatible(other)
        on = self.on_set | other.on_set
        dc = (self.dc_set | other.dc_set) - on
        return BoolFunc(self.n, on, dc)

    def __xor__(self, other: "BoolFunc") -> "BoolFunc":
        self._check_compatible(other)
        if self.dc_set or other.dc_set:
            dc = self.dc_set | other.dc_set
            on = frozenset(
                p
                for p in (self.care_set | other.care_set) - dc
                if (p in self.on_set) != (p in other.on_set)
            )
            return BoolFunc(self.n, on, dc)
        on = self.on_set ^ other.on_set
        return BoolFunc(self.n, on)

    def cofactor(self, variable: int, value: int) -> "BoolFunc":
        """Shannon cofactor: restrict ``x_variable`` to ``value``; the
        result still ranges over ``B^n`` (the variable becomes
        redundant), keeping point encodings stable."""
        if not 0 <= variable < self.n:
            raise ValueError("variable index out of range")
        bit = 1 << variable
        want = bit if value else 0

        def restrict(points: frozenset[int]) -> frozenset[int]:
            kept = {p for p in points if (p & bit) == want}
            return frozenset(q for p in kept for q in (p, p ^ bit))

        return BoolFunc(self.n, restrict(self.on_set), restrict(self.dc_set) - restrict(self.on_set))


@dataclass(frozen=True)
class MultiBoolFunc:
    """A multi-output function: shared inputs, one BoolFunc per output."""

    n: int
    outputs: tuple[BoolFunc, ...]
    name: str = ""
    output_names: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        if any(f.n != self.n for f in self.outputs):
            raise ValueError("output over wrong input space")
        if self.output_names and len(self.output_names) != len(self.outputs):
            raise ValueError("output_names length mismatch")

    @property
    def num_outputs(self) -> int:
        return len(self.outputs)

    def __getitem__(self, i: int) -> BoolFunc:
        return self.outputs[i]

    def __iter__(self):
        return iter(self.outputs)

    @classmethod
    def from_lambda(
        cls, n: int, num_outputs: int, fn: Callable[[int], int], name: str = ""
    ) -> "MultiBoolFunc":
        """Build from ``fn: point -> output word`` (bit ``o`` of the word
        is output ``o``)."""
        on_sets: list[set[int]] = [set() for _ in range(num_outputs)]
        for p in range(1 << n):
            word = fn(p)
            for o in range(num_outputs):
                if (word >> o) & 1:
                    on_sets[o].add(p)
        outputs = tuple(BoolFunc(n, frozenset(s)) for s in on_sets)
        return cls(n, outputs, name=name)
