"""Pseudocubes — affine subspaces of GF(2)^n.

A *pseudocube of degree m* (Section 2 of the paper) is a set of ``2^m``
points of ``B^n`` whose matrix is canonical up to a row permutation.
Algebraically this is exactly a coset of an ``m``-dimensional linear
subspace of GF(2)^n, and that is the representation used here:

* ``basis``  — RREF basis of the *direction space* (see
  :mod:`repro.core.gf2`); the pivot variables are the paper's
  **canonical variables**;
* ``anchor`` — the unique member point whose canonical variables are all
  zero.  Sorting the points as binary numbers with ``x_0`` most
  significant, the anchor is row 0 of the paper's canonical matrix.

The pair ``(basis, anchor)`` is a canonical form: two pseudocubes are
equal as point sets iff their representations are equal, so
``Pseudocube`` is hashable and cheap to deduplicate.

Theorem 1 of the paper — the union of two pseudocubes is a pseudocube
iff they have the same *structure* — translates to "iff they have the
same direction space", i.e. equal ``basis`` tuples (see
:mod:`repro.core.structure` for the proof obligations tested).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from repro.core import gf2
from repro.core.bitvec import bits_of, mask_of_width, popcount

__all__ = ["Pseudocube", "NotAPseudocubeError"]


class NotAPseudocubeError(ValueError):
    """Raised when a point set is not a pseudocube (Section 2 check)."""


class Pseudocube:
    """An immutable pseudocube of ``B^n`` in canonical affine form."""

    __slots__ = ("n", "anchor", "basis", "_hash", "_pivot_mask")

    n: int
    anchor: int
    basis: tuple[int, ...]

    def __init__(self, n: int, anchor: int, basis: tuple[int, ...]):
        """Build from an already-normalized representation.

        Most callers should use :meth:`from_point`, :meth:`from_points`,
        :meth:`from_cube` or the algebraic operations instead; this
        constructor validates its inputs but does not normalize them.
        """
        if n <= 0:
            raise ValueError("n must be positive")
        if not 0 <= anchor < (1 << n):
            raise ValueError("anchor outside B^n")
        if not gf2.is_rref(basis):
            raise ValueError("basis is not in RREF form")
        if basis and basis[-1] >= (1 << n):
            raise ValueError("basis vector outside B^n")
        pivots = gf2.pivot_mask(basis)
        if anchor & pivots:
            raise ValueError("anchor must be zero on canonical variables")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "anchor", anchor)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "_hash", hash((n, anchor, basis)))
        object.__setattr__(self, "_pivot_mask", pivots)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Pseudocube is immutable")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def _unsafe(cls, n: int, anchor: int, basis: tuple[int, ...]) -> "Pseudocube":
        """Validation-free constructor for internal hot loops.

        Callers must guarantee the representation invariants (RREF
        basis, anchor reduced).  The minimization inner loops create
        millions of pseudocubes from operations that preserve the
        invariants by construction; skipping validation there is the
        difference between minutes and hours on the paper's benchmarks.
        The slots are filled through their bound member descriptors,
        about half the cost of three ``object.__setattr__`` calls.
        """
        self = _new(cls)
        _set_n(self, n)
        _set_anchor(self, anchor)
        _set_basis(self, basis)
        return self

    @classmethod
    def from_point(cls, n: int, point: int) -> "Pseudocube":
        """The degree-0 pseudocube containing a single point (a minterm)."""
        return cls(n, point, ())

    @classmethod
    def from_points(cls, n: int, points: Iterable[int]) -> "Pseudocube":
        """Build from an explicit point set, verifying it is a pseudocube.

        Raises :class:`NotAPseudocubeError` if the set is not a coset of
        a linear subspace (equivalently, if its matrix cannot be made
        canonical by any row permutation).
        """
        pts = set(points)
        if not pts:
            raise NotAPseudocubeError("empty point set")
        it = iter(pts)
        p0 = next(it)
        basis = gf2.rref(p ^ p0 for p in it)
        if (1 << len(basis)) != len(pts):
            raise NotAPseudocubeError(
                f"{len(pts)} points span dimension {len(basis)}: not a coset"
            )
        anchor = gf2.reduce_vector(basis, p0)
        return cls(n, anchor, basis)

    @classmethod
    def from_cube(cls, n: int, care_mask: int, values: int) -> "Pseudocube":
        """The classic cube fixing the variables in ``care_mask`` to ``values``.

        Cubes are the pseudocubes whose non-canonical columns are
        constant; the free (unfixed) variables become the canonical
        ones.
        """
        if values & ~care_mask:
            raise ValueError("values set outside the care mask")
        free = mask_of_width(n) & ~care_mask
        basis = tuple(1 << i for i in bits_of(free))
        return cls(n, values, basis)

    @classmethod
    def whole_space(cls, n: int) -> "Pseudocube":
        """The degree-n pseudocube ``B^n`` (constant-1 function)."""
        return cls(n, 0, tuple(1 << i for i in range(n)))

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------

    @property
    def degree(self) -> int:
        """The degree ``m``: the pseudocube has ``2^m`` points."""
        return len(self.basis)

    def __len__(self) -> int:
        return 1 << len(self.basis)

    @property
    def canonical_mask(self) -> int:
        """Bitmask of the canonical variables (RREF pivots).

        Cached in a slot: computed eagerly by the validating
        constructor (which needs it anyway) and on first access for
        :meth:`_unsafe`-built instances (hot loops never pay for it).
        """
        try:
            return self._pivot_mask
        except AttributeError:
            mask = gf2.pivot_mask(self.basis)
            object.__setattr__(self, "_pivot_mask", mask)
            return mask

    def canonical_variables(self) -> tuple[int, ...]:
        """Indices of the canonical variables, increasing."""
        return tuple(bits_of(self.canonical_mask))

    def non_canonical_variables(self) -> tuple[int, ...]:
        """Indices of the non-canonical variables, increasing."""
        mask = mask_of_width(self.n) & ~self.canonical_mask
        return tuple(bits_of(mask))

    def __contains__(self, point: int) -> bool:
        return gf2.reduce_vector(self.basis, point ^ self.anchor) == 0

    def points(self) -> Iterator[int]:
        """Enumerate the member points (Gray-code order from the anchor)."""
        return gf2.span_points(self.basis, self.anchor)

    def is_cube(self) -> bool:
        """True iff this pseudocube is a classic cube (an SP product)."""
        return all(b == (b & -b) for b in self.basis)

    @property
    def num_literals(self) -> int:
        """Literal count of the CEX expression (the paper's cost unit).

        Each basis vector of weight ``w`` contributes its pivot to ``w-1``
        EXOR factors, and every non-canonical variable contributes one
        literal, so the count is available without building the CEX.
        """
        return sum(popcount(b) - 1 for b in self.basis) + (self.n - len(self.basis))

    # ------------------------------------------------------------------
    # Algebra (Proposition 1, Theorem 1)
    # ------------------------------------------------------------------

    def transform(self, alpha_mask: int) -> "Pseudocube":
        """The transformed set ``alpha(P)``: complement the variables in
        ``alpha_mask`` in every point.

        The direction space is unchanged; only the anchor moves
        (Proposition 1 of the paper is exercised with ``alpha`` a subset
        of the non-canonical variables, but the operation is defined for
        any ``alpha``).
        """
        anchor = gf2.reduce_vector(self.basis, self.anchor ^ alpha_mask)
        return Pseudocube(self.n, anchor, self.basis)

    def same_structure(self, other: "Pseudocube") -> bool:
        """Theorem 1 predicate: ``STR(P1) == STR(P2)``.

        Structure is a function of the direction space alone, so this is
        an O(degree) tuple comparison.
        """
        return self.n == other.n and self.basis == other.basis

    def union(self, other: "Pseudocube") -> "Pseudocube | None":
        """The union pseudocube of degree ``m+1``, or None.

        Returns None when the two pseudocubes do not satisfy Theorem 1
        (different structures) or are identical (union is not larger).
        This is the affine-form counterpart of the paper's Algorithm 1;
        the symbolic CEX-level algorithm lives in
        :mod:`repro.core.union` and is tested to agree with this one.
        """
        if self.basis != other.basis or self.n != other.n:
            return None
        if self.anchor == other.anchor:
            return None
        delta = self.anchor ^ other.anchor
        basis = gf2.insert_vector(self.basis, delta)
        anchor = gf2.reduce_vector(basis, self.anchor)
        return Pseudocube._unsafe(self.n, anchor, basis)

    def split(self, index: int) -> tuple["Pseudocube", "Pseudocube"]:
        """Split into two sub-pseudocubes of degree ``m-1`` along basis
        vector ``index``.

        The two halves have the same structure as each other, and their
        union is this pseudocube (the inverse of :meth:`union` for one
        particular hyperplane; all hyperplane splits are enumerated by
        :func:`repro.core.subcubes.sub_pseudocubes`).
        """
        if not 0 <= index < len(self.basis):
            raise IndexError("basis index out of range")
        removed = self.basis[index]
        rest = self.basis[:index] + self.basis[index + 1 :]
        low = Pseudocube(self.n, self.anchor, rest)
        high_anchor = gf2.reduce_vector(rest, self.anchor ^ removed)
        high = Pseudocube(self.n, high_anchor, rest)
        return low, high

    def contains_pseudocube(self, other: "Pseudocube") -> bool:
        """Set containment ``other ⊆ self``."""
        if self.n != other.n:
            return False
        if other.anchor not in self:
            return False
        return all(gf2.contains(self.basis, b) for b in other.basis)

    def intersect(self, other: "Pseudocube") -> "Pseudocube | None":
        """The intersection pseudocube, or None when disjoint.

        The intersection of two cosets is a coset of the intersection of
        the direction spaces (pseudocubes are closed under nonempty
        intersection, just as cubes are).
        """
        if self.n != other.n:
            raise ValueError("pseudocubes over different spaces")
        # Solve: anchor_a + V_a  ∩  anchor_b + V_b.  Work in the joint
        # space: find u ∈ V_a with anchor_a + u ∈ other.
        delta = self.anchor ^ other.anchor
        u = gf2.decompose(self.basis, other.basis, delta)
        if u is None:
            return None  # delta ∉ V_a + V_b: the cosets never meet
        # anchor_a ⊕ u lies in both cosets (u ∈ V_a, delta ⊕ u ∈ V_b).
        point = self.anchor ^ u
        inter = gf2.intersect_spaces(self.basis, other.basis, self.n)
        anchor = gf2.reduce_vector(inter, point)
        return Pseudocube(self.n, anchor, inter)

    # ------------------------------------------------------------------
    # Dunder plumbing
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Pseudocube):
            return NotImplemented
        return (
            self.n == other.n
            and self.anchor == other.anchor
            and self.basis == other.basis
        )

    def __hash__(self) -> int:
        # Lazy for :meth:`_unsafe`-built instances: generation creates
        # far more pseudocubes than are ever hashed, so the tuple hash
        # is paid on first use (and cached) rather than at build time.
        try:
            return self._hash
        except AttributeError:
            h = hash((self.n, self.anchor, self.basis))
            object.__setattr__(self, "_hash", h)
            return h

    def __repr__(self) -> str:
        return f"Pseudocube(n={self.n}, anchor={self.anchor:#x}, basis={self.basis})"

    def __str__(self) -> str:
        from repro.core.cex import cex_of  # local import: cex depends on us

        return str(cex_of(self))


# Bound once for `Pseudocube._unsafe`: the slots' own setters skip the
# class's immutability guard without an `object.__setattr__` lookup.
_new = object.__new__
_set_n = Pseudocube.__dict__["n"].__set__
_set_anchor = Pseudocube.__dict__["anchor"].__set__
_set_basis = Pseudocube.__dict__["basis"].__set__
