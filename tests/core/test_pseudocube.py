"""Unit and property tests for the Pseudocube class."""

import pytest
from hypothesis import given

from repro.core.canonical import is_pseudocube
from repro.core.pseudocube import NotAPseudocubeError, Pseudocube

from tests.conftest import pseudocubes, pseudocube_pairs_same_structure


class TestConstruction:
    def test_from_point(self):
        pc = Pseudocube.from_point(4, 0b1010)
        assert pc.degree == 0
        assert len(pc) == 1
        assert list(pc.points()) == [0b1010]

    def test_from_points_pair(self):
        pc = Pseudocube.from_points(3, [0b001, 0b110])
        assert pc.degree == 1
        assert set(pc.points()) == {0b001, 0b110}

    def test_from_points_rejects_non_coset(self):
        with pytest.raises(NotAPseudocubeError):
            Pseudocube.from_points(3, [0, 1, 2])  # 3 points, never a coset

    def test_from_points_rejects_wrong_span(self):
        # 4 points spanning dimension 3: not a coset.
        with pytest.raises(NotAPseudocubeError):
            Pseudocube.from_points(3, [0b000, 0b001, 0b010, 0b100])

    def test_from_points_empty(self):
        with pytest.raises(NotAPseudocubeError):
            Pseudocube.from_points(3, [])

    def test_from_cube(self):
        # x0=1, x2=0 fixed; x1 free.
        pc = Pseudocube.from_cube(3, 0b101, 0b001)
        assert set(pc.points()) == {0b001, 0b011}
        assert pc.is_cube()

    def test_from_cube_rejects_values_outside_care(self):
        with pytest.raises(ValueError):
            Pseudocube.from_cube(3, 0b001, 0b010)

    def test_whole_space(self):
        pc = Pseudocube.whole_space(3)
        assert pc.degree == 3
        assert set(pc.points()) == set(range(8))
        assert pc.num_literals == 0

    def test_validating_constructor_rejects_bad_anchor(self):
        with pytest.raises(ValueError):
            Pseudocube(3, 0b001, (0b001,))  # anchor set on a pivot

    def test_validating_constructor_rejects_bad_basis(self):
        with pytest.raises(ValueError):
            Pseudocube(3, 0, (0b10, 0b01))

    def test_immutable(self):
        pc = Pseudocube.from_point(3, 5)
        with pytest.raises(AttributeError):
            pc.anchor = 0

    @given(pseudocubes(max_n=6))
    def test_unsafe_matches_validating_constructor(self, pc):
        """`_unsafe` fills the slots without the checks: the result
        equals and hashes like the validated pseudocube and still
        refuses attribute assignment."""
        fast = Pseudocube._unsafe(pc.n, pc.anchor, pc.basis)
        slow = Pseudocube(pc.n, pc.anchor, pc.basis)
        assert type(fast) is Pseudocube
        assert (fast.n, fast.anchor, fast.basis) == (slow.n, slow.anchor, slow.basis)
        assert fast == slow and hash(fast) == hash(slow)
        assert fast.canonical_mask == slow.canonical_mask
        for name in ("n", "anchor", "basis", "_hash"):
            with pytest.raises(AttributeError):
                setattr(fast, name, 0)
        assert fast.anchor == pc.anchor


class TestQueries:
    def test_membership(self):
        pc = Pseudocube.from_points(4, [0b0000, 0b0011, 0b1100, 0b1111])
        for p in pc.points():
            assert p in pc
        assert 0b0001 not in pc

    def test_canonical_variables_figure1(self):
        rows = [0b101010, 0b011010, 0b100110, 0b010110, 0b000011,
                0b110011, 0b001111, 0b111111]
        pc = Pseudocube.from_points(6, rows)
        assert pc.canonical_variables() == (0, 2, 4)
        assert pc.non_canonical_variables() == (1, 3, 5)

    def test_is_cube(self):
        assert Pseudocube.from_cube(4, 0b0011, 0b0001).is_cube()
        xor_pair = Pseudocube.from_points(2, [0b01, 0b10])
        assert not xor_pair.is_cube()

    @given(pseudocubes())
    def test_roundtrip_from_points(self, pc):
        assert Pseudocube.from_points(pc.n, pc.points()) == pc

    @given(pseudocubes(max_n=5))
    def test_matches_matrix_definition(self, pc):
        """The affine representation and the paper's canonical-matrix
        definition agree on what a pseudocube is."""
        assert is_pseudocube(set(pc.points()), pc.n)

    @given(pseudocubes())
    def test_num_literals_matches_cex(self, pc):
        from repro.core.cex import cex_of

        assert pc.num_literals == cex_of(pc).num_literals

    @given(pseudocubes())
    def test_anchor_is_member_with_zero_canonical_bits(self, pc):
        assert pc.anchor in pc
        assert pc.anchor & pc.canonical_mask == 0


class TestTransform:
    @given(pseudocubes())
    def test_transform_moves_points(self, pc):
        alpha = 0b101 % (1 << pc.n)
        moved = pc.transform(alpha)
        assert set(moved.points()) == {p ^ alpha for p in pc.points()}

    @given(pseudocube_pairs_same_structure())
    def test_proposition1(self, pair):
        """alpha(P) for alpha over non-canonical variables: disjoint,
        same degree, union a pseudocube of degree m+1."""
        p1, p2 = pair
        assert set(p1.points()).isdisjoint(p2.points())
        union = p1.union(p2)
        assert union is not None
        assert union.degree == p1.degree + 1
        assert set(union.points()) == set(p1.points()) | set(p2.points())


class TestUnion:
    def test_union_requires_same_structure(self):
        a = Pseudocube.from_points(3, [0b000, 0b011])
        b = Pseudocube.from_points(3, [0b100, 0b101])
        assert a.union(b) is None

    def test_union_of_identical_is_none(self):
        a = Pseudocube.from_point(3, 1)
        assert a.union(a) is None

    @given(pseudocube_pairs_same_structure())
    def test_union_is_set_union(self, pair):
        p1, p2 = pair
        union = p1.union(p2)
        assert union is not None
        assert set(union.points()) == set(p1.points()) | set(p2.points())
        # Symmetric.
        assert p2.union(p1) == union

    @given(pseudocubes(min_n=2, max_n=6))
    def test_split_then_union_roundtrip(self, pc):
        if pc.degree == 0:
            return
        for index in range(pc.degree):
            low, high = pc.split(index)
            assert low.same_structure(high)
            assert low.union(high) == pc

    def test_split_bad_index(self):
        pc = Pseudocube.from_points(3, [0, 1])
        with pytest.raises(IndexError):
            pc.split(5)


class TestContainment:
    @given(pseudocubes(max_n=5))
    def test_contains_pseudocube_reflexive(self, pc):
        assert pc.contains_pseudocube(pc)

    @given(pseudocubes(min_n=2, max_n=5))
    def test_halves_contained(self, pc):
        if pc.degree == 0:
            return
        low, high = pc.split(0)
        assert pc.contains_pseudocube(low)
        assert pc.contains_pseudocube(high)
        assert not low.contains_pseudocube(pc)

    def test_not_contained(self):
        a = Pseudocube.from_point(3, 0)
        b = Pseudocube.from_point(3, 1)
        assert not a.contains_pseudocube(b)


class TestIntersect:
    @given(pseudocubes(min_n=5, max_n=5), pseudocubes(min_n=5, max_n=5))
    def test_intersection_is_set_intersection(self, a, b):
        expected = set(a.points()) & set(b.points())
        got = a.intersect(b)
        if expected:
            assert got is not None
            assert set(got.points()) == expected
        else:
            assert got is None

    def test_disjoint_cubes(self):
        a = Pseudocube.from_cube(3, 0b001, 0b001)
        b = Pseudocube.from_cube(3, 0b001, 0b000)
        assert a.intersect(b) is None

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            Pseudocube.from_point(2, 0).intersect(Pseudocube.from_point(3, 0))

    @given(pseudocubes(max_n=5))
    def test_self_intersection(self, pc):
        assert pc.intersect(pc) == pc


class TestHashing:
    @given(pseudocube_pairs_same_structure())
    def test_distinct_pseudocubes_unequal(self, pair):
        p1, p2 = pair
        assert p1 != p2
        assert p1 == Pseudocube(p1.n, p1.anchor, p1.basis)
        assert hash(p1) == hash(Pseudocube(p1.n, p1.anchor, p1.basis))

    def test_repr_str(self):
        pc = Pseudocube.from_points(3, [0b110, 0b001])
        assert "Pseudocube" in repr(pc)
        assert "(+)" in str(pc) or "x" in str(pc)
