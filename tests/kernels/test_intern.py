"""Tests for the interned-basis table: canonicalisation and the
per-basis pivot cache."""

from hypothesis import given
from hypothesis import strategies as st

from repro.core import gf2
from repro.kernels.intern import BasisInterner


def _bases(draw_n=5):
    return st.lists(
        st.integers(0, (1 << draw_n) - 1), min_size=0, max_size=4
    ).map(gf2.rref)


class TestIntern:
    def test_returns_first_seen_object(self):
        interner = BasisInterner()
        a = (0b01, 0b10)
        b = (0b01, 0b10)
        assert interner.intern(a) is a
        assert interner.intern(b) is a
        assert BasisInterner().intern(b) is b


class TestPivotCache:
    @given(_bases())
    def test_pivots_match_reference(self, basis):
        interner = BasisInterner()
        assert interner.pivots(basis) == tuple(gf2.pivot_of(b) for b in basis)

    def test_pivots_computed_once_per_basis(self):
        interner = BasisInterner()
        basis = (0b0110, 0b1000)
        first = interner.pivots(basis)
        assert interner.pivots((0b0110, 0b1000)) is first
