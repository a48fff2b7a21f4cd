"""Property tests pinning the :mod:`repro.kernels.gf2mat` generation
kernels bit-identical to the pure-Python references they replace.

Each kernel has a scalar counterpart; these tests draw random inputs
and assert exact equality of outputs (values *and* orders — the
generation front-end relies on the pair decoder visiting pairs in the
scalar loops' order).  The suite skips itself when the
numpy kernels are unavailable (missing numpy or ``REPRO_NO_NUMPY``):
under the CI fallback-parity leg there is nothing to compare against.
"""

import pytest

np = pytest.importorskip("numpy")

from hypothesis import given
from hypothesis import strategies as st

from repro.core import gf2
from repro.kernels import gf2mat
from repro.minimize.eppp import _basis_factor_width, _basis_literals

pytestmark = pytest.mark.skipif(
    not gf2mat.AVAILABLE,
    reason="numpy GF(2) kernels disabled (REPRO_NO_NUMPY or no bitwise_count)",
)


@st.composite
def vectors_and_n(draw, max_n=12, max_len=8):
    n = draw(st.integers(1, max_n))
    vs = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=max_len))
    return n, vs


@st.composite
def basis_and_n(draw, max_n=12, max_len=8):
    n, vs = draw(vectors_and_n(max_n=max_n, max_len=max_len))
    return n, gf2.rref(vs)


class TestSingleBasisParity:
    @given(st.integers(1, 12), st.lists(basis_and_n(max_n=12), min_size=1, max_size=5))
    def test_basis_literals(self, n, nbs):
        """Uniform-rank layout: truncate every basis to the batch's
        minimum rank so the matrix has no padding."""
        rank = min(len(b) for _, b in nbs)
        bases = [b[:rank] for _, b in nbs]
        mat = np.array([list(b) for b in bases], dtype=np.uint64).reshape(len(bases), rank)
        got = gf2mat.basis_literals(mat, n)
        assert got.tolist() == [_basis_literals(n, b) for b in bases]


class TestBatchKernels:
    @given(
        st.lists(st.integers(0, 8), max_size=6),
        st.one_of(st.none(), st.integers(1, 40)),
    )
    def test_pair_rows_matches_nested_loops(self, sizes, limit):
        """Pairs in nested-loop order as item indices; ``limit`` keeps
        the shortest prefix of whole rows holding ``limit`` pairs."""
        rows = []
        start = 0
        for g, size in enumerate(sizes):
            for i in range(size - 1):
                rows.append(
                    [(g, start + i, start + j) for j in range(i + 1, size)]
                )
            start += size
        expected, ends = [], []
        for row in rows:
            if limit is not None and len(expected) >= limit:
                break
            expected.extend(row)
            ends.append(len(expected))
        group, left, right, row_ends = gf2mat.pair_rows(
            np.array(sizes, dtype=np.int64), limit
        )
        assert list(zip(group.tolist(), left.tolist(), right.tolist())) == expected
        assert row_ends.tolist() == ends

    def test_pair_rows_limit_ends_on_a_row_end(self):
        """Sizes [3, 4]: rows of 2, 1, 3, 2, 1 pairs.  A limit inside a
        row keeps that whole row; one past the stream keeps it all."""
        sizes = np.array([3, 4], dtype=np.int64)
        assert gf2mat.pair_rows(sizes, 4)[3].tolist() == [2, 3, 6]
        assert gf2mat.pair_rows(sizes, 3)[3].tolist() == [2, 3]
        assert gf2mat.pair_rows(sizes, 99)[3].tolist() == [2, 3, 6, 8, 9]
        assert gf2mat.pair_rows(sizes, 1)[1].tolist() == [0, 0]

    @given(
        st.integers(1, 12).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(
                    st.lists(st.integers(1, (1 << n) - 1), max_size=2 * n),
                    min_size=1,
                    max_size=5,
                ),
            )
        ),
        st.integers(1, 4),
    )
    def test_columns_reach_is_the_width_test(self, n_vectors, bound):
        """Fed RREF rows without their pivots, ``columns_reach`` says
        exactly whether a basis has an EXOR factor wider than ``bound``
        (random bases over one ``n`` cut to the batch's minimum rank;
        full rank included, width 0)."""
        n, vector_lists = n_vectors
        bases = [gf2.rref(vs) for vs in vector_lists]
        rank = min(len(b) for b in bases)
        bases = [b[:rank] for b in bases]
        rows = [
            np.array([b[c] & (b[c] - 1) for b in bases], dtype=np.uint64)
            for c in range(rank)
        ] or [np.zeros(len(bases), dtype=np.uint64)]
        got = gf2mat.columns_reach(rows, bound)
        assert got.tolist() == [_basis_factor_width(n, b) > bound for b in bases]
