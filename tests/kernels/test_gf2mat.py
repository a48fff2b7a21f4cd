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
    @given(st.lists(st.integers(0, 8), max_size=6), st.data())
    def test_pair_block_matches_nested_loops(self, sizes, data):
        """Item ``i`` of a group owns the row of pairs ``(i, j)`` for
        every later ``j`` of its group; a block of rows ``start..stop-1``
        decodes to exactly those rows' pairs in nested-loop order, and
        consecutive blocks concatenate to the whole stream."""
        rows = []
        start = 0
        for size in sizes:
            for i in range(size):
                rows.append([(start + i, start + j) for j in range(i + 1, size)])
            start += size
        lengths = gf2mat.row_lengths(np.array(sizes, dtype=np.int64))
        assert lengths.tolist() == [len(row) for row in rows]
        m = len(rows)
        cuts = sorted(data.draw(st.lists(st.integers(0, m), max_size=4)))
        stream = []
        for lo, hi in zip([0, *cuts], [*cuts, m]):
            left, right = gf2mat.pair_block(lengths, lo, hi)
            assert left.dtype == right.dtype == np.int32
            pairs = list(zip(left.tolist(), right.tolist()))
            assert pairs == [pair for row in rows[lo:hi] for pair in row]
            stream += pairs
        assert stream == [pair for row in rows for pair in row]

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
