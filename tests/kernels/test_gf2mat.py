"""Property tests pinning :mod:`repro.kernels.gf2mat` bit-identical to
the pure-Python :mod:`repro.core.gf2` reference.

Every function in the packed module mirrors a scalar one; these tests
draw random inputs and assert exact equality of outputs (values *and*
orders — the generation front-end relies on first-occurrence insertion
orders surviving the packed rewrite).  The suite skips itself when the
numpy kernels are unavailable (missing numpy or ``REPRO_NO_NUMPY``):
under the CI fallback-parity leg there is nothing to compare against.
"""

import sys
import threading

import pytest

np = pytest.importorskip("numpy")

from hypothesis import given, settings
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


@st.composite
def uniform_rank_batch(draw):
    """A uniform-rank batch of RREF parents with valid reduced deltas.

    Bases are built constructively (pick pivots, fill free positions
    above each pivot), so every draw is a valid RREF basis and every
    delta is nonzero and zero on the pivot positions — exactly the
    precondition of ``insert_reduced_batch``.
    """
    n = draw(st.integers(2, 12))
    rank = draw(st.integers(0, min(n - 1, 5)))
    batch = draw(st.integers(1, 6))
    parents, deltas = [], []
    for _ in range(batch):
        pivots = sorted(draw(st.sets(st.integers(0, n - 1), min_size=rank, max_size=rank)))
        free = [j for j in range(n) if j not in pivots]
        rows = []
        for p in pivots:
            v = 1 << p
            for f in free:
                if f > p and draw(st.booleans()):
                    v |= 1 << f
            rows.append(v)
        delta = 0
        for f in free:
            if draw(st.booleans()):
                delta |= 1 << f
        if delta == 0:
            delta = 1 << free[0]
        parents.append(tuple(rows))
        deltas.append(delta)
    return n, rank, parents, deltas


class TestSingleBasisParity:
    @given(vectors_and_n())
    def test_rref(self, nv):
        _, vs = nv
        assert gf2mat.rref(vs) == gf2.rref(vs)

    @given(basis_and_n(), st.integers(0, (1 << 12) - 1))
    def test_insert_vector(self, nb, v):
        n, basis = nb
        v &= (1 << n) - 1
        assert gf2mat.insert_vector(basis, v) == gf2.insert_vector(basis, v)

    @given(basis_and_n())
    def test_insert_dependent_returns_same_object(self, nb):
        """The same-object contract callers use as a dependence test."""
        _, basis = nb
        for v in basis:
            assert gf2mat.insert_vector(basis, v) is basis

    @given(basis_and_n(), st.lists(st.integers(0, (1 << 12) - 1), min_size=1, max_size=10))
    def test_reduce_vectors(self, nb, vs):
        n, basis = nb
        vs = [v & ((1 << n) - 1) for v in vs]
        got = gf2mat.reduce_vectors(basis, vs)
        assert got.tolist() == [gf2.reduce_vector(basis, v) for v in vs]

    @given(st.lists(basis_and_n(), min_size=1, max_size=5))
    def test_pivot_masks(self, nbs):
        """Mixed-rank batches zero-padded to one width: padding rows
        must contribute nothing to the masks."""
        bases = [b for _, b in nbs]
        width = max(len(b) for b in bases)
        if width == 0:
            width = 1
        mat = np.zeros((len(bases), width), dtype=np.uint64)
        for r, b in enumerate(bases):
            mat[r, : len(b)] = b
        got = gf2mat.pivot_masks(mat)
        assert got.tolist() == [gf2.pivot_mask(b) for b in bases]

    @given(st.integers(1, 12), st.lists(basis_and_n(max_n=12), min_size=1, max_size=5))
    def test_basis_literals(self, n, nbs):
        """Uniform-rank layout: truncate every basis to the batch's
        minimum rank so the matrix has no padding."""
        rank = min(len(b) for _, b in nbs)
        bases = [b[:rank] for _, b in nbs]
        mat = np.array([list(b) for b in bases], dtype=np.uint64).reshape(len(bases), rank)
        got = gf2mat.basis_literals(mat, n)
        assert got.tolist() == [_basis_literals(n, b) for b in bases]

    @given(st.integers(1, 12).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(
            st.lists(st.integers(1, (1 << n) - 1), max_size=2 * n),
            min_size=1, max_size=5,
        ))
    ))
    def test_basis_factor_width(self, n_vectors):
        """Random RREF bases over one ``n``, cut to the batch's minimum
        rank (full rank included: it has width 0)."""
        n, vector_lists = n_vectors
        bases = [gf2.rref(vs) for vs in vector_lists]
        rank = min(len(b) for b in bases)
        bases = [b[:rank] for b in bases]
        mat = np.array([list(b) for b in bases], dtype=np.uint64).reshape(len(bases), rank)
        got = gf2mat.basis_factor_width(mat, n)
        assert got.tolist() == [_basis_factor_width(n, b) for b in bases]

    @given(basis_and_n(max_n=8, max_len=6), st.integers(0, 255))
    def test_span_points_gray_order(self, nb, offset):
        n, basis = nb
        offset &= (1 << n) - 1
        got = gf2mat.span_points(basis, offset)
        assert got.tolist() == list(gf2.span_points(basis, offset))

    @given(basis_and_n(max_n=10), basis_and_n(max_n=10))
    def test_intersect_spaces(self, na, nb):
        n = max(na[0], nb[0])
        assert gf2mat.intersect_spaces(na[1], nb[1], n) == gf2.intersect_spaces(
            na[1], nb[1], n
        )

    @given(vectors_and_n())
    def test_pack_unpack_roundtrip(self, nv):
        _, vs = nv
        assert gf2mat.unpack_vectors(gf2mat.pack_vectors(vs)) == list(vs)


class TestBatchKernels:
    @settings(max_examples=60)
    @given(uniform_rank_batch())
    def test_insert_reduced_batch(self, nb):
        """Row ``i`` of the batched insert equals the scalar
        ``gf2.insert_vector(parent_i, delta_i)`` exactly."""
        n, rank, parents, deltas = nb
        for b in parents:
            assert gf2.is_rref(b)
        mat = np.array([list(b) for b in parents], dtype=np.uint64).reshape(
            len(parents), rank
        )
        out = gf2mat.insert_reduced_batch(mat, np.array(deltas, dtype=np.uint64))
        assert out.shape == (len(parents), rank + 1)
        for row, basis, delta in zip(out, parents, deltas):
            assert tuple(int(v) for v in row.tolist()) == gf2.insert_vector(basis, delta)

    @given(
        st.lists(st.integers(0, 8), max_size=6),
        st.one_of(st.none(), st.integers(0, 40)),
    )
    def test_pair_split_matches_nested_loops(self, sizes, limit):
        expected = [
            (g, i, j)
            for g, size in enumerate(sizes)
            for i in range(size)
            for j in range(i + 1, size)
        ]
        if limit is not None:
            expected = expected[:limit]
        group, i, j = gf2mat.pair_split(np.array(sizes, dtype=np.int64), limit)
        assert list(zip(group.tolist(), i.tolist(), j.tolist())) == expected

    def test_pair_split_memo_returns_consistent_streams(self):
        sizes = np.array([3, 5, 2], dtype=np.int64)
        first = gf2mat.pair_split(sizes, None)
        again = gf2mat.pair_split(sizes.copy(), None)
        for a, b in zip(first, again):
            assert a.tolist() == b.tolist()


class TestUniqueHelpers:
    @given(
        st.lists(st.integers(0, 40), min_size=1, max_size=60),
        st.booleans(),
    )
    def test_unique_sorted_first(self, vals, narrow):
        """Both the radix (narrow) and quicksort (wide) branches must
        agree with ``np.unique(..., return_index=True)`` — first
        occurrence per distinct key."""
        keys = np.array(vals, dtype=np.uint64)
        maxval = 64 if narrow else (1 << 40)
        uniq, first = gf2mat.unique_sorted_first(keys, maxval)
        want_u, want_first = np.unique(keys, return_index=True)
        assert uniq.tolist() == want_u.tolist()
        assert first.tolist() == want_first.tolist()

    @given(
        st.lists(st.integers(0, 40), min_size=1, max_size=60),
        st.booleans(),
    )
    def test_unique_with_inverse(self, vals, narrow):
        keys = np.array(vals, dtype=np.uint64)
        maxval = 64 if narrow else (1 << 40)
        uniq, inv = gf2mat.unique_with_inverse(keys, maxval)
        want_u, want_inv = np.unique(keys, return_inverse=True)
        assert uniq.tolist() == want_u.tolist()
        assert inv.tolist() == want_inv.reshape(-1).tolist()


class TestThreadSafety:
    def test_concurrent_dense_dedup_matches_np_unique(self):
        """Four threads deduplicating narrow keys at once (the serving
        tier runs generations on several request threads) each get
        ``np.unique``'s answer: the dense scratch table is per thread."""
        rng = np.random.default_rng(12)
        cases = []
        for _ in range(16):
            maxval = int(rng.integers(256, 1 << 14))
            keys = rng.integers(0, maxval, size=int(rng.integers(64, 2048)),
                                dtype=np.uint64)
            cases.append((keys, maxval, *np.unique(keys, return_index=True)))
        barrier = threading.Barrier(4)
        wrong = []

        def run(offset):
            barrier.wait(timeout=30)
            for rep in range(1000):
                keys, maxval, want_u, want_first = cases[(offset + rep) % len(cases)]
                try:
                    uniq, first = gf2mat.unique_sorted_first(keys, maxval)
                except Exception as exc:  # noqa: BLE001 — a race may raise too
                    wrong.append((offset, rep, repr(exc)))
                    continue
                if not (np.array_equal(uniq, want_u)
                        and np.array_equal(first, want_first)):
                    wrong.append((offset, rep))

        threads = [threading.Thread(target=run, args=(i * 4,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads inside the kernel often
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []
