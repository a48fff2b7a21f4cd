"""Tests for Quine–McCluskey prime implicant generation."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.boolfunc.function import BoolFunc
from repro.budget import Budget
from repro.errors import Cancelled
from repro.minimize.qm import Cube, prime_implicants


def _brute_force_primes(func: BoolFunc) -> set[Cube]:
    """All maximal cubes contained in the care set, by enumeration."""
    care = func.care_set
    n = func.n
    implicants = set()
    for mask in range(1 << n):
        fixed = ((1 << n) - 1) & ~mask
        for values_bits in range(1 << n):
            values = values_bits & fixed
            if values != values_bits:
                continue
            cube = Cube(values, mask)
            if all(p in care for p in cube.points()):
                implicants.add(cube)
    primes = set()
    for cube in implicants:
        is_prime = True
        for other in implicants:
            if other == cube:
                continue
            if (other.mask | cube.mask) == other.mask and (
                cube.values & ~other.mask
            ) == other.values:
                is_prime = False
                break
        if is_prime:
            primes.add(cube)
    return primes


class TestCube:
    def test_covers(self):
        cube = Cube(0b01, 0b10)  # x0=1, x1 free (n=2)
        assert cube.covers(0b01)
        assert cube.covers(0b11)
        assert not cube.covers(0b00)

    def test_points(self):
        cube = Cube(0b001, 0b110)
        assert sorted(cube.points()) == [0b001, 0b011, 0b101, 0b111]

    def test_num_literals(self):
        assert Cube(0b001, 0b110).num_literals(3) == 1
        assert Cube(0b101, 0b010).num_literals(3) == 2

    def test_to_string(self):
        assert Cube(0b001, 0b110).to_string(3) == "1--"
        assert Cube(0b100, 0b010).to_string(3) == "0-1"

    def test_to_pseudocube(self):
        cube = Cube(0b001, 0b010)
        pc = cube.to_pseudocube(3)
        assert set(pc.points()) == set(cube.points())
        assert pc.is_cube()


class TestPrimeImplicants:
    def test_xor_function_primes_are_minterms(self):
        func = BoolFunc(2, frozenset({0b01, 0b10}))
        primes = prime_implicants(func)
        assert {p.mask for p in primes} == {0}
        assert len(primes) == 2

    def test_full_space_single_prime(self):
        func = BoolFunc(3, frozenset(range(8)))
        primes = prime_implicants(func)
        assert primes == [Cube(0, 0b111)]

    def test_empty_function(self):
        assert prime_implicants(BoolFunc(3, frozenset())) == []

    def test_cancelled_budget_raises(self):
        budget = Budget(tick_every=1)
        budget.cancel("test")
        with pytest.raises(Cancelled):
            prime_implicants(BoolFunc(4, frozenset(range(16))), budget)

    def test_classic_example(self):
        # f = x0'x1' + x0x1 over 2 vars: two prime minterm-pairs? No:
        # on-set {00, 11}: two isolated minterms.
        func = BoolFunc(2, frozenset({0b00, 0b11}))
        primes = prime_implicants(func)
        assert len(primes) == 2

    def test_dont_cares_participate(self):
        # on {00}, dc {01}: prime is x1' ... wait bit order: point 0b01
        # is x0=1.  on {00}, dc {01=x0}: the cube "x1'=0 free x0" covers
        # both; it is the single prime containing the on-point.
        func = BoolFunc(2, frozenset({0b00}), frozenset({0b01}))
        primes = prime_implicants(func)
        assert Cube(0b00, 0b01) in primes

    @given(st.integers(2, 4), st.data())
    def test_against_brute_force(self, n, data):
        space = 1 << n
        on = data.draw(st.sets(st.integers(0, space - 1), max_size=space))
        dc = data.draw(st.sets(st.integers(0, space - 1), max_size=4)) - on
        func = BoolFunc(n, frozenset(on), frozenset(dc))
        assert set(prime_implicants(func)) == _brute_force_primes(func)

    @given(st.integers(2, 5), st.data())
    def test_primes_cover_care_set_exactly(self, n, data):
        space = 1 << n
        on = data.draw(st.sets(st.integers(0, space - 1), min_size=1, max_size=space))
        func = BoolFunc(n, frozenset(on))
        primes = prime_implicants(func)
        covered = set()
        for cube in primes:
            pts = set(cube.points())
            assert pts <= func.care_set
            covered |= pts
        assert covered == func.care_set
