"""Staircase sequence calculus: min-plus products, integral closure via
the lower convex hull (checked against the min-plus oracle), and the
primitive-edge simple factorization."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from gideal import (
    Staircase,
    closure_seq,
    factor_simple,
    jdt_seq,
    minplus_power,
    minplus_product,
    recognize_simple,
)
from gideal.staircases import SimpleFactorization

from oracles import closure_seq_minplus


def S(*steps):
    return Staircase(steps)


class TestStaircaseType:
    def test_validation(self):
        with pytest.raises(ValueError):
            Staircase((1, 2))
        with pytest.raises(ValueError):
            Staircase((0, 2, 2))
        with pytest.raises(ValueError):
            Staircase(())

    def test_fractional_step_rejected(self):
        with pytest.raises(TypeError):
            Staircase((0, 2.5))

    def test_steps_of_any_sequence_are_a_tuple(self):
        for steps in ([0, 2, 3], range(0, 6, 2), iter((0, 1, 4))):
            a = Staircase(steps)
            assert type(a.steps) is tuple
            assert a == Staircase(tuple(a.steps))
            assert hash(a) == hash(Staircase(tuple(a.steps)))
        with pytest.raises(ValueError):
            Staircase([0, 2, 2])

    def test_basic_accessors(self):
        a = S(0, 2, 5)
        assert a.d == 2
        assert a.top == 5
        assert a[1] == 2

    def test_m_power(self):
        assert Staircase.m_power(3) == S(0, 1, 2, 3)
        assert Staircase.m_power(0) == S(0)


class TestMinPlus:
    def test_square_of_single_step(self):
        assert minplus_product(S(0, 2), S(0, 2)) == S(0, 2, 4)

    def test_mixed_steps(self):
        assert minplus_product(S(0, 2), S(0, 3)) == S(0, 2, 5)

    def test_square_of_two_three(self):
        assert minplus_product(S(0, 2, 3), S(0, 2, 3)) == S(0, 2, 3, 5, 6)

    def test_power_matches_repeated_product(self):
        a = S(0, 2, 5)
        assert minplus_power(a, 1) == a
        assert minplus_power(a, 3) == minplus_product(minplus_product(a, a), a)

    @settings(max_examples=60, derandomize=True)
    @given(
        st.lists(st.integers(1, 8), min_size=1, max_size=4),
        st.lists(st.integers(1, 8), min_size=1, max_size=4),
    )
    def test_commutative(self, xs, ys):
        a = S(0, *sorted(set(xs))) if len(set(xs)) else S(0)
        b = S(0, *sorted(set(ys)))
        assert minplus_product(a, b) == minplus_product(b, a)

    def test_identity_element(self):
        a = S(0, 3, 4)
        assert minplus_product(a, S(0)) == a


class TestClosure:
    def test_known_closure(self):
        assert closure_seq(S(0, 5, 6)) == S(0, 3, 6)

    def test_closed_stays(self):
        assert closure_seq(S(0, 2, 4)) == S(0, 2, 4)

    def test_trivial(self):
        assert closure_seq(S(0)) == S(0)

    def test_matches_minplus_oracle_exhaustively(self):
        for d in range(1, 5):
            for steps in combinations(range(1, 10), d):
                a = Staircase((0,) + steps)
                assert closure_seq(a) == closure_seq_minplus(a), a

    def test_matches_minplus_oracle_on_long_random(self):
        rng = random.Random(3)
        for _ in range(200):
            d = rng.randint(6, 30)
            a = Staircase((0,) + tuple(sorted(rng.sample(range(1, 201), d))))
            c = closure_seq(a)
            assert c == closure_seq_minplus(a), a
            assert closure_seq(c) == c
            assert all(c[i] <= a[i] for i in range(a.d + 1))

    def test_long_closure_makes_no_minplus_product(self, monkeypatch):
        def forbidden(a, b):
            raise AssertionError("closure_seq called minplus_product")

        monkeypatch.setattr("gideal.staircases.minplus_product", forbidden)
        k = 1429  # d = 7k >= 10**4
        closed = jdt_seq(7 * k, 10 * k)
        steps = list(closed.steps)
        # points off the multiples of 7 lie above the line, so no hull vertex
        # moves
        for i in range(len(steps) - 2, 0, -1):
            if i % 7 and steps[i] + 1 < steps[i + 1]:
                steps[i] += 1
        lifted = Staircase(tuple(steps))
        assert lifted != closed
        assert closure_seq(lifted) == closed

    def test_idempotent_and_dominated(self):
        for steps in combinations(range(1, 11), 3):
            a = Staircase((0,) + steps)
            c = closure_seq(a)
            assert closure_seq(c) == c
            assert all(c[i] <= a[i] for i in range(a.d + 1))

    def test_product_of_closed_is_closed(self):
        cases = []
        for d in range(1, 4):
            for steps in combinations(range(1, 7), d):
                a = Staircase((0,) + steps)
                if closure_seq(a) == a:
                    cases.append(a)
        for a in cases[:40]:
            for b in cases[:40:3]:
                p = minplus_product(a, b)
                assert closure_seq(p) == p

    def test_closure_commutes_with_powers_on_closed(self):
        for steps in combinations(range(1, 9), 2):
            a = closure_seq(Staircase((0,) + steps))
            for k in (2, 3, 4):
                p = minplus_power(a, k)
                assert closure_seq(p) == p


class TestJdt:
    def test_small_values(self):
        assert jdt_seq(1, 2) == S(0, 2)
        assert jdt_seq(2, 3) == S(0, 2, 3)
        assert jdt_seq(3, 5) == S(0, 2, 4, 5)

    def test_validation(self):
        with pytest.raises(ValueError):
            jdt_seq(0, 2)
        with pytest.raises(ValueError):
            jdt_seq(3, 2)

    def test_jdt_is_closed(self):
        for d in range(1, 6):
            for t in range(d + 1, 10):
                a = jdt_seq(d, t)
                assert closure_seq(a) == a


class TestSimple:
    def test_recognize_jdt(self):
        assert recognize_simple(jdt_seq(2, 3)) == (2, 3)
        assert recognize_simple(jdt_seq(3, 7)) == (3, 7)

    def test_reject_non_coprime_shape(self):
        assert recognize_simple(S(0, 2, 4)) is None

    def test_reject_unit_steps(self):
        assert recognize_simple(S(0, 1, 2)) is None

    def test_reject_non_jdt(self):
        assert recognize_simple(S(0, 3, 4)) is None


class TestFactorSimple:
    def test_square_of_two_three(self):
        sf = factor_simple(S(0, 2, 3, 5, 6))
        assert sf.m_power == 0
        assert sf.factors == ((2, 3, 2),)

    def test_unit_prefix_becomes_m_power(self):
        sf = factor_simple(S(0, 1, 2, 4))
        assert sf.m_power == 2
        assert sf.factors == ((1, 2, 1),)

    def test_pure_m_power(self):
        sf = factor_simple(S(0, 1, 2, 3))
        assert sf.m_power == 3
        assert sf.factors == ()

    def test_trivial(self):
        sf = factor_simple(S(0))
        assert sf.m_power == 0 and sf.factors == ()

    def test_requires_closed(self):
        with pytest.raises(ValueError):
            factor_simple(S(0, 5, 6))

    def test_mixed_product_roundtrip(self):
        a = minplus_product(jdt_seq(2, 3), jdt_seq(1, 4))
        sf = factor_simple(a)
        assert sf.m_power == 0
        assert sorted(sf.factors) == [(1, 4, 1), (2, 3, 1)]
        assert sf.reconstruct() == a

    def test_reconstruction_is_inverse(self):
        sf = SimpleFactorization(m_power=1, factors=((1, 3, 2), (2, 5, 1)))
        a = sf.reconstruct()
        assert factor_simple(a) == sf

    def test_exhaustive_small_roundtrip(self):
        for d in range(1, 5):
            for steps in combinations(range(1, 9), d):
                a = closure_seq(Staircase((0,) + steps))
                sf = factor_simple(a)
                assert sf.reconstruct() == a

    def test_seeded_long_roundtrip(self):
        # factor_simple does not multiply its pieces back; here they must
        # rebuild every closed staircase up to length 60
        rng = random.Random(89)
        for k in range(320):
            d = 1 + k % 60
            steps = sorted(rng.sample(range(1, 4 * d + 2), d))
            a = closure_seq(Staircase((0,) + tuple(steps)))
            assert factor_simple(a).reconstruct() == a, a
