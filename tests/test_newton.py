"""Integral closure via the Newton polyhedron, cross-checked against the
power-membership oracle and the degree walk, plus direct checks of the
integer simplex against the `Fraction` oracle and of the membership caches
against fresh solves."""

import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest

from gideal import MonomialIdeal, is_integrally_closed, newton_closure
from gideal.lp import max_convex_cover
from gideal.newton import NewtonMembership

from oracles import (
    closure_by_powers,
    max_convex_cover_fractions,
    newton_closure_by_degrees,
)
from samplers import random_finite_ideal, random_gstar, random_small_ideal


def I2(*gens):
    return MonomialIdeal.of(2, gens)


class TestSimplex:
    def test_two_pure_squares(self):
        opt, dual, _ = max_convex_cover([(2, 0), (0, 2)], (1, 1))
        assert opt == 1
        assert len(dual) == 2

    def test_fractional_optimum(self):
        opt, _, _ = max_convex_cover([(2, 0), (0, 3)], (1, 1))
        assert opt == Fraction(1, 2) + Fraction(1, 3)

    def test_dual_is_separating_certificate(self):
        columns = [(3, 0, 0), (0, 3, 0), (1, 1, 1)]
        rhs = (1, 1, 0)
        opt, dual, _ = max_convex_cover(columns, rhs)
        assert opt < 1
        assert all(y >= 0 for y in dual)
        assert sum(y * r for y, r in zip(dual, rhs)) == opt
        for col in columns:
            assert sum(y * c for y, c in zip(dual, col)) >= 1

    def test_dual_is_certificate_on_random_programs(self):
        rng = random.Random(83)
        for _ in range(300):
            n, m = rng.randint(1, 5), rng.randint(1, 8)
            columns = []
            while len(columns) < m:
                col = tuple(rng.randint(0, 6) for _ in range(n))
                if any(col):
                    columns.append(col)
            rhs = tuple(rng.randint(0, 12) for _ in range(n))
            opt, dual, _ = max_convex_cover(columns, rhs)
            assert len(dual) == n
            assert all(y >= 0 for y in dual)
            assert sum(y * r for y, r in zip(dual, rhs)) == opt
            for col in columns:
                assert sum(y * c for y, c in zip(dual, col)) >= 1

    def test_matches_fraction_oracle(self):
        rng = random.Random(89)
        for _ in range(3000):
            n, m = rng.randint(1, 5), rng.randint(1, 30)
            columns = []
            while len(columns) < m:
                col = tuple(rng.randint(0, 9) for _ in range(n))
                if any(col):
                    columns.append(col)
            rhs = tuple(rng.randint(0, 20) for _ in range(n))
            opt, dual, rows = max_convex_cover(columns, rhs)
            assert (opt, dual) == max_convex_cover_fractions(columns, rhs)
            # the returned basis is primal feasible for rhs
            assert all(sum(r * b for r, b in zip(row, rhs)) >= 0 for row in rows)

    def test_basis_rows_give_optimum_elsewhere(self):
        rng = random.Random(97)
        reused = 0
        for _ in range(300):
            n, m = rng.randint(1, 4), rng.randint(1, 10)
            columns = []
            while len(columns) < m:
                col = tuple(rng.randint(0, 6) for _ in range(n))
                if any(col):
                    columns.append(col)
            rhs = tuple(rng.randint(0, 12) for _ in range(n))
            _, dual, rows = max_convex_cover(columns, rhs)
            for _ in range(5):
                v = tuple(rng.randint(0, 12) for _ in range(n))
                if all(sum(r * b for r, b in zip(row, v)) >= 0 for row in rows):
                    reused += 1
                    got = max_convex_cover_fractions(columns, v)[0]
                    assert got == sum(y * b for y, b in zip(dual, v))
        assert reused >= 300

    def test_zero_column_rejected(self):
        with pytest.raises(ValueError):
            max_convex_cover([(0, 0)], (1, 1))

    def test_exact_rationals_no_drift(self):
        opt, _, _ = max_convex_cover([(7, 0), (0, 11)], (1, 1))
        assert opt == Fraction(1, 7) + Fraction(1, 11)


class TestMembership:
    def test_boundary_point_is_inside(self):
        m = NewtonMembership(I2((2, 0), (0, 2)))
        assert m.contains((1, 1))
        assert not m.contains((1, 0))

    def test_divisibility_fast_path(self):
        m = NewtonMembership(I2((1, 2)))
        assert m.contains((2, 2))
        assert not m.contains((0, 2))

    def test_cached_separator_rejects_without_simplex(self, monkeypatch):
        m = NewtonMembership(I2((4, 0), (0, 2)))
        assert not m.contains((3, 0))
        assert len(m._bases) == 1
        calls = []

        def counting(*args):
            calls.append(args)
            return max_convex_cover(*args)

        monkeypatch.setattr("gideal.newton.max_convex_cover", counting)
        assert not m.contains((1, 1))
        assert not m.contains((0, 1))
        assert calls == []
        assert m.contains((4, 0))
        assert m.contains((2, 1))

    def test_dual_of_an_inside_solve_rejects(self, monkeypatch):
        m = NewtonMembership(
            MonomialIdeal.of(3, [(5, 0, 0), (0, 3, 0), (0, 0, 5), (3, 0, 1), (0, 1, 3)])
        )
        assert m.contains((0, 2, 2))
        calls = []

        def counting(*args):
            calls.append(args)
            return max_convex_cover(*args)

        monkeypatch.setattr("gideal.newton.max_convex_cover", counting)
        assert not m.contains((1, 2, 0))
        assert calls == []

    def test_unit_ideal_decided_once(self, monkeypatch):
        calls = []
        is_unit = MonomialIdeal.is_unit

        def counting(self):
            calls.append(self)
            return is_unit(self)

        monkeypatch.setattr(MonomialIdeal, "is_unit", counting)
        m = NewtonMembership(I2((3, 0), (1, 1), (0, 3)))
        assert [m.contains(v) for v in [(0, 0), (1, 1), (2, 0), (0, 5)]] == [
            False, True, False, True,
        ]
        u = NewtonMembership(MonomialIdeal.unit(2))
        assert u.contains((0, 0)) and u.contains((3, 1))
        assert len(calls) == 2

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_cached_answers_match_fresh_solves(self, n):
        rng = random.Random(101 + n)
        side = {2: 9, 3: 6, 4: 4}[n]
        box = list(itertools.product(range(side), repeat=n))
        ideals = []
        for _ in range(6):
            ideals.append(random_finite_ideal(rng, n, max_deg=side))
            ideals.append(random_small_ideal(rng, n, max_deg=side, max_gens=6))
        for I in ideals:
            m = NewtonMembership(I)
            rng.shuffle(box)
            for v in box:
                fresh = max_convex_cover(m.columns, v)[0] >= 1
                assert m.contains(v) == fresh, (I.gens, v)


class TestClosure:
    def test_two_squares(self):
        assert newton_closure(I2((2, 0), (0, 2))) == I2((2, 0), (1, 1), (0, 2))

    def test_two_cubes(self):
        got = newton_closure(I2((3, 0), (0, 3)))
        assert got == I2((3, 0), (2, 1), (1, 2), (0, 3))

    def test_weighted_corner(self):
        assert newton_closure(I2((2, 0), (0, 3))) == I2((2, 0), (1, 2), (0, 3))

    def test_max_powers_closed(self):
        for n in (2, 3):
            for d in (1, 2, 3):
                M = MonomialIdeal.max_power(n, d)
                assert newton_closure(M) == M
                assert is_integrally_closed(M)

    def test_closure_contains_and_idempotent(self):
        rng = random.Random(5)
        for _ in range(15):
            I = random_small_ideal(rng, 3)
            c = newton_closure(I)
            assert I <= c
            assert newton_closure(c) == c

    def test_monotone(self):
        rng = random.Random(9)
        for _ in range(12):
            I = random_small_ideal(rng, 3)
            J = I + random_small_ideal(rng, 3)
            assert newton_closure(I) <= newton_closure(J)

    def test_against_power_oracle_2vars(self):
        rng = random.Random(17)
        for _ in range(15):
            I = random_small_ideal(rng, 2, max_deg=4, max_gens=3)
            assert newton_closure(I) == closure_by_powers(I)

    def test_against_power_oracle_3vars(self):
        rng = random.Random(19)
        for _ in range(8):
            I = random_finite_ideal(rng, 3, max_deg=3)
            assert newton_closure(I) == closure_by_powers(I)

    def test_against_power_oracle_3vars_infinite_colength(self):
        rng = random.Random(23)
        ideals = [random_small_ideal(rng, 3) for _ in range(8)]
        assert sum(I.colength() is None for I in ideals) >= 6
        for I in ideals:
            assert newton_closure(I) == closure_by_powers(I)

    def test_closed_plus_power_example(self):
        I = MonomialIdeal.of(3, [(2, 0, 0), (0, 1, 1)]) + MonomialIdeal.max_power(3, 3)
        assert is_integrally_closed(I)

    def test_degenerate_inputs(self):
        U = MonomialIdeal.unit(2)
        assert newton_closure(U) == U
        Z = MonomialIdeal.zero(2)
        assert newton_closure(Z) == Z

    def test_reuses_bases_along_long_faces(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return max_convex_cover(*args)

        monkeypatch.setattr("gideal.newton.max_convex_cover", counting)
        I = MonomialIdeal.of(3, [(61, 0, 0), (0, 59, 0), (0, 0, 64), (1, 1, 1)])
        closed = newton_closure(I)
        assert len(closed.gens) == 180
        assert len(calls) <= 10

    def test_matches_degree_walk(self):
        rng = random.Random(29)
        ideals = []
        for n in (1, 2, 3, 4):
            for _ in range(75):
                ideals.append(random_small_ideal(
                    rng, n, max_deg=rng.randint(2, 7), max_gens=rng.randint(1, 7)))
                ideals.append(random_finite_ideal(rng, n, max_deg=rng.randint(2, 7)))
        assert sum(I.colength() is None for I in ideals) >= len(ideals) // 3
        for _ in range(40):
            I, _ = random_gstar(rng)
            ideals += [I, I * I, I * I * I]
        assert len(ideals) >= 600
        for I in ideals:
            closed = newton_closure(I)
            # newton_closure does not scan for I in its result
            assert closed.contains_ideal(I), I.gens
            assert closed == newton_closure_by_degrees(I), I.gens

    def test_queries_only_outside_points_of_I(self, monkeypatch):
        queried = []
        contains = NewtonMembership.contains

        def recording(self, v):
            queried.append(v)
            return contains(self, v)

        monkeypatch.setattr(NewtonMembership, "contains", recording)
        I = MonomialIdeal.of(3, [(61, 0, 0), (0, 59, 0), (0, 0, 64), (1, 1, 1)])
        assert len(newton_closure(I).gens) == 180
        assert len(queried) <= 2500
        assert not any(I.contains_monomial(v) for v in queried)

    def test_memory_stays_flat(self):
        I = MonomialIdeal.of(3, [(300, 0, 0), (0, 300, 0), (0, 0, 300), (1, 1, 1)])
        tracemalloc.start()
        try:
            closed = newton_closure(I)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(closed.gens) == 901
        assert peak < 1 << 20

    def test_principal_is_closed(self):
        I = MonomialIdeal.of(3, [(1, 2, 0)])
        assert is_integrally_closed(I)
