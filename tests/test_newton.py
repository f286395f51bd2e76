"""Integral closure via the Newton polyhedron, cross-checked against the
power-membership oracle and the degree walk, plus direct checks of the
facets against membership by the `Fraction` simplex oracle and of that
simplex's certificates."""

import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest

import gideal.newton
from gideal import (
    GForm,
    MonomialIdeal,
    Staircase,
    gform_to_monomial,
    is_in_G,
    is_integrally_closed,
    newton_closure,
)
from gideal.newton import _facets

from counting import count_calls
from oracles import (
    closure_by_powers,
    max_convex_cover_fractions,
    newton_closure_by_degrees,
)
from samplers import random_finite_ideal, random_gstar, random_small_ideal


def I2(*gens):
    return MonomialIdeal.of(2, gens)


def inside(facets, v):
    return all(sum(a * b for a, b in zip(w, v)) >= c for w, c in facets)


class TestSimplex:
    def test_two_pure_squares(self):
        opt, dual = max_convex_cover_fractions([(2, 0), (0, 2)], (1, 1))
        assert opt == 1
        assert len(dual) == 2

    def test_fractional_optimum(self):
        opt, _ = max_convex_cover_fractions([(2, 0), (0, 3)], (1, 1))
        assert opt == Fraction(1, 2) + Fraction(1, 3)

    def test_dual_is_separating_certificate(self):
        columns = [(3, 0, 0), (0, 3, 0), (1, 1, 1)]
        rhs = (1, 1, 0)
        opt, dual = max_convex_cover_fractions(columns, rhs)
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
            opt, dual = max_convex_cover_fractions(columns, rhs)
            assert len(dual) == n
            assert all(y >= 0 for y in dual)
            assert sum(y * r for y, r in zip(dual, rhs)) == opt
            for col in columns:
                assert sum(y * c for y, c in zip(dual, col)) >= 1

    def test_zero_column_rejected(self):
        with pytest.raises(ValueError):
            max_convex_cover_fractions([(0, 0)], (1, 1))

    def test_exact_rationals_no_drift(self):
        opt, _ = max_convex_cover_fractions([(7, 0), (0, 11)], (1, 1))
        assert opt == Fraction(1, 7) + Fraction(1, 11)


class TestMembership:
    def test_boundary_point_is_inside(self):
        facets = _facets(I2((2, 0), (0, 2)).gens, 2)
        assert facets == [((1, 1), 2)]
        assert inside(facets, (1, 1))
        assert not inside(facets, (1, 0))

    def test_divisibility_fast_path(self):
        # a principal ideal is its own closure: the facets are x >= 1 and
        # y >= 2, so membership is divisibility
        facets = _facets(I2((1, 2)).gens, 2)
        assert sorted(facets) == [((0, 1), 2), ((1, 0), 1)]
        assert inside(facets, (2, 2))
        assert not inside(facets, (0, 2))

    def test_unit_ideal_decided_once(self, monkeypatch):
        calls = []
        is_unit = MonomialIdeal.is_unit

        def counting(self):
            calls.append(self)
            return is_unit(self)

        # the unit ideal has no facet, so every point is inside
        assert _facets(MonomialIdeal.unit(2).gens, 2) == []
        monkeypatch.setattr(MonomialIdeal, "is_unit", counting)
        I = I2((3, 0), (1, 1), (0, 3))
        assert newton_closure(I) == I
        U = MonomialIdeal.unit(2)
        assert newton_closure(U) == U
        assert len(calls) == 2

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_facets_match_fraction_simplex_on_a_box(self, n):
        rng = random.Random(101 + n)
        side = {2: 9, 3: 6, 4: 4, 5: 3}[n]
        count = 6 if n < 5 else 2
        ideals = []
        for _ in range(count):
            ideals.append(random_finite_ideal(rng, n, max_deg=side))
            ideals.append(random_small_ideal(rng, n, max_deg=side, max_gens=6))
        box = list(itertools.product(range(side), repeat=n))
        for I in ideals:
            facets = _facets(I.gens, n)
            for v in box:
                member = max_convex_cover_fractions(list(I.gens), v)[0] >= 1
                assert inside(facets, v) == member, (I.gens, v)

    @pytest.mark.parametrize("k", [2, 3])
    def test_facets_of_a_power_scale(self, k):
        # NP(I^k) = k NP(I), and a facet's (w, c) stays primitive when c is
        # scaled, since w alone is primitive
        rng = random.Random(107 + k)
        ideals = []
        for n in (2, 3, 4):
            for _ in range(4):
                ideals.append(random_finite_ideal(rng, n, max_deg=4))
                ideals.append(random_small_ideal(rng, n, max_deg=4, max_gens=4))
        assert sum(I.colength() is None for I in ideals) >= 8
        for I in ideals:
            want = {(w, k * c) for w, c in _facets(I.gens, I.n)}
            got = _facets((I**k).gens, I.n)
            assert len(got) == len(want)
            assert set(got) == want, I.gens


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

    def test_one_facet_computation_per_closure(self, monkeypatch):
        calls = count_calls(monkeypatch, gideal.newton, "_facets")
        I = MonomialIdeal.of(3, [(61, 0, 0), (0, 59, 0), (0, 0, 64), (1, 1, 1)])
        closed = newton_closure(I)
        assert len(closed.gens) == 180
        assert len(calls) == 1
        assert len(_facets(*calls[0])) == 3

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

    def test_order_8_form_and_its_powers_are_closed(self):
        # I is in G and integrally closed, so in G*; G* is closed under
        # product (abstract), so its square and cube are integrally closed
        form = GForm.of(8, {w: Staircase((0, 2, 3)) for w in range(4)})
        I = gform_to_monomial(form, 4)
        assert is_in_G(I) == form
        square = I * I
        cube = square * I
        assert len(cube.gens) == 2925
        assert all(is_integrally_closed(J) for J in (I, square, cube))
